package transport_test

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// TestEndpointContract runs the shared Endpoint contract on the
// simulated network, in virtual time with 1 ms links.
func TestEndpointContract(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) transporttest.Pair {
		eng := sim.NewEngine(1)
		const timeout = 200 * time.Millisecond
		net := transport.NewSimNetwork(eng, transport.SimConfig{CallTimeout: timeout})
		return transporttest.Pair{
			A:       net.Endpoint("sim/a"),
			B:       net.Endpoint("sim/b"),
			Timeout: timeout,
			Now:     func() time.Duration { return time.Duration(eng.Now()) },
			Run:     func(d time.Duration) { eng.RunFor(d) },
		}
	})
}
