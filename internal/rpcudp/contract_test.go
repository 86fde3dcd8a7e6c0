package rpcudp

import (
	"testing"
	"time"

	"repro/internal/transport/transporttest"
)

// TestEndpointContract runs the shared Endpoint contract on two
// loopback UDP endpoints, in wall time.
func TestEndpointContract(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) transporttest.Pair {
		const timeout = 200 * time.Millisecond
		start := time.Now()
		return transporttest.Pair{
			A:       listen(t, Config{CallTimeout: timeout}),
			B:       listen(t, Config{}),
			Timeout: timeout,
			Slack:   150 * time.Millisecond,
			Now:     func() time.Duration { return time.Since(start) },
			Run:     time.Sleep,
		}
	})
}
