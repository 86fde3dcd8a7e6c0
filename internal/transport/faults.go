package transport

import (
	"math/rand"
	"time"
)

// Fault describes what the network does to one message: drop it, deliver
// it twice, and/or delay it beyond the latency model's sample. The zero
// Fault is clean delivery.
type Fault struct {
	// Drop loses the message entirely.
	Drop bool
	// Duplicate delivers the message a second time, with an independent
	// latency sample, so the copy can arrive before or after the original.
	Duplicate bool
	// Delay is added on top of the sampled base latency (both copies of a
	// duplicated message are delayed).
	Delay time.Duration
}

// FaultPlan decides the fate of every message a SimNetwork carries, and
// is its one fault-injection mechanism: a plan sees the endpoints and
// message type, so it can target specific links, directions or protocol
// layers. Implementations must
// draw all randomness from the rng they are given (the engine's
// deterministic source) and must not retain it.
//
// A plan is consulted once per message send; partitions (SimNetwork.
// Partition) are applied before the plan and do not reach it.
type FaultPlan interface {
	Apply(rng *rand.Rand, from, to Addr, typ string) Fault
}

// ProbFaults is the standard probabilistic FaultPlan: i.i.d. drops and
// duplicates, plus an optional uniform extra delay in [0, DelayJitter)
// modeling transient congestion. The zero value is a clean network.
type ProbFaults struct {
	// Drop is the probability a message is lost.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// DelayJitter, if positive, adds a uniform extra delay in
	// [0, DelayJitter) to every message — with a spread wider than the
	// base latency this forces reordering.
	DelayJitter time.Duration
}

// Apply implements FaultPlan.
func (p ProbFaults) Apply(rng *rand.Rand, _, _ Addr, _ string) Fault {
	var f Fault
	if p.Drop > 0 && rng.Float64() < p.Drop {
		f.Drop = true
		return f
	}
	if p.Dup > 0 && rng.Float64() < p.Dup {
		f.Duplicate = true
	}
	if p.DelayJitter > 0 {
		f.Delay = time.Duration(rng.Int63n(int64(p.DelayJitter)))
	}
	return f
}

// pairKey is an unordered endpoint pair, the unit of link partitioning.
type pairKey struct{ lo, hi Addr }

// makePair normalizes (a, b) so that Partition(a, b) and Partition(b, a)
// name the same link.
func makePair(a, b Addr) pairKey {
	if b < a {
		a, b = b, a
	}
	return pairKey{lo: a, hi: b}
}
