package main

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
)

// Reference oracles: what a correct program must have produced, worked
// out from the generated inputs alone.

// countJudge is how strictly a workload's root rounds are held to
// "every live node contributes exactly one sample per round".
type countJudge int

const (
	// exactAlways: every round's Count is the live node count. For the
	// fault-free simulated ring, where nothing can excuse a miscount.
	exactAlways countJudge = iota
	// exactTypically: every tree's median Count is the live node count.
	// For the live fleet, whose 32 peers share one processor of a host that
	// now and then stalls for a second: socket buffers overflow, cached
	// child values expire (three 250 ms slots), live peers are evicted,
	// and roots count 1 or 33 until the ring has mended. A tree that
	// miscounts most of the time is wrong; one that miscounts during a
	// stall is a real-time protocol on a stalled host.
	exactTypically
	// invariantsOnly: under injected loss and crashes the protocol is
	// allowed to miss or double-count for a few slots.
	invariantsOnly
)

// roundSound checks what holds whatever happened on the way: a result
// is not empty, and the sum of Count samples that all lie in [Min, Max]
// lies in [Count·Min, Count·Max]. How far Count is from the live node
// count is accuracy, reported as core.count_abs_err_mean_pct and
// core.rounds_off_pct, and judged per workload by its countJudge.
func roundSound(agg core.Aggregate) bool {
	if agg.Count == 0 {
		return false
	}
	n := float64(agg.Count)
	slack := 1e-9 * math.Abs(agg.Sum) // float addition order
	return agg.Sum >= n*agg.Min-slack && agg.Sum <= n*agg.Max+slack
}

// offPct is how far, in percent of the live node count, a root round's
// Count may be off before core.rounds_off_pct counts it.
const offPct = 5

// opSample is one checked operation: when it completed (since the start
// of its window), its latency sample in ms, and how many ops it stands
// for (a root round stands for every update folded into it).
type opSample struct {
	at  time.Duration
	ms  float64
	ops float64
}

// roundLedger collects one entry per root round. Live workloads add
// from many goroutines.
type roundLedger struct {
	judge countJudge

	mu       sync.Mutex
	rounds   []opSample // ms is the age of the oldest sample at emission
	countErr []float64  // |Count-live|/live, percent
	unsound  int
	// inexact[tree] lists the rounds of a tree: true where Count was
	// not the live node count.
	inexact map[int][]bool
}

func (l *roundLedger) add(tree int, agg core.Aggregate, live int, at time.Duration, ageMs float64) {
	l.mu.Lock()
	l.rounds = append(l.rounds, opSample{at, ageMs, float64(agg.Count)})
	l.countErr = append(l.countErr, 100*math.Abs(float64(agg.Count)-float64(live))/float64(live))
	if !roundSound(agg) {
		l.unsound++
	}
	if l.inexact == nil {
		l.inexact = map[int][]bool{}
	}
	l.inexact[tree] = append(l.inexact[tree], agg.Count != uint64(live))
	l.mu.Unlock()
}

// failed applies the workload's countJudge. Caller holds l.mu.
func (l *roundLedger) failed() int {
	failed := l.unsound
	for _, rounds := range l.inexact {
		wrong := 0
		for _, w := range rounds {
			if w {
				wrong++
			}
		}
		switch l.judge {
		case exactAlways:
			failed += wrong
		case exactTypically:
			if 2*wrong > len(rounds) { // the tree's median round is wrong
				failed += wrong
			}
		}
	}
	return failed
}

// fill writes the verdict and the core layer's round statistics.
func (l *roundLedger) fill(out *outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out.attempted = len(l.rounds)
	out.failed = l.failed()
	ages := make([]float64, len(l.rounds))
	for i, r := range l.rounds {
		ages[i] = r.ms
	}
	out.m["core.result_age_p50_ms"] = percentile(ages, 50)
	out.m["core.result_age_p90_ms"] = percentile(ages, 90)
	out.m["core.result_age_p99_ms"] = percentile(ages, 99)
	out.m["core.count_abs_err_mean_pct"] = mean(l.countErr)
	off := 0
	for _, e := range l.countErr {
		if e > offPct {
			off++
		}
	}
	if len(l.countErr) > 0 {
		out.m["core.rounds_off_pct"] = 100 * float64(off) / float64(len(l.countErr))
	}
}

// same reports whether two ledgers of a deterministic run recorded the
// same rounds.
func (l *roundLedger) same(o *roundLedger) bool {
	if len(l.rounds) != len(o.rounds) || l.failed() != o.failed() {
		return false
	}
	for i := range l.rounds {
		if l.rounds[i] != o.rounds[i] {
			return false
		}
	}
	return true
}

// valueTable is the seeded cpu/mem reading of every peer in the
// discovery fleet; queryOracle answers a conjunctive range query from
// it as a bitmask of peer indices.
type valueTable struct{ cpu, mem []float64 }

type rangePred struct {
	attr   string
	lo, hi float64
}

func (t valueTable) expect(preds []rangePred) uint64 {
	var mask uint64
	for i := range t.cpu {
		ok := true
		for _, p := range preds {
			v := t.cpu[i]
			if p.attr == attrMem {
				v = t.mem[i]
			}
			if v < p.lo || v > p.hi {
				ok = false
			}
		}
		if ok {
			mask |= 1 << uint(i)
		}
	}
	return mask
}
