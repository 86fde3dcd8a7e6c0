package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/chord"
	"repro/internal/transport"
)

// This file is the overload-protection layer (DESIGN.md §14). The paper
// bounds per-node *tree* load (branching and height, §3) but says
// nothing about *transport* overload. Send-queue memory needs no
// mechanism: a destination queue is flushed the moment it reaches a batch
// threshold and after MaxDelay regardless, and ep.Call never blocks, so
// bytes at rest stay below peers x Batch.MaxBytes by construction. What
// is left to protect against is retry amplification — the delivery
// layer's retries multiply traffic exactly when a peer is slowest — so
// every attempt asks the peer-health record (chord/health.go, DESIGN.md
// §10) whether the peer is avoided as DAT parent: a persistently
// unresponsive parent is failed over in O(1) instead of per-slot retry
// budgets. The send machine reports each datagram's outcome to it.

// OverloadConfig holds the avoid-as-DAT-parent thresholds of the peer-
// health record (the "circuit breaker"). The zero value arms it;
// BreakerFailures at math.MaxInt32 is the pre-breaker protocol (no peer
// is ever avoided), the baseline the ablation and datcheck's
// equivalence test run against.
type OverloadConfig struct {
	// Enable is ignored: protection is always on. The field is kept only
	// until benchmark v2, because frozen perf/sim.go sets it in a
	// literal; nothing else may read or set it.
	Enable bool
	// BreakerFailures is how many consecutive datagrams to a peer that
	// time out, fail in transport or are wholly refused make it avoided
	// as DAT parent. Default 3.
	BreakerFailures int
	// BreakerCooldown is how long an avoided peer gets no DAT traffic
	// before one half-open probe; each failed probe doubles it, up to
	// 16x. The probe delay adds deterministic FNV jitter in
	// [0, cooldown/4) so co-located nodes de-phase their probes without
	// drawing from any RNG. Default 1s.
	BreakerCooldown time.Duration
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// ErrSendClosed answers an element enqueued after Close: a local
// decision, not evidence about the remote peer, so the callers neither
// retry nor strike — they stop instead of racing shutdown onto the wire.
var ErrSendClosed = errors.New("core: send machine closed")

// reportDAT feeds one datagram's outcome at to into the peer-health
// record; the send machine is its one caller.
func (n *Node) reportDAT(to transport.Addr, ev chord.Evidence, err error) {
	cfg := n.cfg.Overload
	n.fireBreaker(to, n.ch.Report(to, ev, err, cfg.BreakerFailures, cfg.BreakerCooldown))
}

// mayCarry asks the peer-health record whether DAT traffic may go to to
// now; admitting the half-open probe is an avoid transition.
func (n *Node) mayCarry(to transport.Addr) bool {
	ok, probe := n.ch.MayCarryDAT(to, true)
	if probe {
		n.fireBreaker(to, "half-open")
	}
	return ok
}

// fireBreaker reports an avoid transition, if any, to the Breaker hook.
func (n *Node) fireBreaker(to transport.Addr, state string) {
	if h := n.cfg.Obs.Breaker; h != nil && state != "" {
		h(to, state)
	}
}

// --- introspection ---

// OverloadStats is a point-in-time snapshot of the overload layer, the
// seam datcheck invariants and the /debug/overload page read.
type OverloadStats struct {
	// QueuedBytes and QueuedElems are the current totals across every
	// destination queue; HiWaterBytes is the largest QueuedBytes ever
	// left at rest by an enqueue (the structural bound made visible: it
	// stays below peers x Batch.MaxBytes).
	QueuedBytes  int
	QueuedElems  int
	HiWaterBytes int
	// Rejected counts enqueues refused with ErrSendClosed.
	Rejected uint64
	// BreakerOpens is the cumulative closed/half-open→open transition
	// count; BreakersOpen the number of peers currently isolated.
	BreakerOpens uint64
	BreakersOpen int
}

// OverloadStats snapshots the node's overload counters. Safe for
// concurrent use; cheap enough to poll per slot.
func (n *Node) OverloadStats() OverloadStats {
	var st OverloadStats
	sm := n.sm
	sm.mu.Lock()
	st.QueuedBytes = sm.totalBytes
	st.HiWaterBytes = sm.hiWater
	for _, q := range sm.queues {
		st.QueuedElems += len(q.elems)
	}
	st.Rejected = sm.rejected
	sm.mu.Unlock()
	_, st.BreakerOpens, st.BreakersOpen = n.ch.PeerHealth()
	return st
}

// QueueStat is one destination queue's depth and age, the slow-peer
// signal surfaced per destination.
type QueueStat struct {
	To    transport.Addr
	Elems int
	Bytes int
	// OldestAge is how long the queue's head element has waited.
	OldestAge time.Duration
}

// QueueStats snapshots every live destination queue, sorted by address
// so output derived from it is deterministic.
func (n *Node) QueueStats() []QueueStat {
	sm := n.sm
	now := n.clock.Now()
	sm.mu.Lock()
	out := make([]QueueStat, 0, len(sm.queues))
	for to, q := range sm.queues {
		out = append(out, QueueStat{To: to, Elems: len(q.elems), Bytes: q.bytes, OldestAge: now - q.firstAt})
	}
	sm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}

// WriteOverloadDebug renders the /debug/overload page: flush, avoid and
// eviction thresholds, queue totals, per-destination queue depth/age,
// and the peer-health record.
func (n *Node) WriteOverloadDebug(w io.Writer) {
	st := n.OverloadStats()
	cfg := n.cfg.Overload
	fmt.Fprintf(w, "flush: a queue at %dB or %d elems, or after %v; breaker: %d fails, %v cooldown; evict: %d strikes\n",
		n.sm.cfg.MaxBytes, n.sm.cfg.MaxElems, n.sm.cfg.MaxDelay, cfg.BreakerFailures, cfg.BreakerCooldown, chord.EvictStrikes)
	fmt.Fprintf(w, "queued: %dB in %d elems (hi-water %dB); rejected=%d\n",
		st.QueuedBytes, st.QueuedElems, st.HiWaterBytes, st.Rejected)
	fmt.Fprintf(w, "breakers: opens=%d open-now=%d\n", st.BreakerOpens, st.BreakersOpen)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "== destination queues ==")
	queues := n.QueueStats()
	if len(queues) == 0 {
		fmt.Fprintln(w, "(no queued traffic)")
	} else {
		fmt.Fprintf(w, "%-24s %8s %10s %12s\n", "dest", "elems", "bytes", "oldest")
		for _, q := range queues {
			fmt.Fprintf(w, "%-24s %8d %10d %12v\n", string(q.To), q.Elems, q.Bytes, q.OldestAge)
		}
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "== peer health ==")
	peers, _, _ := n.ch.PeerHealth()
	if len(peers) == 0 {
		fmt.Fprintln(w, "(no peers with recorded failures)")
		return
	}
	fmt.Fprintf(w, "%-24s %7s %-10s %6s %12s %-12s\n", "peer", "strikes", "avoid", "fails", "open-for", "evidence")
	for _, p := range peers {
		fmt.Fprintf(w, "%-24s %7d %-10s %6d %12v %-12s\n", string(p.Peer), p.Strikes, p.Avoid, p.Fails, p.OpenFor, p.Last)
	}
}
