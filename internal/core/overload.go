package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

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
// the delivery layer gets per-peer circuit breakers: a persistently
// unresponsive parent is failed over in O(1) instead of per-slot retry
// budgets. Every decision is deterministic (draw-free FNV jitter) so
// datcheck traces stay byte-identical per seed.

// OverloadConfig tunes the per-peer circuit breakers every delivery
// attempt goes through. The zero value is armed breakers;
// BreakerFailures at math.MaxInt32 is the pre-breaker protocol (no peer
// is ever isolated), the baseline the ablation and datcheck's
// equivalence test run against.
type OverloadConfig struct {
	// Enable is ignored: protection is always on. The field is kept only
	// until benchmark v2, because frozen perf/sim.go sets it in a
	// literal; nothing else may read or set it.
	Enable bool
	// BreakerFailures is how many consecutive delivery failures
	// (ack timeouts, transport errors, or refusals) open a peer's
	// circuit breaker. Default 3.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects traffic
	// before admitting one half-open probe. The actual probe delay adds
	// deterministic FNV jitter in [0, cooldown/4) so co-located nodes
	// de-phase their probes without drawing from any RNG. Default 1s.
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

// --- per-peer circuit breakers ---

type breakerState uint8

const (
	brClosed breakerState = iota
	brOpen
	brHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one peer's failure-isolation state. closed→open after
// BreakerFailures consecutive failures; open→half-open once the jittered
// cooldown elapses, admitting exactly one probe; the probe's outcome
// closes or instantly reopens. Entries only exist for peers with at
// least one recorded failure — success deletes the entry.
type breaker struct {
	state      breakerState
	fails      int           // consecutive failures while closed
	reopens    int           // consecutive failed probes since first opening
	openedAt   time.Duration // clock reading when the breaker last opened
	probeAfter time.Duration // jittered cooldown before the half-open probe
}

// breakerAllows reports whether a delivery attempt at to may proceed,
// transitioning open→half-open (and admitting the probe) once the
// cooldown elapses. Call it before arming any timers for the attempt.
func (n *Node) breakerAllows(to transport.Addr) bool {
	now := n.clock.Now()
	n.brMu.Lock()
	br := n.breakers[to]
	if br == nil || br.state == brClosed {
		n.brMu.Unlock()
		return true
	}
	if br.state == brOpen && now-br.openedAt >= br.probeAfter {
		br.state = brHalfOpen
		n.brMu.Unlock()
		n.fireBreaker(to, "half-open")
		return true // this attempt is the probe
	}
	n.brMu.Unlock()
	return false
}

// breakerOpenNow is the read-only check the failover path uses to skip
// its courtesy detach: true only for a breaker that is open with its
// cooldown still running. Unlike breakerAllows it never admits a probe.
func (n *Node) breakerOpenNow(to transport.Addr) bool {
	now := n.clock.Now()
	n.brMu.Lock()
	br := n.breakers[to]
	open := br != nil && br.state == brOpen && now-br.openedAt < br.probeAfter
	n.brMu.Unlock()
	return open
}

// breakerFailure records one delivery failure at to. suspect tells
// whether the failure is evidence of peer death (ack timeout, transport
// error) as opposed to a live refusal; an opening breaker feeds the
// failure detector only in the former case — refusal proves liveness.
func (n *Node) breakerFailure(to transport.Addr, suspect bool) {
	now := n.clock.Now()
	n.brMu.Lock()
	if n.breakers == nil {
		n.breakers = make(map[transport.Addr]*breaker)
	}
	br := n.breakers[to]
	if br == nil {
		br = &breaker{}
		n.breakers[to] = br
	}
	opened := false
	switch br.state {
	case brHalfOpen:
		opened = true // failed probe: reopen instantly, back off the next one
		br.reopens++
	case brClosed:
		br.fails++
		opened = br.fails >= n.cfg.Overload.BreakerFailures
	case brOpen:
		// Late events for attempts sent before the breaker opened; the
		// breaker is already isolating the peer.
	}
	if opened {
		br.state = brOpen
		br.fails = 0
		br.openedAt = now
		n.brOpens++
		br.probeAfter = n.breakerProbeDelay(to, n.brOpens, br.reopens)
	}
	n.brMu.Unlock()
	if opened {
		n.fireBreaker(to, "open")
		if suspect && n.ch != nil {
			n.ch.Suspect(to) // breaker state feeds the failure detector
		}
	}
}

// breakerSuccess records a successful delivery at to: the breaker (if
// any) closes and its consecutive-failure count resets.
func (n *Node) breakerSuccess(to transport.Addr) {
	n.brMu.Lock()
	br := n.breakers[to]
	tripped := br != nil && br.state != brClosed
	if br != nil {
		delete(n.breakers, to)
	}
	n.brMu.Unlock()
	if tripped {
		n.fireBreaker(to, "closed")
	}
}

// breakerProbeDelay is the jittered cooldown armed when a breaker
// opens: BreakerCooldown plus deterministic FNV jitter in
// [0, cooldown/4). opens is the node-wide cumulative open count, so
// successive opens of the same peer probe at different phases without
// drawing from any RNG. reopens counts consecutive failed probes and
// doubles the cooldown each time (capped at 16x): a peer that keeps
// failing its probes earns exponentially rarer ones, so a long gray
// failure costs O(log) probe datagrams instead of O(slots).
func (n *Node) breakerProbeDelay(to transport.Addr, opens uint64, reopens int) time.Duration {
	d := n.cfg.Overload.BreakerCooldown
	if reopens > 0 {
		shift := reopens
		if shift > 4 {
			shift = 4
		}
		d *= time.Duration(int64(1) << shift)
	}
	quarter := uint64(d / 4)
	if quarter == 0 {
		return d
	}
	return d + time.Duration(fnvUint64(fnvAddr(fnvAddr(fnvOffset, n.ep.Addr()), to), opens)%quarter)
}

func (n *Node) fireBreaker(to transport.Addr, state string) {
	if h := n.cfg.Obs.Breaker; h != nil {
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
	n.brMu.Lock()
	st.BreakerOpens = n.brOpens
	for _, br := range n.breakers {
		if br.state != brClosed {
			st.BreakersOpen++
		}
	}
	n.brMu.Unlock()
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

// WriteOverloadDebug renders the /debug/overload page: flush and
// breaker thresholds, queue totals, per-destination queue depth/age, and
// per-peer breaker state.
func (n *Node) WriteOverloadDebug(w io.Writer) {
	st := n.OverloadStats()
	cfg := n.cfg.Overload
	fmt.Fprintf(w, "flush: a queue at %dB or %d elems, or after %v; breaker: %d fails, %v cooldown\n",
		n.sm.cfg.MaxBytes, n.sm.cfg.MaxElems, n.sm.cfg.MaxDelay, cfg.BreakerFailures, cfg.BreakerCooldown)
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
	fmt.Fprintln(w, "== circuit breakers ==")
	now := n.clock.Now()
	type brRow struct {
		to transport.Addr
		br breaker
	}
	n.brMu.Lock()
	rows := make([]brRow, 0, len(n.breakers))
	for to, br := range n.breakers {
		rows = append(rows, brRow{to: to, br: *br})
	}
	n.brMu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].to < rows[j].to })
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no peers with recorded failures)")
		return
	}
	fmt.Fprintf(w, "%-24s %-10s %6s %12s\n", "peer", "state", "fails", "open-for")
	for _, r := range rows {
		openFor := time.Duration(0)
		if r.br.state != brClosed {
			openFor = now - r.br.openedAt
		}
		fmt.Fprintf(w, "%-24s %-10s %6d %12v\n", string(r.to), r.br.state.String(), r.br.fails, openFor)
	}
}
