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
// nothing about *transport* overload: unbounded send queues pin memory
// behind a stalled parent, and the delivery layer's retries amplify
// traffic exactly when a peer is slowest. Here the send machine's queues
// (each already bounded by the batch thresholds, which flush it) get a
// global byte budget with priority load-shedding (control > primary
// updates > selfmon), and the
// delivery layer gets per-peer circuit breakers so a persistently
// unresponsive parent is failed over in O(1) instead of per-slot retry
// budgets. Degradation is always explicit: a shed or refused update
// marks the tree's next aggregate Degraded — counts are never silently
// wrong — and every decision is deterministic (draw-free FNV jitter,
// sorted victim selection) so datcheck traces stay byte-identical per
// seed.

// OverloadConfig tunes the overload-protection layer every send goes
// through. The zero value is the default budgets and armed breakers;
// budgets and BreakerFailures at math.MaxInt32 are the pre-overload
// protocol (nothing is ever shed, refused or isolated), the baseline
// the ablation and datcheck's equivalence test run against.
type OverloadConfig struct {
	// Enable is ignored: protection is always on. The field is kept only
	// until benchmark v2, because frozen perf/sim.go sets it in a
	// literal; nothing else may read or set it.
	Enable bool
	// MaxTotalBytes bounds the sum of all destination queues' estimated
	// bytes. Admitting an element over this budget first evicts
	// strictly-lower-priority queued elements (oldest first), then
	// refuses the element itself with ErrOverload. Control traffic is
	// never refused and evicts nobody: over the budget it is admitted
	// and its destination queue flushed at once. Default 262144.
	MaxTotalBytes int
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
	if c.MaxTotalBytes <= 0 {
		c.MaxTotalBytes = 262144
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// Typed admission errors. The send machine hands them to the enqueued
// callback instead of silently dropping it; the delivery layer converts
// them into immediate local degradation (the tree's next aggregate is
// marked Degraded) rather than retrying into the overload.
var (
	// ErrOverload reports an element refused because the global queue
	// budget is exhausted and no lower-priority victim could make room.
	ErrOverload = errors.New("core: send queues over budget")
	// ErrSendClosed reports an element enqueued after Close; the callers
	// convert it into degradation instead of racing shutdown.
	ErrSendClosed = errors.New("core: send machine closed")
)

// isAdmissionErr reports err is one of the typed admission errors — a
// local decision, not evidence about the remote peer.
func isAdmissionErr(err error) bool {
	return errors.Is(err, ErrOverload) || errors.Is(err, ErrSendClosed)
}

// msgClass is the shedding-priority lattice: higher values survive
// longer. Shedding drops selfmon first, primary updates next, and never
// control traffic (detaches and handover updates keep the protocol's
// bookkeeping coherent; losing one corrupts child caches or strands
// rootship).
type msgClass uint8

const (
	classSelfMon msgClass = iota // dat.load.* monitoring traffic: shed first
	classPrimary                 // ordinary aggregate updates: shed under pressure, surfaces as Degraded
	classControl                 // detach/handover protocol control: never shed
	numClasses
)

// classLabel renders a class for metrics and hooks.
func classLabel(c msgClass) string {
	switch c {
	case classControl:
		return "control"
	case classPrimary:
		return "primary"
	default:
		return "selfmon"
	}
}

// classify assigns one queued element its shedding class. selfMonKeys
// is immutable after NewNode, so the read is lock-free.
func (n *Node) classify(el *BatchElem) msgClass {
	if el.Kind == batchKindDetach {
		return classControl
	}
	if el.Update.Handover || el.Update.FailedRoot != "" {
		return classControl
	}
	if n.selfMonKeys[el.Update.Key] {
		return classSelfMon
	}
	return classPrimary
}

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
	// left at rest by an enqueue (the bounded-memory proof: it never
	// exceeds MaxTotalBytes).
	QueuedBytes  int
	QueuedElems  int
	HiWaterBytes int
	// Shed counts elements dropped or refused, by class label
	// ("selfmon", "primary", "control" — the last must stay zero).
	Shed map[string]uint64
	// ShedBytes is the estimated bytes those elements would have sent.
	ShedBytes uint64
	// Rejected counts incoming enqueues refused with a typed error
	// (ErrOverload or ErrSendClosed).
	Rejected uint64
	// BreakerOpens is the cumulative closed/half-open→open transition
	// count; BreakersOpen the number of peers currently isolated.
	BreakerOpens uint64
	BreakersOpen int
}

// OverloadStats snapshots the node's overload counters. Safe for
// concurrent use; cheap enough to poll per slot.
func (n *Node) OverloadStats() OverloadStats {
	st := OverloadStats{Shed: make(map[string]uint64, numClasses)}
	sm := n.sm
	sm.mu.Lock()
	st.QueuedBytes = sm.totalBytes
	st.HiWaterBytes = sm.hiWater
	for _, q := range sm.queues {
		st.QueuedElems += len(q.elems)
	}
	for c, k := range sm.shed {
		st.Shed[classLabel(msgClass(c))] = k
	}
	st.ShedBytes, st.Rejected = sm.shedBytes, sm.rejected
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
		qs := QueueStat{To: to, Elems: len(q.elems), Bytes: q.bytes}
		if len(q.times) > 0 {
			qs.OldestAge = now - q.times[0]
		}
		out = append(out, qs)
	}
	sm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}

// WriteOverloadDebug renders the /debug/overload page: budgets, queue
// and shed totals, per-destination queue depth/age, and per-peer
// breaker state.
func (n *Node) WriteOverloadDebug(w io.Writer) {
	st := n.OverloadStats()
	cfg := n.cfg.Overload
	fmt.Fprintf(w, "budgets: total=%dB; breaker: %d fails, %v cooldown\n",
		cfg.MaxTotalBytes, cfg.BreakerFailures, cfg.BreakerCooldown)
	fmt.Fprintf(w, "queued: %dB in %d elems (hi-water %dB)\n", st.QueuedBytes, st.QueuedElems, st.HiWaterBytes)
	fmt.Fprintf(w, "shed: selfmon=%d primary=%d control=%d (%dB); rejected=%d\n",
		st.Shed["selfmon"], st.Shed["primary"], st.Shed["control"], st.ShedBytes, st.Rejected)
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
