// Package datcheck is the repo's deterministic simulation-testing
// harness, in the FoundationDB tradition: full-protocol chord.Node +
// core.Node stacks run over transport.SimNetwork through randomized
// scenario schedules — crashes, graceful leaves, rejoins, protocol
// joins, link-level partitions and heals, and probabilistic message
// drop/duplication/delay via transport.FaultPlan. After every quiescent
// interval an invariant library checks the overlay (successor lists,
// fingers, lookup routing) and the aggregation layer (tree structure,
// §3 branching bounds, aggregate conservation against ground truth).
//
// Everything is derived from a single int64 seed: the same seed yields a
// byte-identical trace, so any CI failure is replayed locally with
//
//	go test ./internal/datcheck -run TestDatcheckReplay -datcheck.seed=N -v
//
// See DESIGN.md §8 for the scenario grammar and the full invariant list.
package datcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// spanRingCapacity bounds the failure artifact: enough recent rounds to
// see how the last updates travelled, small enough that a dumped trace
// stays readable.
const spanRingCapacity = 1024

// slowParentDelay is the extra one-way delay EvSlowParent adds toward its
// victim: well past the delivery layer's 150ms ack timeout, so every send
// toward the victim times out even though the victim is alive and
// processing.
const slowParentDelay = 400 * time.Millisecond

// targetedFaults layers the overload events' link-targeted behaviors over
// the probabilistic base plan. With both targets empty it draws exactly
// the random numbers ProbFaults would, so schedules without overload
// events are byte-identical to the historical plan.
type targetedFaults struct {
	base transport.ProbFaults
	// slowTo, when set, adds slowParentDelay to every request toward the
	// address (EvSlowParent). Replies toward it are not delayed: the
	// victim is slow to serve, not deaf — its own sends still complete,
	// so it stays coverable while its children's acks time out.
	slowTo transport.Addr
	// holeFrom, when set, drops every reply from the address while its
	// inbound traffic still lands (EvAckBlackhole).
	holeFrom transport.Addr
}

// Apply implements transport.FaultPlan.
func (p targetedFaults) Apply(rng *rand.Rand, from, to transport.Addr, typ string) transport.Fault {
	f := p.base.Apply(rng, from, to, typ)
	if p.slowTo != "" && to == p.slowTo && !strings.HasSuffix(typ, ":reply") {
		f.Delay += slowParentDelay
	}
	if p.holeFrom != "" && from == p.holeFrom && strings.HasSuffix(typ, ":reply") {
		f.Drop = true
	}
	return f
}

// burstTrees is how many extra aggregation trees EvBurstFanin starts on
// every running node, multiplying per-destination fan-in into the send
// queues.
const burstTrees = 3

// Result is everything one scenario run produced.
type Result struct {
	Seed     int64
	Scenario *Scenario
	// Violations from every settle point, in schedule order.
	Violations []Violation
	// Trace is the deterministic event-by-event log; same seed, same
	// bytes. It is the replay artifact.
	Trace []byte
	// Crashes and Partitions count events actually applied (not skipped),
	// for corpus coverage assertions.
	Crashes    int
	Partitions int
	// Settled records the root aggregate observed at each clean settle
	// point, in schedule order. The batched-vs-unbatched equivalence
	// test compares these across ablations: coalescing may reshape the
	// wire traffic but never what the root computes.
	Settled []core.Aggregate
}

// tighter folds a per-destination queue budget (0: none) into a batch
// flush threshold (0: core's default, which every generated budget is
// below): the smaller of the two flushes the queue.
func tighter(threshold, budget int) int {
	if budget > 0 && (threshold <= 0 || budget < threshold) {
		return budget
	}
	return threshold
}

// Run generates the scenario for seed and plays it to completion. A
// returned error means the harness itself could not set up (the initial
// clean cluster failed to converge) — never an invariant violation;
// those are in Result.Violations.
func Run(seed int64) (*Result, error) {
	return RunScenario(Generate(seed))
}

// RunScenario plays an explicit scenario, which is how the shrinker
// replays truncated schedules. The final settle is implicit: every run
// ends with heal + convergence + the full invariant suite.
func RunScenario(sc *Scenario) (*Result, error) {
	res := &Result{Seed: sc.Seed, Scenario: sc}
	var tr bytes.Buffer
	batch := "on"
	if sc.Batch.MaxElems == 1 {
		batch = "off"
	}
	selfmon := "off"
	if sc.SelfMon {
		selfmon = "on"
	}
	fmt.Fprintf(&tr, "datcheck seed=%d n=%d bits=%d scheme=%v slot=%v batch=%s selfmon=%s events=%d\n",
		sc.Seed, sc.N, sc.Bits, sc.Scheme, sc.Slot, batch, selfmon, len(sc.Events))
	// What the scenario sets of the overload policy; 0 is core's default.
	fmt.Fprintf(&tr, "overload qbytes=%d qelems=%d cooldown=%v\n",
		sc.QueueBytes, sc.QueueElems, sc.Overload.BreakerCooldown)

	// The observer's hooks never schedule events or draw engine
	// randomness, so attaching it keeps traces byte-identical per seed;
	// its span ring is dumped into the trace when invariants fail.
	observer := obs.NewObserver(spanRingCapacity)
	opts := cluster.Options{
		N:      sc.N,
		Bits:   sc.Bits,
		Seed:   sc.Seed,
		Scheme: sc.Scheme,
		Local: func(node int, _ time.Duration, _ ident.ID) (float64, bool) {
			return float64(node + 1), true
		},
		ChildTTLSlots: 3,
		Batch:         sc.Batch,
		Overload:      sc.Overload,
		Observer:      observer,
	}
	opts.Batch.MaxBytes = tighter(opts.Batch.MaxBytes, sc.QueueBytes)
	opts.Batch.MaxElems = tighter(opts.Batch.MaxElems, sc.QueueElems)
	if sc.SelfMon {
		// Same slot as the primary tree, so the settle quiesce gives the
		// monitoring trees as many rounds to converge as the audited tree.
		opts.SelfMon = obs.SelfMonConfig{Enable: true, Slot: sc.Slot}
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, fmt.Errorf("datcheck seed %d: setup: %w", sc.Seed, err)
	}
	key := c.Space.HashString("datcheck")
	latest, err := c.StartContinuousAll(key, sc.Slot)
	if err != nil {
		return nil, fmt.Errorf("datcheck seed %d: start continuous: %w", sc.Seed, err)
	}

	h := &harness{sc: sc, c: c, key: key, latest: latest, tr: &tr, res: res}
	for _, ev := range sc.Events {
		c.RunFor(ev.Gap)
		h.apply(ev)
	}
	if len(sc.Events) == 0 || sc.Events[len(sc.Events)-1].Kind != EvSettle {
		h.settle()
	}
	if len(res.Violations) > 0 {
		// Failure artifact: how the last aggregation rounds actually
		// travelled. Clean traces stay exactly as before.
		fmt.Fprintln(&tr, "-- recent aggregation spans --")
		observer.Spans.Dump(&tr)
	}
	fmt.Fprintf(&tr, "done violations=%d\n", len(res.Violations))
	res.Trace = tr.Bytes()
	return res, nil
}

type harness struct {
	sc     *Scenario
	c      *cluster.Cluster
	key    ident.ID
	latest func() (int64, core.Aggregate, bool)
	tr     *bytes.Buffer
	res    *Result

	// Live fault-plan composition: EvFaults sets the probabilistic base,
	// EvSlowParent/EvAckBlackhole set the targeted addresses, and settle
	// clears all three. installFaults reinstalls the composed plan after
	// any change.
	baseFaults transport.ProbFaults
	slowTo     transport.Addr
	holeFrom   transport.Addr
}

// installFaults pushes the current fault composition to the network. With
// no targeted addresses the bare probabilistic plan is installed — the
// exact value historical schedules installed, so their traces hold.
func (h *harness) installFaults() {
	if h.slowTo == "" && h.holeFrom == "" {
		h.c.Net.SetFaultPlan(h.baseFaults)
		return
	}
	h.c.Net.SetFaultPlan(targetedFaults{base: h.baseFaults, slowTo: h.slowTo, holeFrom: h.holeFrom})
}

func (h *harness) tracef(format string, args ...any) {
	fmt.Fprintf(h.tr, "t=%v %s\n", h.c.Engine.Now(), fmt.Sprintf(format, args...))
}

// apply plays one event. Invalid events (crash a dead node, rejoin a live
// one, join with a mismatched index) are skipped with a trace line rather
// than rejected: the shrinker removes events from the middle of a
// schedule, and the suffix must still be playable.
func (h *harness) apply(ev Event) {
	c := h.c
	switch ev.Kind {
	case EvCrash, EvLeave:
		if ev.A >= len(c.Chord) || !c.Chord[ev.A].Running() {
			h.tracef("skip %v (not running)", ev)
			return
		}
		if ev.Kind == EvCrash {
			c.Crash(ev.A)
			h.res.Crashes++
		} else {
			c.Leave(ev.A)
		}
		h.tracef("%v", ev)
	case EvRejoin:
		if ev.A >= len(c.Chord) {
			h.tracef("skip %v (no such node)", ev)
			return
		}
		h.rejoin(ev.A)
		h.tracef("%v", ev)
	case EvJoin:
		if ev.A != len(c.Chord) {
			h.tracef("skip %v (next index is %d)", ev, len(c.Chord))
			return
		}
		id := h.freshID(ev.A)
		idx := c.AddNode(id)
		if err := c.DAT[idx].StartContinuous(h.key, h.sc.Slot, nil); err != nil {
			h.tracef("join node=%d start continuous: %v", idx, err)
			return
		}
		h.enrollSelfMon(idx)
		h.tracef("%v id=%v", ev, id)
	case EvPartition:
		if ev.A >= len(c.Chord) || ev.B >= len(c.Chord) {
			h.tracef("skip %v (no such node)", ev)
			return
		}
		addrs := c.Addrs()
		c.Net.Partition(addrs[ev.A], addrs[ev.B])
		h.res.Partitions++
		h.tracef("%v", ev)
	case EvHeal:
		if ev.A >= len(c.Chord) || ev.B >= len(c.Chord) {
			h.tracef("skip %v (no such node)", ev)
			return
		}
		addrs := c.Addrs()
		c.Net.Heal(addrs[ev.A], addrs[ev.B])
		h.tracef("%v", ev)
	case EvFaults:
		h.baseFaults = transport.ProbFaults{Drop: ev.Drop, Dup: ev.Dup, DelayJitter: ev.Jitter}
		h.installFaults()
		h.tracef("%v", ev)
	case EvSettle:
		h.settle()
	case EvCrashParent, EvCrashRoot:
		idx := h.pickVictim(ev.Kind)
		if idx < 0 {
			h.tracef("skip %v (no victim)", ev)
			return
		}
		h.alignMidRound()
		c.Crash(idx)
		h.res.Crashes++
		h.tracef("%v victim=%d", ev, idx)
	case EvCrashMidFlush:
		idx := h.pickVictim(EvCrashParent)
		if idx < 0 {
			h.tracef("skip %v (no victim)", ev)
			return
		}
		h.alignFlushWindow()
		c.Crash(idx)
		h.res.Crashes++
		h.tracef("%v victim=%d", ev, idx)
	case EvSlowParent, EvAckBlackhole:
		idx := h.pickVictim(EvCrashParent)
		if idx < 0 {
			h.tracef("skip %v (no victim)", ev)
			return
		}
		addr := c.Addrs()[idx]
		if ev.Kind == EvSlowParent {
			h.slowTo = addr
		} else {
			h.holeFrom = addr
		}
		h.installFaults()
		h.tracef("%v victim=%d", ev, idx)
	case EvBurstFanin:
		enrolled := 0
		for t := 0; t < burstTrees; t++ {
			bkey := c.Space.HashString(fmt.Sprintf("datcheck-burst-%d", t))
			for _, i := range h.runningIdxs() {
				if c.DAT[i].Active(bkey) {
					continue
				}
				if err := c.DAT[i].StartContinuous(bkey, h.sc.Slot, nil); err != nil {
					h.tracef("burst tree=%d node=%d: %v", t, i, err)
					continue
				}
				enrolled++
			}
		}
		h.tracef("%v trees=%d enrollments=%d", ev, burstTrees, enrolled)
	case EvProbe:
		h.probeNoLostSubtrees()
	}
}

// pickVictim resolves a targeted crash against the cluster's current
// state: the root kind yields the running owner of the aggregation key;
// the parent kind yields the running non-root caching the most children
// (lowest index wins ties, so replays are deterministic), falling back
// to any running non-root when no caches have formed yet.
func (h *harness) pickVictim(kind EventKind) int {
	rootID := h.c.Ring().SuccessorOf(h.key)
	victim, best := -1, -1
	for i := range h.c.Chord {
		if !h.c.Chord[i].Running() {
			continue
		}
		isRoot := h.c.Chord[i].Self().ID == rootID
		if kind == EvCrashRoot {
			if isRoot {
				return i
			}
			continue
		}
		if isRoot {
			continue
		}
		if kids := len(h.c.DAT[i].ChildrenInfo(h.key)); kids > best {
			best, victim = kids, i
		}
	}
	return victim
}

// alignMidRound runs the clock to a quarter past the next slot boundary,
// so the following crash lands while holds are pending and sends are in
// flight — the window where lost updates actually hurt.
func (h *harness) alignMidRound() {
	now := time.Duration(h.c.Engine.Now())
	next := (now/h.sc.Slot + 1) * h.sc.Slot
	h.c.RunFor(next + h.sc.Slot/4 - now)
}

// alignFlushWindow runs the clock to just past the next slot boundary —
// inside the send machine's MaxDelay coalescing window, while the first
// senders of the round have updates queued in batches that have not yet
// hit the wire. A crash landing here kills whole coalesced datagrams at
// once, the worst case for batch-level recovery.
func (h *harness) alignFlushWindow() {
	now := time.Duration(h.c.Engine.Now())
	next := (now/h.sc.Slot + 1) * h.sc.Slot
	h.c.RunFor(next + 2*time.Millisecond - now)
}

// probeNoLostSubtrees is the mid-chaos invariant behind EvProbe: within
// five slots of the probe, some fresh root result must count at least
// every running node. Five slots accommodates a chained failover (a
// crashed bystander sitting on the re-route path costs a second retry
// budget) while staying far below what settle-time healing would need. Unlike the settle-time aggregate check this runs
// while the damage is live, so it is satisfied only if the delivery
// layer re-homed the orphaned subtrees rather than waiting for ring
// maintenance to repair the overlay.
//
// A live node under a targeted impairment (slow-parent, ack-blackhole)
// is exempt from the floor: an unackable peer flaps in and out of its
// parent's child cache by design — its parent adopts it on a half-open
// probe, then expires it when the next acks die — so demanding it in
// every fresh round would test the impairment, not the failover. Its
// descendants get no such slack: a re-homed subtree must be counted.
func (h *harness) probeNoLostSubtrees() {
	startSlot, _, started := h.latest()
	if !started {
		startSlot = -1
	}
	running := len(h.runningIdxs())
	floor := running - h.impairedRunning()
	step := h.sc.Slot / 5
	var lastCount uint64
	var lastSlot int64
	for elapsed := time.Duration(0); elapsed < 5*h.sc.Slot; elapsed += step {
		h.c.RunFor(step)
		s, agg, ok := h.latest()
		if !ok {
			continue
		}
		lastSlot, lastCount = s, agg.Count
		if s > startSlot && agg.Count >= uint64(floor) {
			if floor == running {
				h.tracef("probe ok slot=%d count=%d running=%d", s, agg.Count, running)
			} else {
				h.tracef("probe ok slot=%d count=%d running=%d floor=%d", s, agg.Count, running, floor)
			}
			return
		}
	}
	h.violate(Violation{Check: "no-lost-subtrees", Detail: fmt.Sprintf(
		"no fresh result covering all %d running nodes within 5 slots of the probe (last slot=%d count=%d, pre-probe slot=%d)",
		floor, lastSlot, lastCount, startSlot)})
}

// impairedRunning counts live nodes currently under a targeted
// impairment, for the probe's coverage floor.
func (h *harness) impairedRunning() int {
	if h.slowTo == "" && h.holeFrom == "" {
		return 0
	}
	addrs := h.c.Addrs()
	n := 0
	for _, i := range h.runningIdxs() {
		if addrs[i] == h.slowTo || addrs[i] == h.holeFrom {
			n++
		}
	}
	return n
}

// rejoin restarts node i with fresh state. If a previous join attempt is
// still limping along (node exists but never became Running), its
// endpoint is torn down first so the address is free.
func (h *harness) rejoin(i int) {
	if h.c.Chord[i].Running() {
		return
	}
	_ = h.c.Endpoint(i).Close()
	h.c.Rejoin(i)
	// Fresh core.Node: enroll it in the continuous aggregation. Ticks
	// before the join completes are harmless (ParentFor abstains).
	if err := h.c.DAT[i].StartContinuous(h.key, h.sc.Slot, nil); err != nil {
		h.tracef("rejoin node=%d start continuous: %v", i, err)
	}
	h.enrollSelfMon(i)
}

// enrollSelfMon starts the dat.load.* trees on a fresh node, so churned
// nodes contribute their own counters rather than only relaying. Nodes
// built by cluster.New were enrolled there; this covers joins and
// rejoins, whose core.Node state starts empty.
func (h *harness) enrollSelfMon(i int) {
	if !h.sc.SelfMon {
		return
	}
	for _, attr := range obs.SelfMonAttrs {
		key := h.c.SelfMonKey(attr)
		if h.c.DAT[i].Active(key) {
			continue
		}
		if err := h.c.DAT[i].StartContinuous(key, h.sc.Slot, nil); err != nil {
			h.tracef("node=%d start selfmon %s: %v", i, attr, err)
		}
	}
}

// freshID derives a deterministic identifier for joined node idx that is
// distinct from every current member.
func (h *harness) freshID(idx int) ident.ID {
	for salt := 0; ; salt++ {
		id := h.c.Space.HashString(fmt.Sprintf("datcheck-join-%d-%d-%d", h.sc.Seed, idx, salt))
		clash := false
		for _, n := range h.c.Chord {
			if n.Self().ID == id {
				clash = true
				break
			}
		}
		if !clash {
			return id
		}
	}
}

// settle ends a chaos phase: heal every link, drop the fault plan,
// re-kick any node that should be alive but is not, wait for the overlay
// to converge, let child caches expire and refill, then run the full
// invariant library. Violations are appended to the result and the trace.
func (h *harness) settle() {
	c := h.c
	c.Net.HealAll()
	c.Net.SetFaultPlan(nil)
	h.baseFaults = transport.ProbFaults{}
	h.slowTo, h.holeFrom = "", ""
	h.tracef("settle")

	// Re-kick dead nodes. A kick is a full protocol join with internal
	// retries; give each round time to complete before re-kicking.
	for attempt := 0; attempt < 5; attempt++ {
		missing := false
		for i := range c.Chord {
			if !c.Chord[i].Running() {
				missing = true
				h.rejoin(i)
			}
		}
		if !missing {
			break
		}
		c.RunFor(8 * time.Second)
	}
	for i := range c.Chord {
		if !c.Chord[i].Running() {
			h.violate(Violation{Check: "liveness", Detail: fmt.Sprintf("node %d failed to rejoin during settle", i)})
		}
	}

	if err := c.AwaitConverged(2 * time.Minute); err != nil {
		h.violate(Violation{Check: "convergence", Detail: err.Error()})
		// Without convergence every downstream check would re-report the
		// same wreckage; dump who is stuck and stop at the root cause.
		for _, line := range convergenceDiff(c) {
			h.tracef("  %s", line)
		}
		return
	}
	h.tracef("converged n=%d", len(h.runningIdxs()))

	// Quiesce past the child TTL so stale cache entries age out and the
	// root's result reflects the settled membership.
	c.RunFor(time.Duration(3+4) * h.sc.Slot)

	// Calls issued during the chaos phase can time out during the quiesce,
	// striking a healthy neighbor and transiently zeroing a finger until
	// fixFingers cycles back around; wait for that repair before auditing.
	if err := c.AwaitConverged(2 * time.Minute); err != nil {
		h.violate(Violation{Check: "convergence", Detail: "post-quiesce: " + err.Error()})
		for _, line := range convergenceDiff(c) {
			h.tracef("  %s", line)
		}
		return
	}

	k := &checker{c: c, ring: c.Ring(), key: h.key}
	k.checkRing()
	k.checkLookups()
	k.checkDAT(h.sc.Scheme)
	k.checkAggregate(h.latest, h.sc.Slot)
	for _, v := range k.out {
		h.violate(v)
	}
	if len(k.out) == 0 {
		slot, agg, _ := h.latest()
		h.res.Settled = append(h.res.Settled, agg)
		h.tracef("invariants ok slot=%d count=%d sum=%v", slot, agg.Count, agg.Sum)
	}
	if h.sc.SelfMon {
		h.checkSelfMon()
	}
	h.checkOverload()
}

// checkOverload audits the send queues' structural bound at a settle
// point: a node keeps one queue per peer and a queue that reaches
// Batch.MaxBytes is flushed in the same call, so bytes at rest stay below
// peers x MaxBytes with nothing policing them. The high-water mark is a
// lifetime maximum, so one audit covers the whole chaos phase. The totals
// land in the trace, so a seed's queueing and breaker behavior is part of
// its byte-identity.
func (h *harness) checkOverload() {
	maxBytes := tighter(h.sc.Batch.MaxBytes, h.sc.QueueBytes) // as RunScenario set it
	if maxBytes <= 0 {
		maxBytes = 1200 // core.BatchConfig's default
	}
	bound := len(h.c.Chord) * maxBytes
	var hiWater int
	var rejected, opens uint64
	ok := true
	for _, i := range h.runningIdxs() {
		st := h.c.DAT[i].OverloadStats()
		if st.HiWaterBytes > hiWater {
			hiWater = st.HiWaterBytes
		}
		rejected += st.Rejected
		opens += st.BreakerOpens
		if st.HiWaterBytes >= bound {
			h.violate(Violation{Check: "queue-bound", Detail: fmt.Sprintf(
				"node %d queue high-water %d reaches %d nodes x Batch.MaxBytes %d", i, st.HiWaterBytes, len(h.c.Chord), maxBytes)})
			ok = false
		}
	}
	if ok {
		h.tracef("overload ok hiwater=%d bound=%d rejected=%d breaker_opens=%d",
			hiWater, bound, rejected, opens)
	}
}

// checkSelfMon audits the dat.load.* self-monitoring trees at a settle
// point. Structure is covered by the primary tree's checks (same
// protocol, different rendezvous key); what is specific to the
// monitoring plane is conservation: every running node must be counted
// in the settled round, the order statistics must be coherent, and —
// because load counters are monotone, so each node's current Load()
// bounds whatever value it published earlier — the root's Sum and
// Max can never exceed what the counters currently read.
func (h *harness) checkSelfMon() {
	idxs := h.runningIdxs()
	for _, attr := range obs.SelfMonAttrs {
		slot, agg, ok := h.c.SelfMonLatest(attr)
		if !ok {
			h.violate(Violation{Check: "selfmon-missing", Detail: fmt.Sprintf(
				"tree %s has produced no root result", attr)})
			continue
		}
		bad := false
		if agg.Count != uint64(len(idxs)) {
			h.violate(Violation{Check: "selfmon-count", Detail: fmt.Sprintf(
				"tree %s count %d, running %d (slot %d)", attr, agg.Count, len(idxs), slot)})
			bad = true
		}
		if agg.Count > 0 {
			mean := agg.Sum / float64(agg.Count)
			if agg.Min < 0 || agg.Min > mean+1e-9 || mean > agg.Max+1e-9 {
				h.violate(Violation{Check: "selfmon-order", Detail: fmt.Sprintf(
					"tree %s min/mean/max %v/%v/%v not ordered (slot %d)", attr, agg.Min, mean, agg.Max, slot)})
				bad = true
			}
		}
		// Monotone-counter bound: published values are reads of counters
		// that only grow, so today's totals dominate any settled round.
		var curSum, curMax float64
		for _, i := range idxs {
			msgs, bytes := h.c.DAT[i].Load()
			v := float64(msgs)
			if attr == obs.LoadAttrBytes {
				v = float64(bytes)
			}
			curSum += v
			if v > curMax {
				curMax = v
			}
		}
		if agg.Sum > curSum {
			h.violate(Violation{Check: "selfmon-conservation", Detail: fmt.Sprintf(
				"tree %s settled sum %v exceeds current counter total %v (slot %d)", attr, agg.Sum, curSum, slot)})
			bad = true
		}
		if agg.Max > curMax {
			h.violate(Violation{Check: "selfmon-conservation", Detail: fmt.Sprintf(
				"tree %s settled max %v exceeds current counter max %v (slot %d)", attr, agg.Max, curMax, slot)})
			bad = true
		}
		if !bad {
			h.tracef("selfmon ok attr=%s slot=%d count=%d", attr, slot, agg.Count)
		}
	}
}

func (h *harness) violate(v Violation) {
	h.res.Violations = append(h.res.Violations, v)
	h.tracef("%v", v)
}

func (h *harness) runningIdxs() []int {
	var idxs []int
	for i, n := range h.c.Chord {
		if n.Running() {
			idxs = append(idxs, i)
		}
	}
	return idxs
}
