package datcheck

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
)

// EventKind enumerates the moves the scenario scheduler can make.
type EventKind int

// The scenario grammar (see DESIGN.md §8): a scenario is a flat sequence
// of timed events, punctuated by Settle events that heal the network,
// wait for convergence and run the invariant library. The harness always
// appends a final settle, so a truncated prefix of any scenario is itself
// a valid scenario — that is what makes shrinking sound.
const (
	// EvCrash fail-stops a node: maintenance stops, its endpoint goes
	// silent, and nobody is told.
	EvCrash EventKind = iota
	// EvLeave departs a node gracefully (it notifies its neighbors).
	EvLeave
	// EvRejoin brings a dead node back under its old identifier and
	// address with fresh state, via the real join protocol.
	EvRejoin
	// EvJoin adds a brand-new node (index A) through the join protocol.
	EvJoin
	// EvPartition severs the link between nodes A and B in both
	// directions.
	EvPartition
	// EvHeal restores the link between nodes A and B.
	EvHeal
	// EvFaults installs a probabilistic fault plan (drop/dup/jitter) on
	// the whole network.
	EvFaults
	// EvSettle ends a chaos phase: heal everything, clear the fault plan,
	// re-kick dead-but-wanted nodes, await convergence, check invariants.
	EvSettle
	// EvCrashParent fail-stops the mid-tree aggregation parent with the
	// most cached children, chosen at apply time, aligned mid-round so
	// in-flight holds and sends die with it. New kinds append here so
	// historical seeds keep their event encodings.
	EvCrashParent
	// EvCrashRoot fail-stops the node currently owning the aggregation
	// key (the tree root), chosen at apply time, aligned mid-round.
	EvCrashRoot
	// EvProbe runs the no-lost-subtrees check mid-chaos: within three
	// slots a fresh root result must count every running node — the
	// delivery layer's failover has to re-home orphans without waiting
	// for a settle.
	EvProbe
	// EvCrashMidFlush fail-stops the busiest aggregation parent, chosen
	// at apply time, aligned just past a slot boundary — inside the send
	// machine's coalescing window, so queued-but-unflushed batches die
	// with the victim and the delivery layer must recover every element.
	EvCrashMidFlush
	// EvSlowParent delays every request TOWARD the busiest aggregation
	// parent (chosen at apply time) far past the delivery layer's ack
	// timeout, without killing it. Children see pure ack timeouts against
	// a live peer — the canonical breaker-opening stimulus — and must
	// fail over, while the victim's own sends still complete so the tree
	// can keep counting it. Cleared at the next settle.
	EvSlowParent
	// EvAckBlackhole drops every reply FROM the chosen victim while its
	// inbound traffic still lands: callers burn their full retry budget
	// into a peer that is actually processing their updates. Without
	// breakers this is the worst-case wasted-retry amplifier; with them
	// the victim is isolated in O(1). Cleared at the next settle.
	EvAckBlackhole
	// EvBurstFanin enrolls every running node in extra aggregation trees
	// at once, spiking per-destination fan-in so the send queues actually
	// fill to their flush thresholds rather than merely having them.
	EvBurstFanin
)

// String names the kind for traces.
func (k EventKind) String() string {
	switch k {
	case EvCrash:
		return "crash"
	case EvLeave:
		return "leave"
	case EvRejoin:
		return "rejoin"
	case EvJoin:
		return "join"
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvFaults:
		return "faults"
	case EvSettle:
		return "settle"
	case EvCrashParent:
		return "parent-crash-mid-round"
	case EvCrashRoot:
		return "root-crash-mid-round"
	case EvProbe:
		return "probe"
	case EvCrashMidFlush:
		return "parent-crash-mid-flush"
	case EvSlowParent:
		return "slow-parent"
	case EvAckBlackhole:
		return "ack-blackhole"
	case EvBurstFanin:
		return "burst-fanin"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scheduled move. Gap is simulated time run before the event
// applies, so a scenario's wall layout is independent of how long each
// apply takes.
type Event struct {
	Kind EventKind
	Gap  time.Duration
	// A is the target node index (crash/leave/rejoin/join) or one end of
	// a link (partition/heal).
	A int
	// B is the other end of a link (partition/heal).
	B int
	// Drop/Dup/Jitter parameterize EvFaults.
	Drop, Dup float64
	Jitter    time.Duration
}

// String renders the event for traces; it must be deterministic.
func (e Event) String() string {
	switch e.Kind {
	case EvCrash, EvLeave, EvRejoin, EvJoin:
		return fmt.Sprintf("%v node=%d", e.Kind, e.A)
	case EvPartition, EvHeal:
		return fmt.Sprintf("%v a=%d b=%d", e.Kind, e.A, e.B)
	case EvFaults:
		return fmt.Sprintf("faults drop=%.3f dup=%.3f jitter=%v", e.Drop, e.Dup, e.Jitter)
	default:
		return e.Kind.String()
	}
}

// Scenario is a complete randomized schedule plus the cluster shape it
// runs against. Everything the harness does is derived from this value
// and nothing else, so Seed fully determines the run.
type Scenario struct {
	Seed   int64
	N      int
	Bits   uint
	Scheme core.Scheme
	Slot   time.Duration
	// Batch tunes the send machine. The zero value runs batching with
	// defaults (the shipping configuration); Batch.MaxElems 1 is the
	// one-datagram-per-update ablation the equivalence test compares
	// against.
	Batch core.BatchConfig
	// SelfMon runs the dat.load.* self-monitoring trees alongside the
	// primary aggregation and audits them at every settle. The zero value
	// is off, so historical seeds keep their exact schedules; the selfmon
	// equivalence test flips it on for paired runs.
	SelfMon bool
	// Overload tunes the per-peer circuit breakers. The zero value is
	// core's defaults; the overload-fault generator shortens the
	// cooldown. Every settle of every family audits the send queues'
	// structural bound (hi-water below nodes x Batch.MaxBytes).
	Overload core.OverloadConfig
	// QueueBytes and QueueElems are the overload-fault generator's tight
	// batch thresholds: RunScenario folds them into
	// Batch.MaxBytes/MaxElems (the smaller wins). Zero — every other
	// family — leaves Batch as it is.
	QueueBytes, QueueElems int
	Events                 []Event
}

// maxConcurrentDead bounds how many nodes may be down at once. The
// default successor list (length 4) tolerates three consecutive
// successor deaths; beyond that a ring can split unrecoverably and every
// invariant after it would report the same uninteresting wreckage.
const maxConcurrentDead = 3

// maxJoins bounds brand-new nodes per scenario.
const maxJoins = 3

// FaultSeedBase partitions the seed space: seeds at or above it derive
// their schedule from the delivery-fault generator (targeted mid-round
// parent and root crashes with in-chaos probes) instead of the general
// chaos generator. Seeds below it are byte-identical to what they
// always produced, so the historical corpus stays replayable.
const FaultSeedBase = 9_000_000_000

// BatchSeedBase partitions the seed space again: seeds at or above it
// derive their schedule from the batching-fault generator, which crashes
// send-machine holders inside the coalescing window. Seeds in
// [FaultSeedBase, BatchSeedBase) keep their historical delivery-fault
// schedules.
const BatchSeedBase = 10_000_000_000

// OverloadSeedBase partitions the seed space a third time: seeds at or
// above it derive their schedule from the overload-fault generator,
// which runs with tight queue budgets and breakers enabled and injects
// slow parents, ack blackholes and fan-in bursts. Seeds in
// [BatchSeedBase, OverloadSeedBase) keep their historical batching-fault
// schedules.
const OverloadSeedBase = 11_000_000_000

// Generate derives a scenario from a seed. The generator maintains a
// liveness model while scheduling so events are valid when generated
// (crash only alive nodes, rejoin only dead ones, never exceed the dead
// cap), and it guarantees at least one crash and one partition per
// scenario — the coverage the corpus test asserts.
func Generate(seed int64) *Scenario {
	if seed >= OverloadSeedBase {
		return generateOverloadFaults(seed)
	}
	if seed >= BatchSeedBase {
		return generateBatchFaults(seed)
	}
	if seed >= FaultSeedBase {
		return generateFaults(seed)
	}
	r := rand.New(rand.NewSource(seed))
	sc := &Scenario{
		Seed: seed,
		N:    8 + r.Intn(17), // 8..24
		Bits: 32,
		Slot: 500 * time.Millisecond,
	}
	if r.Intn(2) == 0 {
		sc.Scheme = core.Basic
	} else {
		sc.Scheme = core.BalancedLocal
	}

	alive := make([]bool, sc.N)
	for i := range alive {
		alive[i] = true
	}
	joins := 0
	dead := func() (idxs []int) {
		for i, a := range alive {
			if !a {
				idxs = append(idxs, i)
			}
		}
		return idxs
	}
	aliveIdxs := func() (idxs []int) {
		for i, a := range alive {
			if a {
				idxs = append(idxs, i)
			}
		}
		return idxs
	}
	gap := func() time.Duration {
		return 200*time.Millisecond + time.Duration(r.Intn(1300))*time.Millisecond
	}
	emit := func(e Event) {
		e.Gap = gap()
		sc.Events = append(sc.Events, e)
	}
	// open partitions, for heal events
	type pair struct{ a, b int }
	var open []pair

	emitPartition := func() {
		idxs := aliveIdxs()
		if len(idxs) < 2 {
			return
		}
		i := idxs[r.Intn(len(idxs))]
		j := idxs[r.Intn(len(idxs))]
		for j == i {
			j = idxs[r.Intn(len(idxs))]
		}
		open = append(open, pair{i, j})
		emit(Event{Kind: EvPartition, A: i, B: j})
	}
	emitCrash := func(kind EventKind) {
		if len(dead()) >= maxConcurrentDead {
			return
		}
		idxs := aliveIdxs()
		if len(idxs) <= 4 {
			return
		}
		i := idxs[r.Intn(len(idxs))]
		alive[i] = false
		emit(Event{Kind: kind, A: i})
	}

	phases := 2 + r.Intn(2)
	for p := 0; p < phases; p++ {
		if r.Float64() < 0.75 {
			emit(Event{
				Kind:   EvFaults,
				Drop:   r.Float64() * 0.06,
				Dup:    r.Float64() * 0.15,
				Jitter: time.Duration(r.Intn(8)) * time.Millisecond,
			})
		}
		if p == 0 {
			// Coverage floor: every scenario partitions and crashes.
			emitPartition()
			emitCrash(EvCrash)
		}
		steps := 3 + r.Intn(4)
		for s := 0; s < steps; s++ {
			switch roll := r.Float64(); {
			case roll < 0.20:
				emitCrash(EvCrash)
			case roll < 0.30:
				emitCrash(EvLeave)
			case roll < 0.50:
				if d := dead(); len(d) > 0 {
					i := d[r.Intn(len(d))]
					alive[i] = true
					emit(Event{Kind: EvRejoin, A: i})
				} else {
					emitPartition()
				}
			case roll < 0.60:
				if joins < maxJoins {
					idx := sc.N + joins
					joins++
					alive = append(alive, true)
					emit(Event{Kind: EvJoin, A: idx})
				} else {
					emitPartition()
				}
			case roll < 0.85:
				emitPartition()
			default:
				if len(open) > 0 {
					k := r.Intn(len(open))
					pr := open[k]
					open = append(open[:k], open[k+1:]...)
					emit(Event{Kind: EvHeal, A: pr.a, B: pr.b})
				} else {
					emitPartition()
				}
			}
		}
		// Settle ends the phase; every dead node is wanted back, so the
		// liveness model marks them alive again (the harness re-kicks
		// rejoins during settle).
		for _, i := range dead() {
			alive[i] = true
		}
		open = open[:0]
		emit(Event{Kind: EvSettle})
	}
	return sc
}

// generateFaults derives a delivery-fault scenario: three phases that
// respectively crash a mid-tree parent mid-round, crash the key root
// mid-round, and mix a partition with a random crash — each followed by
// an in-chaos no-lost-subtrees probe before the settle. Victims for the
// targeted crashes are chosen at apply time (the tree shape is a
// runtime property); each phase kills at most two nodes, safely under
// the concurrent-dead cap, and every settle revives the fallen.
func generateFaults(seed int64) *Scenario {
	r := rand.New(rand.NewSource(seed))
	sc := &Scenario{
		Seed: seed,
		N:    12 + r.Intn(13), // 12..24: deep enough for a real mid-tree parent
		Bits: 32,
		Slot: 500 * time.Millisecond,
	}
	if r.Intn(2) == 0 {
		sc.Scheme = core.Basic
	} else {
		sc.Scheme = core.BalancedLocal
	}
	gap := func() time.Duration {
		return 200*time.Millisecond + time.Duration(r.Intn(1300))*time.Millisecond
	}
	emit := func(e Event) {
		e.Gap = gap()
		sc.Events = append(sc.Events, e)
	}

	// Phase 1: kill the busiest aggregation parent mid-round; the probe
	// demands the orphans re-home in-slot, with no settle to help them.
	emit(Event{Kind: EvCrashParent})
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})

	// Phase 2: kill the root mid-round, optionally alongside a random
	// bystander crash, and demand a handover root serve the probe.
	if r.Float64() < 0.5 {
		emit(Event{Kind: EvCrash, A: r.Intn(sc.N)})
	}
	emit(Event{Kind: EvCrashRoot})
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})

	// Phase 3: a partition plus a targeted crash under the cap — the
	// coverage floor the corpus asserts (>=1 crash, >=1 partition) — then
	// heal before probing so the probe measures failover, not the
	// partition itself.
	a := r.Intn(sc.N)
	b := r.Intn(sc.N)
	for b == a {
		b = r.Intn(sc.N)
	}
	emit(Event{Kind: EvPartition, A: a, B: b})
	if r.Intn(2) == 0 {
		emit(Event{Kind: EvCrashParent})
	} else {
		emit(Event{Kind: EvCrashRoot})
	}
	emit(Event{Kind: EvHeal, A: a, B: b})
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})
	return sc
}

// generateBatchFaults derives a batching-fault scenario: three phases
// that crash send-machine holders inside the coalescing window — the
// instant where updates sit queued in unflushed batches. Phase 1 kills
// the busiest parent mid-flush; phase 2 kills the root mid-round while
// its children's batches are in flight (optionally with a bystander
// crash); phase 3 mixes a partition with a mid-flush crash for the
// corpus coverage floor. Every phase probes for lost subtrees while the
// damage is live, so the batch-level recovery (per-element ack fan-out,
// retry of whole coalesced sends) has to work without a settle.
func generateBatchFaults(seed int64) *Scenario {
	r := rand.New(rand.NewSource(seed))
	sc := &Scenario{
		Seed: seed,
		N:    12 + r.Intn(13), // 12..24: deep enough for a real mid-tree parent
		Bits: 32,
		Slot: 500 * time.Millisecond,
	}
	if r.Intn(2) == 0 {
		sc.Scheme = core.Basic
	} else {
		sc.Scheme = core.BalancedLocal
	}
	gap := func() time.Duration {
		return 200*time.Millisecond + time.Duration(r.Intn(1300))*time.Millisecond
	}
	emit := func(e Event) {
		e.Gap = gap()
		sc.Events = append(sc.Events, e)
	}

	// Phase 1: light drop/dup faults force batch retransmissions, then
	// the busiest parent dies with a coalescing window open.
	if r.Float64() < 0.75 {
		emit(Event{
			Kind:   EvFaults,
			Drop:   r.Float64() * 0.04,
			Dup:    r.Float64() * 0.10,
			Jitter: time.Duration(r.Intn(4)) * time.Millisecond,
		})
	}
	emit(Event{Kind: EvCrashMidFlush})
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})

	// Phase 2: kill the root mid-round — the children's coalesced
	// updates are queued or in flight toward it — and demand a handover
	// root serve the probe. Optionally a bystander dies too.
	if r.Float64() < 0.5 {
		emit(Event{Kind: EvCrash, A: r.Intn(sc.N)})
	}
	emit(Event{Kind: EvCrashRoot})
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})

	// Phase 3: a partition plus a mid-flush crash under the dead cap —
	// the coverage floor the corpus asserts (>=1 crash, >=1 partition) —
	// healed before probing so the probe measures batch recovery.
	a := r.Intn(sc.N)
	b := r.Intn(sc.N)
	for b == a {
		b = r.Intn(sc.N)
	}
	emit(Event{Kind: EvPartition, A: a, B: b})
	emit(Event{Kind: EvCrashMidFlush})
	emit(Event{Kind: EvHeal, A: a, B: b})
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})
	return sc
}

// generateOverloadFaults derives an overload-fault scenario: the cluster
// runs with deliberately tight batch thresholds and breakers armed, and
// three phases exercise the three
// overload stimuli. Phase 1 slows the busiest parent past the ack
// timeout under light background faults; phase 2 blackholes a victim's
// replies (the wasted-retry worst case), optionally with a bystander
// crash; phase 3 spikes fan-in with burst trees while a partition and a
// targeted parent crash supply the corpus coverage floor. Every phase
// probes for lost subtrees while the damage is live, and every settle
// additionally audits the queues' structural bound. The thresholds are
// randomized in a loose band, tight enough that bursts flush on size;
// settle-time aggregates still match the run whose breakers never open
// (TestDatcheckOverloadEquivalence).
func generateOverloadFaults(seed int64) *Scenario {
	r := rand.New(rand.NewSource(seed))
	sc := &Scenario{
		Seed: seed,
		N:    12 + r.Intn(13), // 12..24: deep enough for a real mid-tree parent
		Bits: 32,
		Slot: 500 * time.Millisecond,
	}
	if r.Intn(2) == 0 {
		sc.Scheme = core.Basic
	} else {
		sc.Scheme = core.BalancedLocal
	}
	sc.QueueElems = 6 + r.Intn(6)      // 6..11 elements per destination
	sc.QueueBytes = 600 + 50*r.Intn(8) // 600..950 bytes per destination
	// The retired global budget's draw, kept so every seed's event list
	// is unchanged.
	r.Intn(8)
	sc.Overload = core.OverloadConfig{
		// Half a slot: an opened breaker re-probes well inside the probe
		// window, so recovery is observable mid-chaos, and many cooldowns
		// fit into the settle quiesce.
		BreakerCooldown: sc.Slot / 2,
	}
	gap := func() time.Duration {
		return 200*time.Millisecond + time.Duration(r.Intn(1300))*time.Millisecond
	}
	emit := func(e Event) {
		e.Gap = gap()
		sc.Events = append(sc.Events, e)
	}

	// Phase 1: the busiest parent turns slow — alive, but every message
	// toward it arrives far past the ack timeout. Light drop/dup faults
	// keep retries in play; the probe demands orphans fail over around
	// the molasses rather than queue behind it.
	if r.Float64() < 0.75 {
		emit(Event{
			Kind:   EvFaults,
			Drop:   r.Float64() * 0.04,
			Dup:    r.Float64() * 0.10,
			Jitter: time.Duration(r.Intn(4)) * time.Millisecond,
		})
	}
	emit(Event{Kind: EvSlowParent})
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})

	// Phase 2: a victim's replies vanish while its inbound traffic still
	// lands. Breakers must stop the retry amplification; the probe runs
	// while the blackhole is live. Optionally a bystander dies too.
	emit(Event{Kind: EvAckBlackhole})
	if r.Float64() < 0.5 {
		emit(Event{Kind: EvCrash, A: r.Intn(sc.N)})
	}
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})

	// Phase 3: burst trees spike fan-in into the send queues, then a
	// partition plus a targeted parent crash — the coverage floor the
	// corpus asserts (>=1 crash, >=1 partition) — healed before probing.
	emit(Event{Kind: EvBurstFanin})
	a := r.Intn(sc.N)
	b := r.Intn(sc.N)
	for b == a {
		b = r.Intn(sc.N)
	}
	emit(Event{Kind: EvPartition, A: a, B: b})
	emit(Event{Kind: EvCrashParent})
	emit(Event{Kind: EvHeal, A: a, B: b})
	emit(Event{Kind: EvProbe})
	emit(Event{Kind: EvSettle})
	return sc
}

// Counts tallies the coverage-relevant events, for corpus assertions.
func (sc *Scenario) Counts() (crashes, partitions int) {
	for _, e := range sc.Events {
		switch e.Kind {
		case EvCrash, EvCrashParent, EvCrashRoot, EvCrashMidFlush:
			crashes++
		case EvPartition:
			partitions++
		}
	}
	return crashes, partitions
}
