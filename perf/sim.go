package main

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// simSpec is the shape of one simulator workload. Everything a run does
// follows from the spec and the seed.
type simSpec struct {
	name  string
	n     int
	trees int
	slot  time.Duration
	// churn selects the second regime: default (fast) maintenance, the
	// self-monitoring plane, the overload layer, 1% loss, and a seeded
	// crash every churnEvery slots with the rejoin rejoinAfter slots
	// later. Without it maintenance is stretched to the slot and
	// nothing fails (the experiments.Scale shape).
	churn bool
	// slotsPerSecond sizes the measured window: --seconds times this
	// many slots, so that the window takes about --seconds of host time
	// at the commit that defined the benchmark. The amount of simulated
	// work is fixed by the arguments, never by the host's speed, so the
	// simulated statistics repeat exactly per seed.
	slotsPerSecond float64
}

const (
	churnEvery  = 4
	rejoinAfter = 2
	lossProb    = 0.01
)

var simSpecs = map[string]simSpec{
	wlRing4k:     {name: wlRing4k, n: 4096, trees: 1, slot: 2 * time.Second, slotsPerSecond: 10},
	wlTreesChurn: {name: wlTreesChurn, n: 512, trees: 32, slot: 2 * time.Second, churn: true, slotsPerSecond: 4},
}

func (s simSpec) slots(seconds int) int {
	return int(math.Round(float64(seconds) * s.slotsPerSecond))
}

func (s simSpec) warmupSlots() int { return int(ident.CeilLog2(uint64(s.n))) + 4 }

// simRun is one built and warmed-up cluster plus the round ledger its
// root callbacks write.
type simRun struct {
	spec simSpec
	c    *cluster.Cluster
	keys []ident.ID
	// resultFrom[i] is node i's root callback for every tree.
	resultFrom []func(slot int64, agg core.Aggregate)
	churn      *rand.Rand

	tr      *tracer
	measure int // span the root-result instants hang under

	live int   // nodes currently up
	down []int // crashed nodes awaiting their rejoin, oldest first

	recording bool
	rounds    *roundLedger
}

// newSimRun builds the cluster, starts every tree on every node and
// runs the warm-up slots. observer and tr are nil for untraced runs.
func newSimRun(spec simSpec, seed int64, observer *obs.Observer, tr *tracer) (*simRun, error) {
	r := &simRun{spec: spec, tr: tr, measure: -1, live: spec.n,
		churn: rand.New(rand.NewSource(seed)), rounds: &roundLedger{judge: exactAlways}}
	if spec.churn {
		r.rounds.judge = invariantsOnly
	}
	opts := cluster.Options{
		N: spec.n,
		// cluster treats seed 0 as 1; keep distinct seeds distinct.
		Seed:     seed<<1 | 1,
		Observer: observer,
		// Every sensor reads "virtual µs since the epoch", so a root
		// result's Min is the read time of its oldest sample.
		Local: func(_ int, now time.Duration, _ ident.ID) (float64, bool) {
			return float64(now / time.Microsecond), true
		},
	}
	if spec.churn {
		opts.SelfMon = obs.SelfMonConfig{Enable: true}
		opts.Overload = core.OverloadConfig{Enable: true}
	} else {
		opts.StabilizeEvery = spec.slot
		opts.FixFingersEvery = 4 * spec.slot
		opts.PingEvery = 2 * spec.slot
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	r.c = c
	r.resultFrom = make([]func(int64, core.Aggregate), spec.n)
	for i := range r.resultFrom {
		r.resultFrom[i] = func(_ int64, agg core.Aggregate) { r.onResult(i, agg) }
	}
	for t := 0; t < spec.trees; t++ {
		key := c.Space.HashString(treeAttr(t))
		r.keys = append(r.keys, key)
		for i := range c.DAT {
			if err := c.DAT[i].StartContinuous(key, spec.slot, r.resultFrom[i]); err != nil {
				return nil, err
			}
		}
	}
	if spec.churn {
		c.Net.SetDropProb(lossProb)
	}
	c.RunFor(time.Duration(spec.warmupSlots()) * spec.slot)
	return r, nil
}

// onResult is the root callback of every tree on node i: it stamps the
// emission time itself and hands the round to the oracle. A node that
// is still joining believes itself alone and so root of everything;
// only a result from a node in the ring is one a consumer could read.
func (r *simRun) onResult(i int, agg core.Aggregate) {
	if !r.recording || !r.c.Chord[i].Running() {
		return
	}
	now := time.Duration(r.c.Engine.Now())
	ageMs := (float64(now/time.Microsecond) - agg.Min) / 1000
	r.rounds.add(0, agg, r.live, now, ageMs)
	r.tr.instant(r.measure, "root-result", ageMs)
}

// simWindow is the measured part of a simulator run.
type simWindow struct {
	window
	fired       uint64
	queueLenSum float64
	slotMs      []float64 // host wall time of each simulated slot
	slotCPUUs   []float64 // process CPU time of each simulated slot
}

// run advances the cluster by the given number of slots, applying the
// churn schedule, and returns what that cost.
func (r *simRun) run(slots int) simWindow {
	r.recording = true
	var w simWindow
	firedStart := r.c.Engine.Fired()
	start := startWindow()
	for s := 0; s < slots; s++ {
		if r.spec.churn {
			r.applyChurn(s)
		}
		id := r.tr.begin(r.measure, "slot")
		before, t0, cpu0 := r.c.Engine.Fired(), time.Now(), cpuTime()
		r.c.RunFor(r.spec.slot)
		w.slotMs = append(w.slotMs, float64(time.Since(t0).Nanoseconds())/1e6)
		w.slotCPUUs = append(w.slotCPUUs, float64((cpuTime()-cpu0).Nanoseconds())/1e3)
		r.tr.end(id, float64(r.c.Engine.Fired()-before))
		w.queueLenSum += float64(r.c.Engine.Len())
	}
	w.window = start.stop()
	w.fired = r.c.Engine.Fired() - firedStart
	r.recording = false
	return w
}

// applyChurn crashes one seeded victim every churnEvery slots and
// rejoins the oldest victim rejoinAfter slots later, re-enrolling it in
// every tree (a rejoined node holds fresh protocol state).
func (r *simRun) applyChurn(s int) {
	switch s % churnEvery {
	case 0:
		victim := r.churn.Intn(r.spec.n)
		for !r.c.Chord[victim].Running() {
			victim = (victim + 1) % r.spec.n
		}
		r.c.Crash(victim)
		// A crashed process runs no timers; the simulator's Crash only
		// silences chord and the endpoint, so stop the trees too.
		for _, key := range r.keys {
			r.c.DAT[victim].StopContinuous(key)
		}
		for _, attr := range obs.SelfMonAttrs {
			r.c.DAT[victim].StopContinuous(r.c.SelfMonKey(attr))
		}
		r.down = append(r.down, victim)
		r.live--
	case rejoinAfter:
		if len(r.down) == 0 {
			return
		}
		i := r.down[0]
		r.down = r.down[1:]
		r.c.Rejoin(i)
		r.live++
		for _, key := range r.keys {
			if err := r.c.DAT[i].StartContinuous(key, r.spec.slot, r.resultFrom[i]); err != nil {
				panic(err) // a fresh node has no active keys
			}
		}
		if err := r.c.KickSelfMon(); err != nil {
			panic(err)
		}
	}
}

// msgTap counts simulated deliveries by protocol and, for the DAT's
// own requests, by receiving node.
type msgTap struct {
	index      map[transport.Addr]int32
	total      uint64
	chord, dat uint64
	datRecv    []uint64 // non-reply dat.* deliveries per node
}

func newMsgTap(addrs []transport.Addr) *msgTap {
	t := &msgTap{index: make(map[transport.Addr]int32, len(addrs)), datRecv: make([]uint64, len(addrs))}
	for i, a := range addrs {
		t.index[a] = int32(i)
	}
	return t
}

// Message implements transport.Tap.
func (t *msgTap) Message(_, to transport.Addr, typ string, _ bool) {
	t.total++
	switch {
	case strings.HasPrefix(typ, "chord."):
		t.chord++
	case strings.HasPrefix(typ, "dat."):
		t.dat++
		if !strings.HasSuffix(typ, ":reply") {
			if i, ok := t.index[to]; ok {
				t.datRecv[i]++
			}
		}
	}
}

// imbalance is max/mean of the per-node counts (paper Fig. 8b).
func imbalance(counts []uint64) float64 {
	var sum, max uint64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(counts)) / float64(sum)
}

// runSim runs one simulator workload. Untraced it reports the
// end-to-end metrics; traced it reports the per-layer ones.
func runSim(spec simSpec, seed int64, seconds int, traced bool) (*outcome, error) {
	slots := spec.slots(seconds) / systems
	if slots < 1 {
		slots = 1
	}
	if traced {
		return runSimTraced(spec, systemSeed(seed, 0), slots)
	}
	return medianOfSystems(seed, func(seed int64) (*outcome, error) {
		t0 := time.Now()
		r, err := newSimRun(spec, seed, nil, nil)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		runtime.GC() // start every window at the same collector phase
		w := r.run(slots)
		out := &outcome{m: map[string]float64{}}
		r.rounds.fill(out)
		// One sample per slot, not totals over the window: a burst of
		// host noise or a collection cycle then moves a few samples,
		// not the median.
		n := float64(spec.n)
		out.samples = map[string][]float64{"setup_s": {setup}}
		for i, ms := range w.slotMs {
			out.samples["cpu_us_per_op"] = append(out.samples["cpu_us_per_op"], w.slotCPUUs[i]/n)
			out.samples["ops_per_s"] = append(out.samples["ops_per_s"], n/(ms/1e3))
			out.samples["latency_p50_ms"] = append(out.samples["latency_p50_ms"], ms)
		}
		out.note("%d systems of %d nodes, %d trees, each %d measured slots of %v virtual time and %d events",
			systems, spec.n, spec.trees, slots, spec.slot, w.fired)
		out.note("latency is the host time to simulate one slot")
		return out, nil
	})
}

// runSimTraced runs a short untraced pass and the same pass with the
// observer, the tap, the profiler and the span recorder attached.
func runSimTraced(spec simSpec, seed int64, slots int) (*outcome, error) {
	ops := float64(spec.n) * float64(slots)
	out := &outcome{m: map[string]float64{}}

	plain, err := newSimRun(spec, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	heap := liveHeap()
	pw := plain.run(slots)
	plainRounds := plain.rounds
	plain = nil

	ts := beginTrace()
	observer := obs.NewObserver(0)
	r, err := newSimRun(spec, seed, observer, ts.tr)
	if err != nil {
		return nil, err
	}
	tap := newMsgTap(r.c.Addrs())
	r.c.Net.SetTap(tap)
	dropped, duplicated := r.c.Net.Dropped(), r.c.Net.Duplicated()
	if err := ts.startMeasure([]*obs.Observer{observer}); err != nil {
		return nil, err
	}
	r.measure = ts.measure
	tw := r.run(slots)
	delta, _, shares, err := ts.stopMeasure()
	if err != nil {
		return nil, err
	}

	r.rounds.fill(out)
	// The hooks must not perturb the simulation: same events, same
	// rounds, or the traced numbers describe a different run.
	if tw.fired != pw.fired || !r.rounds.same(plainRounds) {
		out.failed = out.attempted
		out.note("TRACED RUN DIVERGED: %d events traced vs %d untraced", tw.fired, pw.fired)
	}
	out.note("%d nodes, %d trees, %d slots traced; %d events both traced and untraced", spec.n, spec.trees, slots, tw.fired)

	m := out.m
	m["sim.events_per_s"] = float64(pw.fired) / pw.wall.Seconds()
	m["sim.events_per_node_slot"] = float64(pw.fired) / ops
	m["sim.queue_len_mean"] = pw.queueLenSum / float64(slots)
	m["runtime.allocs_per_node_slot"] = float64(pw.mallocs) / ops
	m["runtime.heap_bytes_per_node"] = float64(heap) / float64(spec.n)
	m["obs.overhead_pct"] = 100 * (float64(tw.cpu) - float64(pw.cpu)) / float64(pw.cpu)
	m["transport.dropped"] = float64(r.c.Net.Dropped() - dropped)
	m["transport.duplicated"] = float64(r.c.Net.Duplicated() - duplicated)
	m["sim_datagrams_per_node_slot"] = float64(tap.total) / ops
	m["imbalance_factor"] = imbalance(tap.datRecv)
	m["chord.msgs_per_node_slot"] = float64(tap.chord) / ops
	m["core.msgs_per_node_slot"] = float64(tap.dat) / ops
	var hiWater int
	for _, d := range r.c.DAT {
		if hw := d.OverloadStats().HiWaterBytes; hw > hiWater {
			hiWater = hw
		}
	}
	m["core.queue_hiwater_bytes"] = float64(hiWater)
	fillObserverCounts(m, delta)
	fillShares(m, shares)
	out.tr = ts.tr
	return out, nil
}

// fillObserverCounts reads the counts the obs.Observer hooks kept
// during the traced window.
func fillObserverCounts(m map[string]float64, d promSample) {
	m["chord.suspects"] = d.total("chord_suspects_total", "")
	m["chord.evictions"] = d.total("chord_evictions_total", "")
	m["core.updates_applied"] = d.total("dat_updates_total", `kind="applied`)
	m["core.updates_rejected"] = d.total("dat_updates_total", `kind="rejected`)
	m["core.retries"] = d.total("dat_update_retries_total", "")
	m["core.failovers"] = d.total("dat_parent_failovers_total", "")
	m["core.root_handovers"] = d.total("dat_root_handovers_total", "")
	if flushes := d.total("dat_batch_elems_per_flush_count", ""); flushes > 0 {
		m["core.batch_elems_per_flush_mean"] = d.total("dat_batch_elems_per_flush_sum", "") / flushes
	}
	m["core.shed_total"] = d.total("dat_shed_total", "")
	m["core.breaker_opens"] = d.total("dat_breaker_transitions_total", `state="open"`)
	m["rpcudp.retransmits"] = d.total("dat_transport_retransmits_total", "")
}

// fillShares lays the folded profile out as the *.cpu_share metrics.
func fillShares(m map[string]float64, shares map[string]float64) {
	for _, l := range layers {
		m[l+".cpu_share"] = shares[l]
	}
	m["runtime.gc_share"] = shares["runtime.gc"]
	m["runtime.sched_share"] = shares["runtime.sched"]
	m["runtime.syscall_share"] = shares["runtime.syscall"]
	m["perf.cpu_share"] = shares["perf"]
	m["other.cpu_share"] = shares["other"]
}
