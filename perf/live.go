package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dat "repro"
	"repro/internal/obs"
)

// The live workloads run a fleet of full dat.Peer stacks in this
// process over loopback UDP sockets: real sockets, real clocks, real
// locks, but no real link.

const (
	fleetPeers = 32
	faninTrees = 240
	faninSlot  = 250 * time.Millisecond
	// Faster than the LAN defaults so a fleet converges in about two
	// seconds; the same cadence then runs through the measured window.
	liveStabilize  = 100 * time.Millisecond
	liveFixFingers = 200 * time.Millisecond
	livePing       = 500 * time.Millisecond
	// liveAckTimeout replaces the delivery layer's 150 ms default. All
	// 32 peers share one processor with each other and the load generator,
	// so a stall of the host stalls every peer at once, which no real
	// deployment sees. At the default, a stall of a third of a second
	// runs out both delivery attempts everywhere: failure-detector
	// strikes, evictions of live peers, and a second or two of
	// reshuffled trees counting 1 or 33 instead of 32.
	liveAckTimeout = time.Second
	// fingerRounds fix rounds refresh a whole 32-entry finger table
	// (chord's default is 4 entries per round).
	fingerRounds = 8
	// joinSpread is the interval over which the peers join, evenly
	// spaced. A peer's clock starts when it joins, so the spacing fixes
	// every peer's slot phase: the same set of phases for every seed
	// (which peer sits where on the ring is what the seed decides), not
	// start-up noise.
	joinSpread = 2 * faninSlot

	attrCPU = "cpu"
	attrMem = "mem"
	cpuMax  = 100.0
	memMax  = 64.0
	// announceEvery is the write load beside the reads: every peer
	// re-registers both attributes this often.
	announceEvery = 2 * time.Second
	clients       = 2
)

// portBase maps a seed to the first of fleetPeers consecutive UDP
// ports, below the kernel's ephemeral range. A peer's ring identifier
// is the hash of its address, so the ports fix ring and tree shapes.
func portBase(seed int64) int {
	return 10000 + int(((seed%300)+300)%300)*64
}

// fleet is a converged ring of live peers.
type fleet struct {
	peers      []*dat.Peer
	observers  []*obs.Observer // one per peer; nil entries when untraced
	portsFixed bool
	epoch      time.Time // the benchmark epoch the sensors count from
}

func peerName(i int) string { return fmt.Sprintf("p%02d", i) }

// newFleet creates the peers at their offsets, joins them through peer
// 0 and waits for the finger tables to fill.
func newFleet(seed int64, traced bool, attrs []dat.Attribute) (*fleet, error) {
	f := &fleet{portsFixed: true, epoch: time.Now()}
	listen := func(i int) string {
		if f.portsFixed {
			return fmt.Sprintf("127.0.0.1:%d", portBase(seed)+i)
		}
		return "127.0.0.1:0"
	}
	for i := 0; i < fleetPeers; i++ {
		cfg := dat.PeerConfig{
			Name:       peerName(i),
			Attributes: attrs,
			Stabilize:  liveStabilize,
			FixFingers: liveFixFingers,
			Ping:       livePing,
			Delivery:   dat.DeliveryConfig{AckTimeout: liveAckTimeout},
		}
		if traced {
			cfg.Observer = obs.NewObserver(0)
		}
		f.observers = append(f.observers, cfg.Observer)
		time.Sleep(time.Until(f.epoch.Add(time.Duration(i) * joinSpread / fleetPeers)))
		cfg.Listen = listen(i)
		p, err := dat.NewPeer(cfg)
		if err != nil && f.portsFixed {
			// Someone else holds a seeded port: give up on seeded
			// identifiers for this fleet and say so in the output.
			f.portsFixed = false
			cfg.Listen = listen(i)
			p, err = dat.NewPeer(cfg)
		}
		if err != nil {
			f.close()
			return nil, err
		}
		f.peers = append(f.peers, p)
		if i == 0 {
			p.Create()
		} else if err := p.Join(f.peers[0].Addr()); err != nil {
			f.close()
			return nil, err
		}
	}
	time.Sleep(fingerRounds*liveFixFingers + 2*liveStabilize)
	return f, nil
}

// close crashes every peer; Close waits for the socket's read loop.
func (f *fleet) close() {
	for _, p := range f.peers {
		if err := closePeer(p); err != nil {
			fmt.Println("# closing peer:", err)
		}
	}
	f.peers = nil
}

// closePeer is Peer.Close with one known fault of the program turned
// into an error: rpcudp.Endpoint.Close stops the retransmit timer of
// every pending call, and a call that another goroutine registered but
// has not armed yet has none (nil dereference). By then the socket is
// closed, which is all the benchmark needs from a teardown, so the run
// goes on and says what happened.
func closePeer(p *dat.Peer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("Peer.Close panicked: %v", r)
		}
	}()
	return p.Close()
}

// sinceEpochUs is every sensor of the fan-in workload: "µs since the
// benchmark epoch", so a root result's Min is the read time of its
// oldest sample.
func (f *fleet) sinceEpochUs() float64 {
	return float64(time.Since(f.epoch).Nanoseconds()) / 1e3
}

// liveInterval is the grain at which a live window is cut: every time
// metric is the median over the intervals, so a second of host noise or
// a burst of collection moves one sample, not the result.
const liveInterval = 500 * time.Millisecond

// sampleCPU sleeps through d, whole intervals only, and returns the
// process CPU time each interval used.
func sampleCPU(d time.Duration) []time.Duration {
	n := int(d / liveInterval)
	if n < 1 {
		n = 1
	}
	out := make([]time.Duration, 0, n)
	start, prev := time.Now(), cpuTime()
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * liveInterval)))
		now := cpuTime()
		out = append(out, now-prev)
		prev = now
	}
	return out
}

// liveWindow is one measured window of a live fleet.
type liveWindow struct {
	window
	cpu []time.Duration // per interval
	ops []opSample
}

// samples cuts the window into its intervals and returns, per interval,
// what it measured of each time metric, and the ops the window completed.
func (w liveWindow) samples() (map[string][]float64, float64) {
	n := len(w.cpu)
	latencies := make([][]float64, n)
	ops := make([]float64, n)
	var total float64
	for _, s := range w.ops {
		if i := int(s.at / liveInterval); i >= 0 && i < n {
			latencies[i] = append(latencies[i], s.ms)
			ops[i] += s.ops
			total += s.ops
		}
	}
	out := map[string][]float64{}
	for i := range latencies {
		if ops[i] == 0 {
			continue
		}
		out["cpu_us_per_op"] = append(out["cpu_us_per_op"], float64(w.cpu[i].Nanoseconds())/1e3/ops[i])
		out["ops_per_s"] = append(out["ops_per_s"], ops[i]/liveInterval.Seconds())
		out["latency_p50_ms"] = append(out["latency_p50_ms"], percentile(latencies[i], 50))
	}
	return out, total
}

// faninRun is a converged fleet with every tree running.
type faninRun struct {
	f         *fleet
	tr        *tracer
	measure   int
	recording atomic.Bool
	started   time.Time // start of the measured window
	rounds    *roundLedger
	streak    []atomic.Int32 // per tree: consecutive root rounds that counted every peer
}

func newFaninRun(seed int64, traced bool, tr *tracer) (*faninRun, error) {
	f, err := newFleet(seed, traced, nil)
	if err != nil {
		return nil, err
	}
	r := &faninRun{f: f, tr: tr, measure: -1, rounds: &roundLedger{judge: exactTypically}, streak: make([]atomic.Int32, faninTrees)}
	sensor := func() (float64, bool) { return f.sinceEpochUs(), true }
	for t := 0; t < faninTrees; t++ {
		attr := treeAttr(t)
		onResult := func(_ int64, agg dat.Aggregate) { r.onResult(t, agg) }
		for _, p := range f.peers {
			p.AddSensor(attr, sensor)
			err := p.StartMonitor(attr, faninSlot, onResult)
			if err != nil {
				// An update of a peer already running this tree got
				// here first and enrolled p as a relay, without a
				// root callback. Start over with ours.
				p.StopMonitor(attr)
				err = p.StartMonitor(attr, faninSlot, onResult)
			}
			if err != nil {
				r.close()
				return nil, err
			}
		}
	}
	// Converged when every tree's root has counted the whole fleet for
	// stableSlots rounds in a row: successor chains left by the joins
	// keep untangling for a while, and every finger that moves makes a
	// subtree switch parents and a root miscount for a round or two.
	deadline := time.Now().Add(30 * time.Second)
	for !r.stable() {
		if time.Now().After(deadline) {
			r.close()
			return nil, errors.New("fleet did not converge: some tree never kept counting every peer")
		}
		time.Sleep(faninSlot / 2)
	}
	return r, nil
}

// stableSlots is two seconds of slots: ten finger-repair rounds.
const stableSlots = 8

// close stops every tree before it crashes the peers: Peer.Close leaves
// the trees' slot timers running, and 7680 of them ticking on dead
// peers would load the next fleet's processor. The pause lets updates
// in flight be acknowledged, so the sockets close idle.
func (r *faninRun) close() {
	for _, p := range r.f.peers {
		for t := 0; t < faninTrees; t++ {
			p.StopMonitor(treeAttr(t))
		}
	}
	time.Sleep(faninSlot)
	r.f.close()
}

func treeAttr(t int) string { return fmt.Sprintf("perf-tree-%d", t) }

func (r *faninRun) stable() bool {
	for i := range r.streak {
		if r.streak[i].Load() < stableSlots {
			return false
		}
	}
	return true
}

func (r *faninRun) onResult(tree int, agg dat.Aggregate) {
	if agg.Count == fleetPeers {
		r.streak[tree].Add(1)
	} else {
		r.streak[tree].Store(0)
	}
	if !r.recording.Load() {
		return
	}
	ageMs := (r.f.sinceEpochUs() - agg.Min) / 1e3
	r.rounds.add(tree, agg, fleetPeers, time.Since(r.started), ageMs)
	r.tr.instant(r.measure, "root-result", ageMs)
}

// run lets the protocol's own slot timers drive the fleet for d (open
// loop: nothing waits for anything) and returns what the window cost.
func (r *faninRun) run(d time.Duration) liveWindow {
	start := startWindow()
	r.started = start.at
	r.recording.Store(true)
	cpu := sampleCPU(d)
	r.recording.Store(false)
	r.rounds.mu.Lock()
	defer r.rounds.mu.Unlock()
	return liveWindow{start.stop(), cpu, r.rounds.rounds}
}

func runFanin(seed int64, seconds int, traced bool) (*outcome, error) {
	d := time.Duration(seconds) * time.Second / systems
	if traced {
		return runFaninTraced(systemSeed(seed, 0), d)
	}
	return medianOfSystems(seed, func(seed int64) (*outcome, error) {
		t0 := time.Now()
		r, err := newFaninRun(seed, false, nil)
		if err != nil {
			return nil, err
		}
		defer r.close()
		setup := time.Since(t0).Seconds()
		runtime.GC()
		w := r.run(d)
		out := &outcome{m: map[string]float64{}}
		r.rounds.fill(out)
		var ops float64
		out.samples, ops = w.samples()
		// The schedule fixes how many rounds an interval holds, so the
		// median interval would read 30720 to the digit; report what
		// the whole window delivered over the time it really took.
		out.samples["ops_per_s"] = []float64{ops / w.wall.Seconds()}
		out.samples["setup_s"] = []float64{setup}
		out.note("%d fleets of %d peers on loopback (not a real link), %d trees, %v slot, open loop offering %.0f updates/s for %v each; ports_fixed=%v",
			systems, fleetPeers, faninTrees, faninSlot, fleetPeers*faninTrees/faninSlot.Seconds(), d, r.f.portsFixed)
		out.note("latency is the wall age of the oldest sample in a root result; it depends on the peers' join offsets")
		return out, nil
	})
}

func runFaninTraced(seed int64, d time.Duration) (*outcome, error) {
	out := &outcome{m: map[string]float64{}}

	plain, err := newFaninRun(seed, false, nil)
	if err != nil {
		return nil, err
	}
	heap := liveHeap()
	pw := plain.run(d)
	plain.close()
	plainSamples, plainOps := pw.samples()

	ts := beginTrace()
	r, err := newFaninRun(seed, true, ts.tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := ts.startMeasure(r.f.observers); err != nil {
		return nil, err
	}
	r.measure = ts.measure
	tw := r.run(d)
	delta, perPeer, shares, err := ts.stopMeasure()
	if err != nil {
		return nil, err
	}

	r.rounds.fill(out)
	tracedSamples, ops := tw.samples()
	out.note("%d peers on loopback, %d trees, %v traced; %d root rounds", fleetPeers, faninTrees, d, out.attempted)
	m := out.m
	m["runtime.allocs_per_update"] = float64(pw.mallocs) / plainOps
	m["runtime.heap_bytes_per_node"] = float64(heap) / fleetPeers
	m["obs.overhead_pct"] = overheadPct(plainSamples, tracedSamples)
	m["perf.ports_fixed"] = b2f(r.f.portsFixed)
	m["rpcudp.datagrams_per_update"] = delta.total("dat_transport_messages_total", "") / ops
	m["rpcudp.bytes_per_update"] = delta.total("rpcudp_wire_bytes_total", `dir="tx"`) / ops
	slots := d.Seconds() / faninSlot.Seconds()
	m["chord.msgs_per_node_slot"] = delta.total("dat_transport_messages_total", `type="chord.`) / (fleetPeers * slots)
	m["core.msgs_per_node_slot"] = delta.total("dat_transport_messages_total", `type="dat.`) / (fleetPeers * slots)
	m["imbalance_factor"] = imbalance(perPeer)
	fillObserverCounts(m, delta)
	fillShares(m, shares)
	out.tr = ts.tr
	return out, nil
}

// overheadPct is what the hooks of a traced window added to the cost of
// an op, in percent of the plain window's.
func overheadPct(plain, traced map[string][]float64) float64 {
	p, t := median(plain["cpu_us_per_op"]), median(traced["cpu_us_per_op"])
	return 100 * (t - p) / p
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// discoveryRun is a converged fleet whose peers announce seeded cpu/mem
// readings to the MAAN directory.
type discoveryRun struct {
	f      *fleet
	values valueTable
	index  map[string]uint // peer name -> bit in the oracle's mask
}

func newDiscoveryRun(seed int64, traced bool) (*discoveryRun, error) {
	f, err := newFleet(seed, traced, []dat.Attribute{
		{Name: attrCPU, Min: 0, Max: cpuMax, Kind: dat.Numeric},
		{Name: attrMem, Min: 0, Max: memMax, Kind: dat.Numeric},
	})
	if err != nil {
		return nil, err
	}
	r := &discoveryRun{f: f, index: map[string]uint{}}
	rng := rand.New(rand.NewSource(seed ^ 0x6d61616e))
	for i, p := range f.peers {
		cpu, mem := rng.Float64()*cpuMax, rng.Float64()*memMax
		r.values.cpu = append(r.values.cpu, cpu)
		r.values.mem = append(r.values.mem, mem)
		r.index[peerName(i)] = uint(i)
		p.AddSensor(attrCPU, func() (float64, bool) { return cpu, true })
		p.AddSensor(attrMem, func() (float64, bool) { return mem, true })
		if err := p.Announce(announceEvery); err != nil {
			f.close()
			return nil, err
		}
	}
	// Converged when the directory has answered correctly for
	// stableBursts bursts in a row: every reading is found by a point
	// query from another peer, and half a second of the workload itself
	// has no wrong answer. Joins that land within one stabilization
	// period leave successor chains that take one round per joiner to
	// untangle; every pointer that moves hands a stretch of keys to a
	// new owner, and an entry sits at the old one until its producer
	// announces again — so ask for that instead of waiting out the
	// announce period. The bursts are also the warm-up (route caches,
	// socket buffers, pools).
	deadline := time.Now().Add(30 * time.Second)
	for streak, shift := 0, 1; streak < stableBursts; shift += 7 {
		if r.everyEntryFound(shift) {
			if _, st := r.load(seed+int64(shift), liveInterval, nil, -1); st.failed == 0 {
				streak++
				continue
			}
		}
		streak = 0
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("fleet did not converge: the directory kept giving wrong answers")
		}
		time.Sleep(liveStabilize)
		for _, p := range f.peers {
			if err := p.Announce(announceEvery); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	return r, nil
}

// stableBursts is two seconds of clean answers: every producer has
// announced once more since the last wrong one.
const stableBursts = 4

// everyEntryFound asks, for each peer's cpu and mem reading, the peer
// shift places further on for exactly that value.
func (r *discoveryRun) everyEntryFound(shift int) bool {
	for i := range r.f.peers {
		from := (i + shift) % fleetPeers
		cpu, mem := r.values.cpu[i], r.values.mem[i]
		if _, ok := r.query(from, []rangePred{{attrCPU, cpu, cpu}}); !ok {
			return false
		}
		if _, ok := r.query(from, []rangePred{{attrMem, mem, mem}}); !ok {
			return false
		}
	}
	return true
}

// query runs one FindResources call from the given peer and checks the
// answer against the oracle. It returns the result count.
func (r *discoveryRun) query(from int, preds []rangePred) (int, bool) {
	dp := make([]dat.Predicate, len(preds))
	for i, p := range preds {
		dp[i] = dat.Range(p.attr, p.lo, p.hi)
	}
	res, err := r.f.peers[from].FindResources(dp)
	if err != nil {
		return 0, false
	}
	var mask uint64
	for _, x := range res {
		bit, known := r.index[x.Name]
		if !known {
			return len(res), false
		}
		mask |= 1 << bit
	}
	return len(res), mask == r.values.expect(preds)
}

// queryStats is what the closed-loop clients saw.
type queryStats struct {
	queries []opSample
	results float64
	failed  int
}

// load runs the closed-loop clients for d: each draws a peer, a range
// width from {1, 10, 50}% of the cpu range and, half the time, a second
// predicate on mem, and issues its next query when the previous one has
// answered.
func (r *discoveryRun) load(seed int64, d time.Duration, tr *tracer, parent int) (liveWindow, queryStats) {
	per := make([]queryStats, clients)
	start := startWindow()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*clients + int64(c)))
			widths := []float64{0.01, 0.10, 0.50}
			st := &per[c]
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The ranges of one width tile the attribute: every
				// reading lies in exactly one of them, so the mean
				// walk is n·width peers on any ring. With lo drawn
				// freely, readings in the middle are covered more
				// often than those at the ends, and what the mix
				// costs follows where on the ring a fleet's peers
				// happen to sit: a tenth and more between seeds.
				w := widths[rng.Intn(len(widths))]
				lo := w * cpuMax * float64(rng.Intn(int(math.Round(1/w))))
				w *= cpuMax
				preds := []rangePred{{attrCPU, lo, lo + w}}
				if rng.Intn(2) == 0 {
					lo := rng.Float64() * memMax / 2
					preds = append(preds, rangePred{attrMem, lo, lo + memMax/2})
				}
				from := rng.Intn(fleetPeers)
				id := tr.begin(parent, "find-resources")
				t0 := time.Now()
				n, ok := r.query(from, preds)
				end := time.Now()
				st.queries = append(st.queries, opSample{end.Sub(start.at), float64(end.Sub(t0).Nanoseconds()) / 1e6, 1})
				tr.end(id, float64(n))
				st.results += float64(n)
				if !ok {
					st.failed++
				}
			}
		}()
	}
	cpu := sampleCPU(d)
	close(stop)
	wg.Wait()
	var all queryStats
	for _, st := range per {
		all.queries = append(all.queries, st.queries...)
		all.results += st.results
		all.failed += st.failed
	}
	return liveWindow{start.stop(), cpu, all.queries}, all
}

func runDiscovery(seed int64, seconds int, traced bool) (*outcome, error) {
	d := time.Duration(seconds) * time.Second / systems
	if traced {
		return runDiscoveryTraced(systemSeed(seed, 0), d)
	}
	return medianOfSystems(seed, func(seed int64) (*outcome, error) {
		t0 := time.Now()
		r, err := newDiscoveryRun(seed, false)
		if err != nil {
			return nil, err
		}
		defer r.f.close()
		setup := time.Since(t0).Seconds()
		runtime.GC()
		w, st := r.load(seed, d, nil, -1)
		out := &outcome{attempted: len(st.queries), failed: st.failed}
		out.samples, _ = w.samples()
		out.samples["setup_s"] = []float64{setup}
		out.note("%d fleets of %d peers on loopback (not a real link), %d closed-loop clients for %v each; ports_fixed=%v",
			systems, fleetPeers, clients, d, r.f.portsFixed)
		out.note("latency is the wall time of one FindResources call")
		return out, nil
	})
}

func runDiscoveryTraced(seed int64, d time.Duration) (*outcome, error) {
	plain, err := newDiscoveryRun(seed, false)
	if err != nil {
		return nil, err
	}
	heap := liveHeap()
	pw, pst := plain.load(seed, d, nil, -1)
	plain.f.close()
	plainSamples, plainOps := pw.samples()

	ts := beginTrace()
	r, err := newDiscoveryRun(seed, true)
	if err != nil {
		return nil, err
	}
	defer r.f.close()
	if err := ts.startMeasure(r.f.observers); err != nil {
		return nil, err
	}
	tw, st := r.load(seed, d, ts.tr, ts.measure)
	delta, _, shares, err := ts.stopMeasure()
	if err != nil {
		return nil, err
	}

	tracedSamples, ops := tw.samples()
	out := &outcome{m: map[string]float64{}, attempted: len(st.queries), failed: st.failed + pst.failed}
	out.note("%d peers on loopback, %d closed-loop clients, %v traced; %d queries", fleetPeers, clients, d, len(st.queries))
	m := out.m
	m["runtime.allocs_per_query"] = float64(pw.mallocs) / plainOps
	m["runtime.heap_bytes_per_node"] = float64(heap) / fleetPeers
	m["obs.overhead_pct"] = overheadPct(plainSamples, tracedSamples)
	m["perf.ports_fixed"] = b2f(r.f.portsFixed)
	m["rpcudp.datagrams_per_query"] = delta.total("dat_transport_messages_total", "") / ops
	m["rpcudp.bytes_per_query"] = delta.total("rpcudp_wire_bytes_total", `dir="tx"`) / ops
	m["chord.lookups_per_query"] = delta.total("chord_lookups_total", "") / ops
	m["maan.msgs_per_query"] = delta.total("dat_transport_messages_total", `type="maan.`) / ops
	m["maan.results_per_query_mean"] = st.results / ops
	lat := make([]float64, len(st.queries))
	for i, q := range st.queries {
		lat[i] = q.ms
	}
	m["maan.query_p99_ms"] = percentile(lat, 99)
	fillObserverCounts(m, delta)
	fillShares(m, shares)
	out.tr = ts.tr
	return out, nil
}
