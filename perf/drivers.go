package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/maan"
	"repro/internal/obs"
	"repro/internal/rpcudp"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Layer drivers: each times the public functions of one layer in
// isolation, so a change to that layer has a number of its own that no
// other layer can move. Inputs are fixed (the workload seed does not
// reach them): a driver number compares commits, not seeds.

// sink keeps the compiler from discarding a measured call.
var sink uint64

// timing is what timeOp measured.
type timing struct{ ns, allocs float64 }

// timeOp calls fn in batches until the budget is spent and returns the
// median batch's ns per call and the mean allocations per call.
func timeOp(budget time.Duration, batch int, fn func()) timing {
	for i := 0; i < batch; i++ { // warm caches and pools
		fn()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var perOp []float64
	start := time.Now()
	for time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	runtime.ReadMemStats(&ms)
	return timing{median(perOp), float64(ms.Mallocs-mallocs) / float64(len(perOp)*batch)}
}

// driver is one timed function: it fills its metrics into m.
type driver struct {
	name string
	run  func(budget time.Duration, m map[string]float64) error
}

var drivers = []driver{
	{"ident", driveIdent},
	{"wire", driveWire},
	{"sim", driveSim},
	{"transport", driveTransport},
	{"rpcudp", driveRPCUDP},
	{"chord-ring", driveChordRing},
	{"chord-core-cluster", driveCluster},
	{"chord-maintenance", driveMaintenance},
	{"core-trees", driveCoreTrees},
	{"core-update-path", driveUpdatePath},
	{"maan", driveMaan},
	{"obs", driveObs},
}

// runLayerDrivers runs every driver, each timed function for the given
// budget, recording one span per driver under the tracer's root.
func runLayerDrivers(budget time.Duration, m map[string]float64, tr *tracer) error {
	all := tr.begin(-1, "layer-drivers")
	for _, d := range drivers {
		id := tr.begin(all, "driver:"+d.name)
		if err := d.run(budget, m); err != nil {
			return fmt.Errorf("driver %s: %w", d.name, err)
		}
		tr.end(id, 0)
	}
	tr.end(all, 0)
	return nil
}

func driverRing(n int) *chord.Ring {
	space := ident.New(32)
	ring, err := chord.NewRing(space, chord.RandomIDs(space, n, rand.New(rand.NewSource(7))))
	if err != nil {
		panic(err) // fixed input
	}
	return ring
}

func driveIdent(budget time.Duration, m map[string]float64) error {
	space := ident.New(32)
	rng := rand.New(rand.NewSource(3))
	ids := make([]ident.ID, 1024)
	for i := range ids {
		ids[i] = space.Wrap(rng.Uint64())
	}
	i := 0
	m["ident.between_ns"] = timeOp(budget, 4096, func() {
		if space.Between(ids[i&1023], ids[(i+1)&1023], ids[(i+2)&1023]) {
			sink++
		}
		i++
	}).ns
	return nil
}

func sampleUpdate() core.UpdateMsg {
	return core.UpdateMsg{
		Key: 0x42, Epoch: 812,
		Agg:   core.Aggregate{Sum: 812.5, SumSq: 66430.25, Count: 64, Min: 0.25, Max: 31.5, Coverage: 0.984},
		Nodes: 64, Height: 3, Slot: int64(15 * time.Second),
		Sender: chord.NodeRef{ID: 0xBEEF, Addr: "10.0.0.7:9001"},
		Trace:  0xDEADBEEF, SentAt: 1700000000123456789, Seq: 4,
	}
}

func driveWire(budget time.Duration, m map[string]float64) error {
	codec := wire.Compact{}
	update := wire.Envelope{Kind: 2, Seq: 99, Type: core.MsgUpdate, From: "10.0.0.7:9001", Payload: sampleUpdate()}
	var batch core.BatchMsg
	for i := 0; i < 32; i++ {
		um := sampleUpdate()
		um.Key = ident.ID(i)
		batch.Elems = append(batch.Elems, core.BatchElem{Kind: 1 /* update */, Update: um})
	}
	batchEnv := wire.Envelope{Kind: 2, Seq: 100, Type: core.MsgBatch, From: "10.0.0.7:9001", Payload: batch}
	for _, c := range []struct {
		env      *wire.Envelope
		enc, dec string
		single   bool
	}{
		{&update, "wire.encode_update_ns", "wire.decode_update_ns", true},
		{&batchEnv, "wire.encode_batch32_ns", "wire.decode_batch32_ns", false},
	} {
		data, fallback, err := codec.Append(nil, c.env)
		if err != nil || fallback {
			return fmt.Errorf("encode %s: fallback=%v err=%v", c.env.Type, fallback, err)
		}
		buf := make([]byte, 0, 2*len(data))
		m[c.enc] = timeOp(budget, 256, func() {
			out, _, err := codec.Append(buf[:0], c.env)
			if err != nil {
				panic(err) // encoded fine a moment ago
			}
			sink += uint64(len(out))
		}).ns
		dec := timeOp(budget, 256, func() {
			env, _, err := codec.Decode(data)
			if err != nil {
				panic(err)
			}
			sink += env.Seq
		})
		m[c.dec] = dec.ns
		if c.single {
			m["wire.update_bytes"] = float64(len(data))
			m["wire.decode_update_allocs"] = dec.allocs
		}
	}
	return nil
}

func driveSim(budget time.Duration, m map[string]float64) error {
	fn := func() {}
	for _, c := range []struct {
		name    string
		pending int
	}{{"sim.schedule_fire_ns", 64}, {"sim.schedule_fire_deep_ns", 50_000}} {
		e := sim.NewEngine(1)
		for i := 0; i < c.pending; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		m[c.name] = timeOp(budget, 4096, func() {
			e.Schedule(time.Millisecond, fn)
			e.Step()
		}).ns
	}
	return nil
}

func driveTransport(budget time.Duration, m map[string]float64) error {
	engine := sim.NewEngine(1)
	net := transport.NewSimNetwork(engine, transport.SimConfig{})
	a, b := net.Endpoint("sim/a"), net.Endpoint("sim/b")
	b.Handle(func(r *transport.Request) {
		sink++
		r.Reply(r.Payload) // no-op for the one-way sends
	})
	var payload any = &struct{ v int }{v: 42}
	var sendErr error
	send := timeOp(budget, 1024, func() {
		if err := a.Send(b.Addr(), "bench.ping", payload); err != nil {
			sendErr = err
		}
		engine.Run()
	})
	if sendErr != nil {
		return sendErr
	}
	m["transport.simnet_send_ns"] = send.ns
	m["transport.simnet_send_allocs"] = send.allocs
	cb := func(any, error) { sink++ }
	m["transport.simnet_call_ns"] = timeOp(budget, 1024, func() {
		a.Call(b.Addr(), "bench.echo", payload, cb)
		engine.Run()
	}).ns
	return nil
}

func driveRPCUDP(budget time.Duration, m map[string]float64) error {
	server, err := rpcudp.Listen("127.0.0.1:0", rpcudp.Config{})
	if err != nil {
		return err
	}
	defer server.Close()
	server.Handle(func(r *transport.Request) { r.Reply(chord.PingResp{}) })
	client, err := rpcudp.Listen("127.0.0.1:0", rpcudp.Config{})
	if err != nil {
		return err
	}
	defer client.Close()
	done := make(chan error, 1)
	cb := func(_ any, err error) { done <- err }
	var callErr error
	call := timeOp(budget, 64, func() {
		client.Call(server.Addr(), chord.MsgPing, chord.PingReq{}, cb)
		if err := <-done; err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		return callErr
	}
	m["rpcudp.call_rtt_ns"] = call.ns
	m["rpcudp.call_allocs"] = call.allocs
	var sendErr error
	m["rpcudp.send_ns"] = timeOp(budget, 64, func() {
		if err := client.Send(server.Addr(), chord.MsgPing, chord.PingReq{}); err != nil {
			sendErr = err
		}
	}).ns
	return sendErr
}

func driveChordRing(budget time.Duration, m map[string]float64) error {
	ring := driverRing(4096)
	rng := rand.New(rand.NewSource(9))
	ids := ring.IDs()
	m["chord.ring_route_ns"] = timeOp(budget, 256, func() {
		sink += uint64(len(ring.Route(ids[rng.Intn(len(ids))], ring.Space().Wrap(rng.Uint64()))))
	}).ns
	return nil
}

// quietMaintenance stretches chord's timers past any driver's window,
// so a driver cluster runs only the traffic the driver causes.
func quietMaintenance(o *cluster.Options) {
	o.StabilizeEvery, o.FixFingersEvery, o.PingEvery = time.Hour, time.Hour, time.Hour
}

// driveCluster times Node.Lookup and Node.ParentFor on a converged
// 256-node simulated ring with maintenance quiet.
func driveCluster(budget time.Duration, m map[string]float64) error {
	observer := obs.NewObserver(0) // its hop histogram is the only hop count there is
	opts := cluster.Options{N: 256, Seed: 11, Observer: observer}
	quietMaintenance(&opts)
	c, err := cluster.New(opts)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(13))
	failed := 0
	cb := func(_ chord.NodeRef, err error) {
		if err != nil {
			failed++
		}
	}
	before, err := scrape(observer)
	if err != nil {
		return err
	}
	m["chord.lookup_ns"] = timeOp(budget, 64, func() {
		c.Chord[rng.Intn(len(c.Chord))].Lookup(c.Space.Wrap(rng.Uint64()), cb)
		c.RunFor(100 * time.Millisecond) // more virtual time than any route needs
	}).ns
	after, err := scrape(observer)
	if err != nil {
		return err
	}
	d := after.sub(before)
	if n := d.total("chord_lookup_hops_count", ""); n > 0 {
		m["chord.lookup_hops_mean"] = d.total("chord_lookup_hops_sum", "") / n
	}
	if failed > 0 {
		return fmt.Errorf("%d lookups failed on a converged ring", failed)
	}
	key := c.Space.HashString(treeAttr(0))
	i := 0
	m["core.parent_for_ns"] = timeOp(budget, 1024, func() {
		if _, _, ok := c.DAT[i&255].ParentFor(key); ok {
			sink++
		}
		i++
	}).ns
	return nil
}

// driveMaintenance times chord's upkeep alone: a 1024-node ring with no
// trees, host time per node-stabilize-round.
func driveMaintenance(budget time.Duration, m map[string]float64) error {
	observer := obs.NewObserver(0) // counts the stabilize rounds
	c, err := cluster.New(cluster.Options{N: 1024, Seed: 17, Observer: observer})
	if err != nil {
		return err
	}
	before, err := scrape(observer)
	if err != nil {
		return err
	}
	start := time.Now()
	for time.Since(start) < 2*budget {
		c.RunFor(time.Second)
	}
	elapsed := time.Since(start)
	after, err := scrape(observer)
	if err != nil {
		return err
	}
	rounds := after.sub(before).total("chord_stabilize_rounds_total", "")
	if rounds == 0 {
		return errors.New("no stabilize rounds ran")
	}
	m["chord.maintenance_ns_per_node_round"] = float64(elapsed.Nanoseconds()) / rounds
	return nil
}

func driveCoreTrees(budget time.Duration, m map[string]float64) error {
	ring := driverRing(4096)
	key := ring.Space().HashString("cpu")
	m["core.build_tree_4096_ns"] = timeOp(budget, 1, func() {
		sink += uint64(core.Build(ring, key, core.Balanced).N())
	}).ns
	tree := core.Build(ring, key, core.Balanced)
	values := make(map[ident.ID]float64, ring.N())
	for i, id := range ring.IDs() {
		values[id] = float64(i)
	}
	m["core.aggregate_up_4096_ns"] = timeOp(budget, 1, func() {
		agg, _ := tree.AggregateUp(values)
		sink += agg.Count
	}).ns
	var acc core.Aggregate
	part := sampleUpdate().Agg
	m["core.merge_ns"] = timeOp(budget, 4096, func() { acc.Merge(part) }).ns
	sink += acc.Count
	return nil
}

// driveUpdatePath is differential: the same 256-node ring runs the same
// slots with 16 trees and with none; the difference, per update, is the
// host cost of tick → send machine → SimNetwork → handleUpdate → ack.
func driveUpdatePath(budget time.Duration, m map[string]float64) error {
	const n, trees, slot = 256, 16, time.Second
	slots := int(budget/(50*time.Millisecond)) + 4
	run := func(trees int) (time.Duration, error) {
		c, err := cluster.New(cluster.Options{N: n, Seed: 19,
			Local: func(int, time.Duration, ident.ID) (float64, bool) { return 1, true }})
		if err != nil {
			return 0, err
		}
		for t := 0; t < trees; t++ {
			if _, err := c.StartContinuousAll(c.Space.HashString(treeAttr(t)), slot); err != nil {
				return 0, err
			}
		}
		c.RunFor(12 * slot) // ⌈log₂ 256⌉+4 warm-up slots
		start := time.Now()
		c.RunFor(time.Duration(slots) * slot)
		return time.Since(start), nil
	}
	with, err := run(trees)
	if err != nil {
		return err
	}
	without, err := run(0)
	if err != nil {
		return err
	}
	// Every node but each tree's root sends one acked update per slot.
	updates := float64(trees * (n - 1) * slots)
	m["core.update_path_ns"] = float64((with - without).Nanoseconds()) / updates
	return nil
}

func driveMaan(budget time.Duration, m map[string]float64) error {
	ring := driverRing(1024)
	schema, err := maan.NewSchema(ring.Space(),
		maan.Attribute{Name: attrCPU, Min: 0, Max: cpuMax},
		maan.Attribute{Name: attrMem, Min: 0, Max: memMax})
	if err != nil {
		return err
	}
	index := maan.NewIndex(schema, ring)
	rng := rand.New(rand.NewSource(23))
	ids := ring.IDs()
	for i := range ids {
		res := maan.Resource{Name: fmt.Sprintf("host%04d", i),
			Values: map[string]float64{attrCPU: rng.Float64() * cpuMax, attrMem: rng.Float64() * memMax}}
		if _, err := index.Register(ids[i], res); err != nil {
			return err
		}
	}
	var queryErr error
	m["maan.index_query_ns"] = timeOp(budget, 64, func() {
		lo := rng.Float64() * cpuMax * 0.9
		res, _, err := index.MultiAttrQuery(ids[rng.Intn(len(ids))], []maan.Predicate{
			maan.Range(attrCPU, lo, lo+cpuMax/10), maan.Range(attrMem, 0, memMax/2)})
		if err != nil {
			queryErr = err
		}
		sink += uint64(len(res))
	}).ns
	return queryErr
}

func driveObs(budget time.Duration, m map[string]float64) error {
	reg := obs.NewRegistry()
	counter := reg.Counter("perf_counter", "driver")
	m["obs.counter_inc_ns"] = timeOp(budget, 4096, counter.Inc).ns
	hist := reg.Histogram("perf_hist", "driver", obs.SecondsBuckets)
	v := 0.0
	m["obs.histogram_observe_ns"] = timeOp(budget, 4096, func() {
		hist.Observe(v)
		v += 0.001
		if v > 10 {
			v = 0
		}
	}).ns
	ring := obs.NewSpanRing(1024)
	s := obs.Span{Trace: 1, Key: 2, Epoch: 3, From: "a", To: "b", Height: 1}
	m["obs.span_record_ns"] = timeOp(budget, 4096, func() { ring.Record(s) }).ns
	sink += counter.Value() + ring.Total()
	return nil
}
