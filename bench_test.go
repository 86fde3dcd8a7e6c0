package dat_test

// One benchmark per table/figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`): each executes the corresponding
// experiment driver end to end on a reduced but shape-preserving
// configuration, so the bench suite regenerates every result the paper
// reports. Micro-benchmarks of the hot kernels (tree construction,
// routing, aggregation, the event engine, UDP RPC) follow.

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	dat "repro"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ident"
	"repro/internal/maan"
	"repro/internal/rpcudp"
	"repro/internal/sim"
	"repro/internal/transport"
)

// --- Figure benchmarks -------------------------------------------------

// BenchmarkFig7aMaxBranching regenerates Fig. 7(a): maximal branching
// factor vs network size for basic/balanced schemes and random/probed
// placement.
func BenchmarkFig7aMaxBranching(b *testing.B) {
	cfg := experiments.TreePropsConfig{Sizes: []int{16, 64, 256, 1024}, Trials: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		tables := experiments.TreeProperties(cfg)
		if tables[0].ID != "fig7a" || len(tables[0].Rows) != 4 {
			b.Fatal("fig7a table malformed")
		}
	}
}

// BenchmarkFig7bAvgBranching regenerates Fig. 7(b): average branching
// factor vs network size.
func BenchmarkFig7bAvgBranching(b *testing.B) {
	cfg := experiments.TreePropsConfig{Sizes: []int{16, 64, 256}, Trials: 1, Seed: 2}
	for i := 0; i < b.N; i++ {
		tables := experiments.TreeProperties(cfg)
		if tables[1].ID != "fig7b" {
			b.Fatal("fig7b table malformed")
		}
	}
}

// BenchmarkTreeHeight regenerates the height analysis of §3.3/§3.5.
func BenchmarkTreeHeight(b *testing.B) {
	cfg := experiments.TreePropsConfig{Sizes: []int{16, 64, 256}, Trials: 1, Seed: 3}
	for i := 0; i < b.N; i++ {
		tables := experiments.TreeProperties(cfg)
		if tables[2].ID != "height" {
			b.Fatal("height table malformed")
		}
	}
}

// BenchmarkFig8aMessageDistribution regenerates Fig. 8(a): aggregation
// message counts by node rank at n=512.
func BenchmarkFig8aMessageDistribution(b *testing.B) {
	cfg := experiments.LoadBalanceConfig{N: 512, Seed: 1, IDs: dat.ProbedIDs}
	for i := 0; i < b.N; i++ {
		t := experiments.MessageDistribution(cfg)
		if t.ID != "fig8a" {
			b.Fatal("fig8a malformed")
		}
	}
}

// BenchmarkFig8bImbalance regenerates Fig. 8(b): imbalance factor vs
// network size.
func BenchmarkFig8bImbalance(b *testing.B) {
	cfg := experiments.LoadBalanceConfig{Sizes: []int{100, 400, 1000}, Seed: 1, IDs: dat.ProbedIDs}
	for i := 0; i < b.N; i++ {
		t := experiments.Imbalance(cfg)
		if t.ID != "fig8b" {
			b.Fatal("fig8b malformed")
		}
	}
}

// BenchmarkFig9MonitoringAccuracy regenerates Fig. 9 on a reduced grid:
// a live 64-node simulated deployment replaying the CPU trace for 20
// simulated minutes.
func BenchmarkFig9MonitoringAccuracy(b *testing.B) {
	cfg := experiments.AccuracyConfig{
		N: 64, Duration: 20 * time.Minute, Seed: 1, SharedTrace: true,
	}
	for i := 0; i < b.N; i++ {
		_, _, stats, err := experiments.MonitoringAccuracy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Correlation < 0.9 {
			b.Fatalf("accuracy regressed: correlation %v", stats.Correlation)
		}
	}
}

// BenchmarkChurnOverhead regenerates the churn-cost comparison between
// implicit DATs and explicit-membership trees.
func BenchmarkChurnOverhead(b *testing.B) {
	cfg := experiments.ChurnConfig{N: 24, Events: 12, TreeCounts: []int{1, 8, 32}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ChurnOverhead(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMAANRangeQuery regenerates the §2.2 query-cost table.
func BenchmarkMAANRangeQuery(b *testing.B) {
	cfg := experiments.MAANConfig{
		Sizes: []int{64, 512}, Selectivities: []float64{0.01, 0.1},
		Resources: 128, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MAANQueryCost(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMAANRangeHop measures one forwarding hop of a range walk over
// the real stack on loopback: a node receives the in-flight query with
// some records already found, adds its own three and sends it on to its
// successor. A hop does not parse what it carries, so the cost should
// grow with the bytes copied, not with the records in them.
func BenchmarkMAANRangeHop(b *testing.B) {
	space := ident.New(16)
	schema, err := maan.NewSchema(space, maan.Attribute{Name: "cpu-usage", Min: 0, Max: 100})
	if err != nil {
		b.Fatal(err)
	}
	listen := func() *rpcudp.Endpoint {
		ep, err := rpcudp.Listen("127.0.0.1:0", rpcudp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ep.Close() })
		return ep
	}
	// The driver stands in for the rest of the ring: it is the hop's
	// predecessor and successor, and maintenance never runs to find out.
	driver, hop := listen(), listen()
	node := chord.New(hop, &transport.RealClock{}, 0x8000, chord.Config{
		Space: space, StabilizeEvery: time.Hour, FixFingersEvery: time.Hour, PingEvery: time.Hour,
	})
	node.SeedState(chord.NodeRef{ID: 0x4000, Addr: driver.Addr()},
		[]chord.NodeRef{{ID: 0xC000, Addr: driver.Addr()}}, nil)
	b.Cleanup(func() { node.Stop(false) })
	svc := maan.NewService(node, hop, &transport.RealClock{}, schema)
	b.Cleanup(svc.Close)
	arrived := make(chan struct{}, 1)
	driver.Handle(func(r *transport.Request) {
		if r.Type == maan.MsgRange {
			arrived <- struct{}{}
		}
	})
	resource := func(i int) maan.Resource {
		return maan.Resource{
			Name:   "host" + string(rune('a'+i/26)) + string(rune('a'+i%26)) + ".grid",
			Values: map[string]float64{"cpu-usage": 40 + float64(i%20)},
		}
	}
	for i := 0; i < 3; i++ {
		stored := make(chan error, 1)
		res := resource(100 + i)
		driver.Call(hop.Addr(), maan.MsgStore,
			maan.StoreReq{Attr: "cpu-usage", Value: res.Values["cpu-usage"], Key: 0x7000, Res: res},
			func(_ any, err error) { stored <- err })
		if err := <-stored; err != nil {
			b.Fatal(err)
		}
	}
	for _, carried := range []int{0, 8, 64} {
		found := make([]maan.Resource, carried)
		for i := range found {
			found[i] = resource(i)
		}
		req := maan.RangeReq{
			QueryID: 1, Origin: driver.Addr(), Start: "elsewhere",
			Pred:  maan.Range("cpu-usage", 0, 100),
			LoKey: 0x5000, HiKey: 0xF000, // the span ends beyond the successor
			Found: maan.RecordsOf(found...), Hops: 2,
		}
		b.Run("carried="+strconv.Itoa(carried), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := driver.Send(hop.Addr(), maan.MsgRange, req); err != nil {
					b.Fatal(err)
				}
				<-arrived
			}
		})
	}
}

// --- Kernel benchmarks --------------------------------------------------

func benchRing(b *testing.B, n int) *chord.Ring {
	b.Helper()
	space := ident.New(32)
	rng := rand.New(rand.NewSource(7))
	ring, err := chord.NewRing(space, chord.RandomIDs(space, n, rng))
	if err != nil {
		b.Fatal(err)
	}
	return ring
}

// BenchmarkBuildBasicTree4096 measures snapshot construction of a basic
// DAT over 4096 nodes.
func BenchmarkBuildBasicTree4096(b *testing.B) {
	ring := benchRing(b, 4096)
	key := ring.Space().HashString("cpu")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(ring, key, core.Basic)
	}
}

// BenchmarkBuildBalancedTree4096 measures snapshot construction of a
// balanced DAT over 4096 nodes.
func BenchmarkBuildBalancedTree4096(b *testing.B) {
	ring := benchRing(b, 4096)
	key := ring.Space().HashString("cpu")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(ring, key, core.Balanced)
	}
}

// BenchmarkRingRoute measures one greedy Chord route on a 4096-node
// snapshot.
func BenchmarkRingRoute(b *testing.B) {
	ring := benchRing(b, 4096)
	rng := rand.New(rand.NewSource(9))
	ids := ring.IDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := ids[rng.Intn(len(ids))]
		key := ring.Space().Wrap(rng.Uint64())
		ring.Route(from, key)
	}
}

// BenchmarkAggregateUp4096 measures one full aggregation round over a
// 4096-node balanced tree.
func BenchmarkAggregateUp4096(b *testing.B) {
	ring := benchRing(b, 4096)
	key := ring.Space().HashString("cpu")
	tree := core.Build(ring, key, core.Balanced)
	values := make(map[ident.ID]float64, ring.N())
	for i, id := range ring.IDs() {
		values[id] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _ := tree.AggregateUp(values)
		if agg.Count != 4096 {
			b.Fatal("incomplete round")
		}
	}
}

// BenchmarkProbedIDs1024 measures identifier-probing placement.
func BenchmarkProbedIDs1024(b *testing.B) {
	space := ident.New(32)
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		chord.ProbedIDs(space, 1024, rng)
	}
}

// BenchmarkSimEngine measures raw discrete-event throughput.
func BenchmarkSimEngine(b *testing.B) {
	eng := sim.NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		eng.Schedule(time.Millisecond, tick)
	}
	eng.Schedule(time.Millisecond, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkSimGridSlot measures one aggregation slot of a live 256-node
// simulated deployment (maintenance plus one full round of updates).
func BenchmarkSimGridSlot(b *testing.B) {
	grid, err := dat.NewSimGrid(dat.SimGridConfig{
		N: 256, Seed: 1, IDs: dat.ProbedIDs,
		Sensor: func(int, time.Duration, string) (float64, bool) { return 1, true },
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := grid.Monitor("cpu", time.Second); err != nil {
		b.Fatal(err)
	}
	grid.Run(10 * time.Second) // warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.Run(time.Second)
	}
}

// BenchmarkUDPRoundTrip measures one request/response over the real UDP
// RPC layer on loopback.
func BenchmarkUDPRoundTrip(b *testing.B) {
	server, err := rpcudp.Listen("127.0.0.1:0", rpcudp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	server.Handle(func(r *transport.Request) { r.Reply(chord.PingResp{}) })
	client, err := rpcudp.Listen("127.0.0.1:0", rpcudp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		client.Call(server.Addr(), chord.MsgPing, chord.PingReq{}, func(_ any, err error) {
			if err != nil {
				b.Error(err)
			}
			wg.Done()
		})
		wg.Wait()
	}
}

// BenchmarkSyncAblation regenerates the aggregation-synchronization
// ablation table.
func BenchmarkSyncAblation(b *testing.B) {
	cfg := experiments.AblationConfig{N: 48, Slots: 40, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SyncAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuccessorListAblation regenerates the successor-list healing
// ablation table.
func BenchmarkSuccessorListAblation(b *testing.B) {
	cfg := experiments.AblationConfig{N: 48, ListLens: []int{1, 4}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SuccessorListAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiTreeLoad regenerates the §3.2 multi-tree load-balance
// table.
func BenchmarkMultiTreeLoad(b *testing.B) {
	cfg := experiments.MultiTreeConfig{N: 256, Trees: []int{1, 16, 64}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiTreeLoad(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageOverhead regenerates the per-node overhead table.
func BenchmarkMessageOverhead(b *testing.B) {
	cfg := experiments.LoadBalanceConfig{Sizes: []int{100, 400}, Seed: 1, IDs: dat.ProbedIDs}
	for i := 0; i < b.N; i++ {
		_ = experiments.MessageOverhead(cfg)
	}
}

// BenchmarkWideArea regenerates the wide-area hold sweep on a reduced
// grid.
func BenchmarkWideArea(b *testing.B) {
	cfg := experiments.WideAreaConfig{
		N: 48, Slots: 20, Seed: 1,
		Holds: []time.Duration{10 * time.Millisecond, 200 * time.Millisecond},
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WideArea(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnDemandCost regenerates the on-demand query cost table.
func BenchmarkOnDemandCost(b *testing.B) {
	cfg := experiments.OnDemandConfig{Sizes: []int{32, 64}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OnDemandCost(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
