package dat_test

import (
	"math"
	"testing"
	"time"

	dat "repro"
)

func TestTopologyTreesAndAggregation(t *testing.T) {
	topo, err := dat.NewTopology(32, 256, dat.ProbedIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 256 {
		t.Fatalf("N = %d", topo.N())
	}
	if r := topo.GapRatio(); r <= 0 || r > 16 {
		t.Fatalf("probed gap ratio = %v", r)
	}
	basic := topo.Tree("cpu-usage", dat.Basic)
	balanced := topo.Tree("cpu-usage", dat.Balanced)
	if err := basic.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := balanced.Validate(); err != nil {
		t.Fatal(err)
	}
	if balanced.MaxBranching() >= basic.MaxBranching() {
		t.Fatalf("balanced (%d) not flatter than basic (%d)",
			balanced.MaxBranching(), basic.MaxBranching())
	}

	values := make([]float64, 256)
	var wantSum float64
	for i := range values {
		values[i] = float64(i)
		wantSum += float64(i)
	}
	agg, loads := topo.AggregateOnce("cpu-usage", dat.Balanced, values)
	if agg.Count != 256 || math.Abs(agg.Sum-wantSum) > 1e-6 {
		t.Fatalf("aggregate = %v", agg)
	}
	var total uint64
	for _, l := range loads {
		total += l
	}
	if total != 255 {
		t.Fatalf("messages = %d, want n-1", total)
	}
}

func TestTopologyBadInput(t *testing.T) {
	if _, err := dat.NewTopology(4, 1000, dat.EvenIDs, 1); err == nil {
		t.Error("1000 nodes in a 4-bit space accepted")
	}
}

func TestSimGridMonitorAndQuery(t *testing.T) {
	grid, err := dat.NewSimGrid(dat.SimGridConfig{
		N:    48,
		Seed: 9,
		IDs:  dat.ProbedIDs,
		Sensor: func(node int, _ time.Duration, attr string) (float64, bool) {
			if attr != "cpu-usage" {
				return 0, false
			}
			return float64(node), true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	latest, err := grid.Monitor("cpu-usage", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	grid.Run(15 * time.Second)
	_, agg, ok := latest()
	if !ok || agg.Count != 48 {
		t.Fatalf("monitor: ok=%v agg=%v", ok, agg)
	}
	if agg.Avg() != 23.5 {
		t.Fatalf("avg = %v, want 23.5", agg.Avg())
	}

	// A window past the transport's 2 s default call timeout answers
	// too: the query's deadline is its window plus the ack timeout.
	for _, window := range []time.Duration{time.Second, 2500 * time.Millisecond} {
		q, err := grid.Query(3, "cpu-usage", window)
		if err != nil {
			t.Fatalf("window %v: %v", window, err)
		}
		if q.Count != 48 {
			t.Fatalf("window %v: on-demand count = %d", window, q.Count)
		}
	}

	tree := grid.Tree("cpu-usage", dat.BalancedLocal)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimGridSelfMonitor(t *testing.T) {
	grid, err := dat.NewSimGrid(dat.SimGridConfig{
		N:       32,
		Seed:    5,
		SelfMon: dat.SelfMonConfig{Enable: true, Slot: time.Second},
		Sensor: func(node int, _ time.Duration, attr string) (float64, bool) {
			return 1, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grid.ClusterLoad(); ok {
		t.Fatal("cluster load reported before any monitoring round")
	}
	if _, err := grid.Monitor("cpu-usage", time.Second); err != nil {
		t.Fatal(err)
	}
	grid.Run(15 * time.Second)
	s, ok := grid.ClusterLoad()
	if !ok {
		t.Fatal("no cluster load summary after 15s")
	}
	if s.Nodes != 32 {
		t.Fatalf("summary counts %d nodes, want 32", s.Nodes)
	}
	if s.Sum <= 0 || s.Min > s.Mean || s.Mean > s.Max || s.Imbalance < 1 {
		t.Fatalf("incoherent summary %+v", s)
	}

	// The plane is off by default: no dat.load.* interception, no summary.
	plain, err := dat.NewSimGrid(dat.SimGridConfig{N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(5 * time.Second)
	if _, ok := plain.ClusterLoad(); ok {
		t.Fatal("cluster load reported with self-monitoring disabled")
	}
}

func TestSimGridChurnAPI(t *testing.T) {
	grid, err := dat.NewSimGrid(dat.SimGridConfig{
		N: 16, Seed: 4,
		Sensor: func(int, time.Duration, string) (float64, bool) { return 1, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	latest, err := grid.Monitor("load", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	grid.Run(10 * time.Second)
	if n := grid.N(); n != 16 {
		t.Fatalf("N = %d", n)
	}
	grid.Crash(2)
	grid.Leave(5)
	idx := grid.Join()
	if idx != 16 {
		t.Fatalf("new node index = %d", idx)
	}
	grid.Run(45 * time.Second)
	if n := grid.N(); n != 15 {
		t.Fatalf("post-churn N = %d, want 15", n)
	}
	_, agg, ok := latest()
	if !ok {
		t.Fatal("no result after churn")
	}
	// The joiner has no continuous registration (Monitor ran before it
	// joined), so 14 of the 15 live nodes contribute.
	if agg.Count < 13 || agg.Count > 15 {
		t.Fatalf("post-churn count = %d", agg.Count)
	}
}

func TestPeerLifecycleOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	attrs := []dat.Attribute{
		{Name: "cpu-usage", Min: 0, Max: 100},
		{Name: "memory-size", Min: 0, Max: 4096},
	}
	mk := func(name string, cpu float64) *dat.Peer {
		p, err := dat.NewPeer(dat.PeerConfig{
			Listen:     "127.0.0.1:0",
			Name:       name,
			Attributes: attrs,
			Stabilize:  40 * time.Millisecond,
			FixFingers: 60 * time.Millisecond,
			Ping:       100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		p.AddSensor("cpu-usage", func() (float64, bool) { return cpu, true })
		p.AddSensor("memory-size", func() (float64, bool) { return 1024, true })
		return p
	}

	peers := []*dat.Peer{mk("host0", 10)}
	peers[0].Create()
	for i := 1; i < 6; i++ {
		p := mk("host"+string(rune('0'+i)), float64(10*(i+1)))
		if err := p.Join(peers[0].Addr()); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}

	for _, p := range peers {
		if err := p.StartMonitor("cpu-usage", 100*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Announce(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for the ring to converge and the aggregate to cover all six.
	deadline := time.Now().Add(20 * time.Second)
	covered := false
	for time.Now().Before(deadline) {
		for _, p := range peers {
			if agg, ok := p.LatestResult("cpu-usage"); ok && agg.Count == 6 {
				covered = true
				if agg.Sum != 10+20+30+40+50+60 {
					t.Fatalf("sum = %v", agg.Sum)
				}
			}
		}
		if covered {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !covered {
		t.Fatal("continuous aggregate never covered all peers")
	}

	// On-demand query from a non-root peer.
	agg, err := peers[2].Query("cpu-usage", 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 6 {
		t.Fatalf("query count = %d", agg.Count)
	}

	// Resource discovery: hosts with cpu-usage in [25, 100].
	found, err := peers[4].FindResources([]dat.Predicate{
		{Attr: "cpu-usage", Lo: 25, Hi: 100},
		{Attr: "memory-size", Lo: 512, Hi: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 4 { // 30, 40, 50, 60
		names := ""
		for _, r := range found {
			names += r.Name + " "
		}
		t.Fatalf("found %d resources (%s), want 4", len(found), names)
	}

	// Graceful departure does not disturb the rest.
	if err := peers[5].Leave(); err != nil {
		t.Fatal(err)
	}
}

func TestPeerConfigValidation(t *testing.T) {
	if _, err := dat.NewPeer(dat.PeerConfig{}); err == nil {
		t.Error("missing Listen accepted")
	}
	if _, err := dat.NewPeer(dat.PeerConfig{
		Listen:     "127.0.0.1:0",
		Attributes: []dat.Attribute{{Name: "", Min: 0, Max: 1}},
	}); err == nil {
		t.Error("bad schema accepted")
	}
	p, err := dat.NewPeer(dat.PeerConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Addr() == "" || p.ID() == 0 && p.ID() == 1 {
		t.Error("degenerate peer identity")
	}
	if err := p.Announce(time.Second); err == nil {
		t.Error("Announce without schema accepted")
	}
	if _, err := p.FindResources(nil); err == nil {
		t.Error("FindResources without schema accepted")
	}
	if err := p.Close(); err != nil {
		t.Error("double close:", err)
	}
}

func TestGenerateCPUTrace(t *testing.T) {
	s := dat.GenerateCPUTrace("cpu", 3)
	if s.Len() != 480 {
		t.Fatalf("len = %d", s.Len())
	}
	min, max, _ := s.Stats()
	if min < 0 || max > 100 {
		t.Fatal("trace out of range")
	}
}
