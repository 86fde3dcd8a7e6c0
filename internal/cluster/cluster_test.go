package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := New(Options{N: -3}); err == nil {
		t.Error("negative N accepted")
	}
}

func TestIDStrategyString(t *testing.T) {
	if RandomIDs.String() != "random" || ProbedIDs.String() != "probed" || EvenIDs.String() != "even" {
		t.Error("strategy names wrong")
	}
	if IDStrategy(9).String() == "" {
		t.Error("unknown strategy empty")
	}
}

func TestWarmStartConvergesAtScale(t *testing.T) {
	// The default warm start must converge essentially immediately even
	// with slow maintenance cadences (regression: a protocol-join default
	// here once cost large experiments their entire convergence budget).
	start := time.Now()
	c, err := New(Options{
		N: 512, Seed: 1, IDs: ProbedIDs,
		StabilizeEvery:  7500 * time.Millisecond,
		FixFingersEvery: 15 * time.Second,
		PingEvery:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatal("not converged")
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("warm start took %v wall time", wall)
	}
	// Seeded rings still run maintenance: run a while and stay converged.
	c.RunFor(2 * time.Minute)
	if !c.Converged() {
		t.Fatal("maintenance broke the seeded state")
	}
}

func TestSingleNodeCluster(t *testing.T) {
	c, err := New(Options{N: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatal("lone node not converged")
	}
	key := c.Space.HashString("x")
	latest, err := c.StartContinuousAll(key, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if _, agg, ok := latest(); !ok || agg.Count != 0 {
		// No Local configured: count 0 but the root still reports.
		if !ok {
			t.Fatal("lone root produced nothing")
		}
	}
}

func TestEndpointAndAddrsIndexing(t *testing.T) {
	c, err := New(Options{N: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	addrs := c.Addrs()
	if len(addrs) != 5 {
		t.Fatalf("addrs = %d", len(addrs))
	}
	for i := range addrs {
		if c.Endpoint(i).Addr() != addrs[i] {
			t.Fatalf("endpoint %d addr mismatch", i)
		}
	}
}

func TestProtocolJoinMatchesWarmRing(t *testing.T) {
	warm, err := New(Options{N: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(Options{N: 10, Seed: 6, ProtocolJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	w, c := warm.Ring().IDs(), cold.Ring().IDs()
	for i := range w {
		if w[i] != c[i] {
			t.Fatalf("rings differ at %d", i)
		}
	}
}

func TestAddNodeJoinsAndConverges(t *testing.T) {
	c, err := New(Options{N: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var id ident.ID = 12345
	for c.Ring().Contains(id) {
		id++
	}
	idx := c.AddNode(id)
	if idx != 8 {
		t.Fatalf("index = %d", idx)
	}
	c.RunFor(10 * time.Second)
	if err := c.AwaitConverged(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !c.Chord[idx].Running() {
		t.Fatal("added node not running")
	}
	if !c.Ring().Contains(id) {
		t.Fatal("added node missing from ring")
	}
}

func TestCrashAndLeaveBookkeeping(t *testing.T) {
	c, err := New(Options{N: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Zero Options.Overload arms the avoid verdict at the default
	// thresholds; the page renders the peer-health record.
	var page strings.Builder
	c.DAT[0].WriteOverloadDebug(&page)
	if !strings.Contains(page.String(), "breaker: 3 fails, 1s cooldown; evict: 2 strikes") ||
		!strings.Contains(page.String(), "== peer health ==") {
		t.Fatalf("zero Options.Overload does not run the defaults:\n%s", page.String())
	}
	c.Crash(1)
	c.Leave(2)
	if c.runningCount() != 6 {
		t.Fatalf("running = %d", c.runningCount())
	}
	if c.Ring().N() != 6 {
		t.Fatalf("ring size = %d", c.Ring().N())
	}
	c.RunFor(30 * time.Second)
	if err := c.AwaitConverged(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestCrashStopsDATTimers pins that a crashed node is silent in the DAT
// layer too: once every node has crashed mid-slot — slot ticks armed,
// ack timeouts and send-machine deadlines in flight — the engine drains
// to empty, so no timer of any crashed node was left pending, and each
// node's send queues read empty.
func TestCrashStopsDATTimers(t *testing.T) {
	const n, slot = 8, 500 * time.Millisecond
	c, err := New(Options{
		N: n, Seed: 21,
		Local: func(int, time.Duration, ident.ID) (float64, bool) { return 1, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartContinuousAll(c.Space.HashString("cpu"), slot); err != nil {
		t.Fatal(err)
	}
	// Stop a few milliseconds into a slot, with updates queued and unacked.
	c.RunFor(6*slot + 2*time.Millisecond)
	if c.Engine.Len() == 0 {
		t.Fatal("nothing pending before the crashes: the test would prove nothing")
	}
	for i := 0; i < n; i++ {
		c.Crash(i)
	}
	// What is left are datagrams and RPC timeouts already in flight.
	c.RunFor(time.Minute)
	if left := c.Engine.Len(); left != 0 {
		t.Fatalf("%d events still pending a minute after every node crashed", left)
	}
	for i := 0; i < n; i++ {
		if st := c.DAT[i].OverloadStats(); st.QueuedBytes != 0 || st.QueuedElems != 0 {
			t.Fatalf("node %d still queues traffic after its crash: %+v", i, st)
		}
		if qs := c.DAT[i].QueueStats(); len(qs) != 0 {
			t.Fatalf("node %d keeps %d destination queues after its crash", i, len(qs))
		}
	}
}

func TestLocalReceivesVirtualTime(t *testing.T) {
	var seenNow time.Duration
	c, err := New(Options{
		N: 4, Seed: 9,
		Local: func(node int, now time.Duration, key ident.ID) (float64, bool) {
			if now > seenNow {
				seenNow = now
			}
			return 1, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	key := c.Space.HashString("t")
	if _, err := c.StartContinuousAll(key, time.Second); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if seenNow < time.Second {
		t.Fatalf("Local never saw advancing virtual time: %v", seenNow)
	}
}

func TestSchemePropagatesToDAT(t *testing.T) {
	c, err := New(Options{N: 4, Seed: 10, Scheme: core.Basic})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.DAT {
		if d.Scheme() != core.Basic {
			t.Fatalf("scheme = %v", d.Scheme())
		}
	}
}

func TestSelfMonClusterLoad(t *testing.T) {
	c, err := New(Options{
		N: 24, Seed: 12,
		SelfMon: obs.SelfMonConfig{Enable: true, Slot: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)

	s, ok := c.ClusterLoad()
	if !ok {
		t.Fatal("no self-monitoring round completed")
	}
	if s.Nodes != 24 {
		t.Fatalf("summary counts %d nodes, want 24", s.Nodes)
	}
	if s.Sum <= 0 || s.Mean <= 0 || s.Max < s.Mean || s.Min > s.Mean {
		t.Fatalf("incoherent summary %+v", s)
	}
	if s.Imbalance < 1 {
		t.Fatalf("imbalance %v below 1 (max below mean)", s.Imbalance)
	}
	// The bytes tree aggregates alongside the msgs tree.
	if _, agg, ok := c.SelfMonLatest(obs.LoadAttrBytes); !ok || agg.Count != 24 || agg.Sum <= 0 {
		t.Fatalf("bytes tree: ok=%v agg=%+v", ok, agg)
	}

	// KickSelfMon must be idempotent on already-enrolled nodes...
	if err := c.KickSelfMon(); err != nil {
		t.Fatalf("idempotent kick: %v", err)
	}
	// ...and re-enroll a rejoined node so it contributes again. The
	// rejoined node is a new protocol instance: its own load restarts at
	// zero, while everybody else's counters only ever grow.
	before := make([][2]uint64, len(c.DAT))
	for i, d := range c.DAT {
		before[i][0], before[i][1] = d.Load()
	}
	if before[3][0] == 0 || before[3][1] == 0 {
		t.Fatalf("node 3 carried no load before its crash: %v", before[3])
	}
	c.Crash(3)
	c.RunFor(5 * time.Second)
	c.Rejoin(3)
	if msgs, bytes := c.DAT[3].Load(); msgs != 0 || bytes != 0 {
		t.Fatalf("rejoined node starts with load (%d, %d), want (0, 0)", msgs, bytes)
	}
	for i, d := range c.DAT {
		if msgs, bytes := d.Load(); i != 3 && (msgs < before[i][0] || bytes < before[i][1]) {
			t.Fatalf("node %d load went backwards: (%d, %d) after %v", i, msgs, bytes, before[i])
		}
	}
	if err := c.KickSelfMon(); err != nil {
		t.Fatalf("post-rejoin kick: %v", err)
	}
	if err := c.AwaitConverged(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	c.RunFor(15 * time.Second)
	if s, ok := c.ClusterLoad(); !ok || s.Nodes != 24 {
		t.Fatalf("post-rejoin summary: ok=%v %+v", ok, s)
	}
}

// TestLoadCountedOnce lets the two remaining load stores check each
// other. Every node counts its own load on core.Node; the shared
// Observer's per-tree table counts the same events by tree. Under loss
// and a crash the two must still agree to the last message and byte,
// the crashed node's final counters and the `other` row included.
func TestLoadCountedOnce(t *testing.T) {
	observer := obs.NewObserver(64)
	observer.Load = obs.NewLoadVec(2) // three trees run: one lands in `other`
	slot := 500 * time.Millisecond
	c, err := New(Options{
		N: 16, Seed: 22,
		Local:    func(node int, _ time.Duration, _ ident.ID) (float64, bool) { return float64(node), true },
		Observer: observer,
		SelfMon:  obs.SelfMonConfig{Enable: true, Slot: slot},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartContinuousAll(c.Space.HashString("cpu"), slot); err != nil {
		t.Fatal(err)
	}
	c.Net.SetDropProb(0.05)
	c.RunFor(6 * slot)
	c.Crash(5)
	c.RunFor(8 * slot)

	var msgs, bytes uint64
	for _, d := range c.DAT {
		m, b := d.Load()
		msgs, bytes = msgs+m, bytes+b
	}
	var rowMsgs, rowBytes uint64
	rows := observer.Load.Snapshot()
	for _, r := range rows {
		rowMsgs, rowBytes = rowMsgs+r.Sent+r.Recv, rowBytes+r.Bytes
	}
	if msgs == 0 || bytes == 0 {
		t.Fatal("no load recorded")
	}
	if rows[len(rows)-1].Label != obs.OtherLabel {
		t.Fatalf("no overflow row among %d rows: the check would miss it", len(rows))
	}
	if msgs != rowMsgs || bytes != rowBytes {
		t.Fatalf("nodes count (%d msgs, %d bytes), the per-tree table (%d, %d)", msgs, bytes, rowMsgs, rowBytes)
	}
	if c.Net.Dropped() == 0 {
		t.Fatal("no datagram was lost: the run exercised no retry")
	}
}
