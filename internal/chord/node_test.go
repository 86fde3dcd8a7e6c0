package chord

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/transport"
)

// simCluster drives a set of protocol nodes over a simulated network.
type simCluster struct {
	t     *testing.T
	eng   *sim.Engine
	net   *transport.SimNetwork
	space ident.Space
	nodes []*Node
	tune  func(*Config) // adjusts config() for one test; nil keeps it
}

func newSimCluster(t *testing.T, seed int64, bits uint, simCfg transport.SimConfig) *simCluster {
	t.Helper()
	eng := sim.NewEngine(seed)
	return &simCluster{
		t:     t,
		eng:   eng,
		net:   transport.NewSimNetwork(eng, simCfg),
		space: ident.New(bits),
	}
}

func (c *simCluster) config() Config {
	cfg := Config{
		Space:            c.space,
		StabilizeEvery:   200 * time.Millisecond,
		FixFingersEvery:  300 * time.Millisecond,
		PingEvery:        500 * time.Millisecond,
		SuccessorListLen: 4,
	}
	if c.tune != nil {
		c.tune(&cfg)
	}
	return cfg
}

// addNode creates a protocol node with the given identifier.
func (c *simCluster) addNode(id ident.ID) *Node {
	ep := c.net.Endpoint(transport.Addr(fmt.Sprintf("sim/%d", len(c.nodes))))
	n := New(ep, c.net.Clock(), id, c.config())
	c.nodes = append(c.nodes, n)
	return n
}

// buildRing creates n nodes with the given ids; the first creates the
// ring, the rest join at 50ms intervals. It then runs the simulation
// until the ring converges (or fails the test).
func (c *simCluster) buildRing(ids []ident.ID) {
	c.t.Helper()
	first := c.addNode(ids[0])
	first.Create()
	boot := first.Self().Addr
	for i, id := range ids[1:] {
		n := c.addNode(id)
		delay := time.Duration(i+1) * 50 * time.Millisecond
		c.eng.Schedule(delay, func() {
			n.Join(boot, func(err error) {
				if err != nil {
					c.t.Errorf("join %v: %v", n.Self(), err)
				}
			})
		})
	}
	c.awaitConvergence(120 * time.Second)
}

// awaitConvergence advances simulated time until successors,
// predecessors and finger tables all match the ideal static ring.
func (c *simCluster) awaitConvergence(limit time.Duration) {
	c.t.Helper()
	deadline := c.eng.Now() + sim.Time(limit)
	for c.eng.Now() < deadline {
		c.eng.RunFor(time.Second)
		if c.converged() {
			return
		}
	}
	c.t.Fatalf("ring did not converge within %v of simulated time", limit)
}

// live returns the running nodes.
func (c *simCluster) live() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n.Running() {
			out = append(out, n)
		}
	}
	return out
}

// idealRing builds the Ring snapshot of the currently running nodes.
func (c *simCluster) idealRing() *Ring {
	var ids []ident.ID
	for _, n := range c.live() {
		ids = append(ids, n.Self().ID)
	}
	r, err := NewRing(c.space, ids)
	if err != nil {
		c.t.Fatal(err)
	}
	return r
}

func (c *simCluster) converged() bool {
	live := c.live()
	if len(live) == 0 {
		return false
	}
	ring := c.idealRing()
	for _, n := range live {
		self := n.Self().ID
		if len(live) == 1 {
			if n.Successor().Addr != n.Self().Addr {
				return false
			}
			continue
		}
		if n.Successor().ID != ring.Succ(self) {
			return false
		}
		if p := n.Predecessor(); p.IsZero() || p.ID != ring.Pred(self) {
			return false
		}
		for j, f := range n.Routing().Fingers {
			if f.IsZero() || f.ID != ring.Finger(self, uint(j)) {
				return false
			}
		}
	}
	return true
}

func TestRingConvergence(t *testing.T) {
	c := newSimCluster(t, 1, 12, transport.SimConfig{})
	ids := EvenIDs(c.space, 16)
	c.buildRing(ids)
	// Converged (asserted inside buildRing). Check successor lists too.
	ring := c.idealRing()
	for _, n := range c.live() {
		list := n.Routing().Succs
		if len(list) < 2 {
			t.Fatalf("node %v successor list too short: %v", n.Self(), list)
		}
		expect := n.Self().ID
		for _, s := range list {
			expect = ring.Succ(expect)
			if s.ID != expect {
				t.Fatalf("node %v successor list %v diverges from ring order", n.Self(), list)
			}
		}
	}
}

func TestRingConvergenceRandomIDsWithLatencyJitter(t *testing.T) {
	c := newSimCluster(t, 7, 16, transport.SimConfig{
		Latency: sim.UniformLatency{Min: time.Millisecond, Max: 20 * time.Millisecond},
	})
	rng := c.eng.Rand()
	c.buildRing(RandomIDs(c.space, 24, rng))
}

func TestLookupCorrectness(t *testing.T) {
	c := newSimCluster(t, 3, 14, transport.SimConfig{})
	rng := c.eng.Rand()
	c.buildRing(RandomIDs(c.space, 20, rng))
	ring := c.idealRing()

	checks := 0
	for _, n := range c.live() {
		for trial := 0; trial < 5; trial++ {
			key := c.space.Wrap(rng.Uint64())
			want := ring.SuccessorOf(key)
			n.Lookup(key, func(got NodeRef, err error) {
				checks++
				if err != nil {
					t.Errorf("lookup %v from %v: %v", key, n.Self(), err)
					return
				}
				if got.ID != want {
					t.Errorf("lookup %v from %v = %v, want %v", key, n.Self(), got.ID, want)
				}
			})
		}
	}
	c.eng.RunFor(30 * time.Second)
	if checks != len(c.live())*5 {
		t.Fatalf("only %d lookups completed", checks)
	}
}

func TestLookupNotRunning(t *testing.T) {
	c := newSimCluster(t, 1, 8, transport.SimConfig{})
	n := c.addNode(5)
	called := false
	n.Lookup(1, func(_ NodeRef, err error) {
		called = true
		if err == nil {
			t.Error("lookup on stopped node succeeded")
		}
	})
	if !called {
		t.Fatal("callback not invoked")
	}
}

func TestProbingJoinSpreadsIdentifiers(t *testing.T) {
	c := newSimCluster(t, 5, 20, transport.SimConfig{})
	first := c.addNode(c.space.Wrap(12345))
	first.Create()
	boot := first.Self().Addr

	const n = 24
	joined := 0
	// Join probed nodes sequentially: each starts after the previous
	// finished plus a stabilization window, so probes see settled state.
	var joinNext func(i int)
	joinNext = func(i int) {
		if i >= n {
			return
		}
		node := c.addNode(0) // identifier assigned by the probe
		node.JoinProbed(boot, func(id ident.ID, err error) {
			if err != nil {
				t.Errorf("probed join %d: %v", i, err)
				return
			}
			joined++
			c.eng.Schedule(2*time.Second, func() { joinNext(i + 1) })
		})
	}
	c.eng.Schedule(time.Second, func() { joinNext(0) })
	c.eng.RunFor(5 * time.Minute)
	if joined != n {
		t.Fatalf("only %d/%d probed joins completed", joined, n)
	}
	c.awaitConvergence(3 * time.Minute)

	// Probe-local splitting cuts the largest visible interval inside its
	// middle half; at this small n the max/min ratio is a constant but
	// can reach a few powers of two. Random placement at n=25 typically
	// exceeds 100.
	ring := c.idealRing()
	if ratio := ring.GapRatio(); ratio > 32 {
		t.Errorf("probed protocol ring gap ratio %.1f, want small constant", ratio)
	}
}

// TestConcurrentProbingJoinsTakeDistinctIDs: sixteen probing joins
// started at one instant into a 4-node ring end with twenty distinct
// identifiers and a converged ring. Each joiner draws its probe from an
// rng seeded by its first identifier (a live peer's is the hash of its
// address), an owner answering several joiners at once offsets its split
// by each one's address, and a joiner that finds its identifier taken
// probes again.
func TestConcurrentProbingJoinsTakeDistinctIDs(t *testing.T) {
	c := newSimCluster(t, 7, 20, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 4))
	boot := c.nodes[0].Self().Addr
	const joiners = 16
	retries := 0
	for i := 0; i < joiners; i++ {
		n := c.addNode(c.space.HashString(fmt.Sprintf("sim/%d", len(c.nodes))))
		var try func()
		try = func() {
			n.JoinProbed(boot, func(_ ident.ID, err error) {
				if err != nil {
					retries++
					c.eng.Schedule(time.Second, try)
				}
			})
		}
		try()
	}
	c.eng.RunFor(30 * time.Second)
	held := map[ident.ID]bool{}
	for _, n := range c.live() {
		held[n.Self().ID] = true
	}
	if len(c.live()) != 4+joiners || len(held) != 4+joiners {
		t.Fatalf("%d running nodes hold %d distinct identifiers after %d retries, want %d",
			len(c.live()), len(held), retries, 4+joiners)
	}
	c.awaitConvergence(2 * time.Minute)
}

// TestJoinRefusesTakenID: a join whose identifier another live node
// already holds fails with ErrIDTaken instead of entering the ring
// beside it.
func TestJoinRefusesTakenID(t *testing.T) {
	c := newSimCluster(t, 8, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 4))
	dup := c.addNode(c.nodes[2].Self().ID)
	var err error
	dup.Join(c.nodes[0].Self().Addr, func(e error) { err = e })
	c.eng.RunFor(time.Second)
	if !errors.Is(err, ErrIDTaken) || dup.Running() {
		t.Fatalf("join onto a held identifier: err=%v running=%v, want ErrIDTaken", err, dup.Running())
	}
}

func TestGracefulLeaveHealsImmediately(t *testing.T) {
	c := newSimCluster(t, 2, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 12))
	victim := c.nodes[5]
	c.eng.Schedule(time.Second, func() { victim.Stop(true) })
	c.eng.RunFor(2 * time.Second)
	c.awaitConvergence(2 * time.Minute)
	for _, n := range c.live() {
		if n.Successor().Addr == victim.Self().Addr {
			t.Fatalf("node %v still points at departed %v", n.Self(), victim.Self())
		}
	}
}

func TestCrashFailureHealsViaStabilization(t *testing.T) {
	c := newSimCluster(t, 9, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 12))
	// Crash three nodes at once: no goodbye messages, endpoints die.
	for _, i := range []int{2, 3, 9} {
		victim := c.nodes[i]
		c.eng.Schedule(time.Second, func() {
			victim.Stop(false)
			// Crash: endpoint stops answering.
			victimEp := victim.ep
			_ = victimEp.Close()
		})
	}
	c.eng.RunFor(5 * time.Second)
	c.awaitConvergence(5 * time.Minute)
	if got := len(c.live()); got != 9 {
		t.Fatalf("live nodes = %d, want 9", got)
	}
}

func TestBroadcastReachesAllOnce(t *testing.T) {
	c := newSimCluster(t, 4, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 16))

	got := make(map[ident.ID]int)
	for _, n := range c.live() {
		n := n
		n.OnBroadcast("test.payload", func(from NodeRef, payload []byte) {
			got[n.Self().ID]++
			if string(payload) != "hello" {
				t.Errorf("payload = %q", payload)
			}
		})
	}
	origin := c.nodes[3]
	c.eng.Schedule(time.Second, func() { origin.Broadcast("test.payload", []byte("hello")) })
	c.eng.RunFor(10 * time.Second)

	if len(got) != 16 {
		t.Fatalf("broadcast reached %d/16 nodes", len(got))
	}
	for id, count := range got {
		if count != 1 {
			t.Errorf("node %v received broadcast %d times", id, count)
		}
	}
}

func TestBroadcastMessageCount(t *testing.T) {
	c := newSimCluster(t, 4, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 32))
	var bcastMsgs int
	c.net.SetTap(transport.TapFunc(func(_, _ transport.Addr, typ string, _ bool) {
		if typ == MsgBroadcast {
			bcastMsgs++
		}
	}))
	c.eng.Schedule(time.Second, func() { c.nodes[0].Broadcast("x", nil) })
	c.eng.RunFor(10 * time.Second)
	// Exactly one delivery per non-origin node over converged tables.
	if bcastMsgs != 31 {
		t.Fatalf("broadcast used %d messages, want 31 (n-1)", bcastMsgs)
	}
}

func TestEstimatedGapAndSize(t *testing.T) {
	c := newSimCluster(t, 6, 16, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 16))
	trueGap := c.space.Size() / 16
	for _, n := range c.live() {
		g := n.Routing().Gap
		if g < trueGap/4 || g > trueGap*4 {
			t.Errorf("node %v gap estimate %d far from true %d", n.Self(), g, trueGap)
		}
		sz := n.EstimatedNetworkSize()
		if sz < 4 || sz > 64 {
			t.Errorf("node %v size estimate %d far from 16", n.Self(), sz)
		}
	}
	// A lone node estimates the whole ring as its gap.
	lone := newSimCluster(t, 6, 16, transport.SimConfig{})
	n := lone.addNode(1)
	n.Create()
	lone.eng.RunFor(time.Second)
	if g := n.Routing().Gap; g != lone.space.Size() {
		t.Errorf("lone gap = %d, want ring size", g)
	}
}

func TestTwoNodeRing(t *testing.T) {
	c := newSimCluster(t, 8, 10, transport.SimConfig{})
	a := c.addNode(10)
	a.Create()
	b := c.addNode(700)
	c.eng.Schedule(100*time.Millisecond, func() {
		b.Join(a.Self().Addr, func(err error) {
			if err != nil {
				t.Errorf("join: %v", err)
			}
		})
	})
	c.awaitConvergence(time.Minute)
	if a.Successor().ID != 700 || b.Successor().ID != 10 {
		t.Fatalf("two-node ring wrong: a.succ=%v b.succ=%v", a.Successor(), b.Successor())
	}
	if a.Predecessor().ID != 700 || b.Predecessor().ID != 10 {
		t.Fatalf("two-node preds wrong: a.pred=%v b.pred=%v", a.Predecessor(), b.Predecessor())
	}
}

func TestStopIdempotentAndNotRunning(t *testing.T) {
	c := newSimCluster(t, 12, 10, transport.SimConfig{})
	n := c.addNode(4)
	n.Create()
	c.eng.RunFor(time.Second)
	if !n.Running() {
		t.Fatal("node not running after Create")
	}
	n.Stop(true)
	n.Stop(true)
	if n.Running() {
		t.Fatal("node running after Stop")
	}
	c.eng.RunFor(5 * time.Second) // maintenance loops must be quiet
}

// TestLeaveSplicesNeighbors: a graceful leave hands its predecessor its
// successor list and its successor its predecessor, healing the ring
// without waiting for timeouts.
func TestLeaveSplicesNeighbors(t *testing.T) {
	c := newSimCluster(t, 21, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 8))
	ring := c.idealRing()
	victim := c.nodes[3]
	vid := victim.Self().ID
	predID, succID := ring.Pred(vid), ring.Succ(vid)
	var pred, succ *Node
	for _, n := range c.nodes {
		switch n.Self().ID {
		case predID:
			pred = n
		case succID:
			succ = n
		}
	}
	c.eng.Schedule(time.Second, func() { victim.Stop(true) })
	// A couple of message latencies later — well before any maintenance
	// tick — the neighbors are already spliced.
	c.eng.RunFor(time.Second + 50*time.Millisecond)
	if got := pred.Successor().ID; got != succID {
		t.Fatalf("predecessor's successor = %v, want %v immediately after leave", got, succID)
	}
	if got := succ.Predecessor(); got.IsZero() || got.ID != predID {
		t.Fatalf("successor's predecessor = %v, want %v immediately after leave", got, predID)
	}
}

// TestEstimatedNetworkSizeTracksN: the successor-list density estimate
// is within a small factor of the true size across scales.
func TestEstimatedNetworkSizeTracksN(t *testing.T) {
	for _, n := range []int{8, 32, 64} {
		c := newSimCluster(t, int64(n), 16, transport.SimConfig{})
		c.buildRing(EvenIDs(c.space, n))
		for _, nd := range c.live() {
			est := nd.EstimatedNetworkSize()
			if est < uint64(n)/4 || est > uint64(n)*4 {
				t.Errorf("n=%d: node %v estimates %d", n, nd.Self().ID, est)
			}
		}
	}
}

// TestDispatchUnknownTypeErrors: an unregistered message type yields an
// error reply, not silence.
func TestDispatchUnknownTypeErrors(t *testing.T) {
	c := newSimCluster(t, 23, 10, transport.SimConfig{})
	a := c.addNode(1)
	b := c.addNode(500)
	a.Create()
	_ = b
	gotErr := false
	c.eng.Schedule(time.Second, func() {
		ep := c.net.Endpoint("probe")
		ep.Call(a.Self().Addr, "bogus.type", StepReq{}, func(_ any, err error) {
			gotErr = err != nil
		})
	})
	c.eng.RunFor(5 * time.Second)
	if !gotErr {
		t.Fatal("unknown type did not error")
	}
}

// TestBroadcastBeforeConvergence: a freshly created lone node can
// broadcast (self-delivery only) without panicking.
func TestBroadcastBeforeConvergence(t *testing.T) {
	c := newSimCluster(t, 29, 10, transport.SimConfig{})
	n := c.addNode(7)
	n.Create()
	got := 0
	n.OnBroadcast("t", func(NodeRef, []byte) { got++ })
	c.eng.Schedule(time.Second, func() { n.Broadcast("t", []byte("x")) })
	c.eng.RunFor(3 * time.Second)
	if got != 1 {
		t.Fatalf("self-delivery count = %d", got)
	}
}

// TestSeedStateMatchesProtocolState: seeding from an ideal ring yields
// the same observable state as protocol convergence.
func TestSeedStateMatchesProtocolState(t *testing.T) {
	c := newSimCluster(t, 31, 12, transport.SimConfig{})
	ids := EvenIDs(c.space, 8)
	ring, err := NewRing(c.space, ids)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[ident.ID]NodeRef{}
	var nodes []*Node
	for _, id := range ids {
		n := c.addNode(id)
		byID[id] = n.Self()
		nodes = append(nodes, n)
	}
	for i, n := range nodes {
		self := ids[i]
		var succs []NodeRef
		cur := self
		for k := 0; k < 3; k++ {
			cur = ring.Succ(cur)
			succs = append(succs, byID[cur])
		}
		fingers := make([]NodeRef, c.space.Bits())
		for j := range fingers {
			fingers[j] = byID[ring.Finger(self, uint(j))]
		}
		n.SeedState(byID[ring.Pred(self)], succs, fingers)
	}
	c.eng.RunFor(5 * time.Second)
	if !c.converged() {
		t.Fatal("seeded ring not converged")
	}
	// Lookups work right away.
	done := 0
	for _, n := range nodes {
		key := c.space.Wrap(c.eng.Rand().Uint64())
		want := ring.SuccessorOf(key)
		n.Lookup(key, func(got NodeRef, err error) {
			done++
			if err != nil || got.ID != want {
				t.Errorf("seeded lookup: got %v err %v want %v", got.ID, err, want)
			}
		})
	}
	c.eng.RunFor(10 * time.Second)
	if done != len(nodes) {
		t.Fatalf("%d lookups completed", done)
	}
}

// TestConcurrentLookupsDuringChurn: lookups issued while nodes crash
// either succeed with a live owner or fail cleanly — never hang.
func TestConcurrentLookupsDuringChurn(t *testing.T) {
	c := newSimCluster(t, 37, 14, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 24))
	completed, failed := 0, 0
	for trial := 0; trial < 40; trial++ {
		trial := trial
		c.eng.Schedule(time.Duration(trial)*200*time.Millisecond, func() {
			src := c.nodes[trial%len(c.nodes)]
			if !src.Running() {
				completed++
				return
			}
			key := c.space.Wrap(c.eng.Rand().Uint64())
			src.Lookup(key, func(_ NodeRef, err error) {
				completed++
				if err != nil {
					failed++
				}
			})
		})
	}
	// Crash a quarter of the ring mid-way through the lookup storm.
	c.eng.Schedule(4*time.Second, func() {
		for i := 0; i < 6; i++ {
			c.nodes[i].Stop(false)
			_ = c.nodes[i].ep.Close()
		}
	})
	c.eng.RunFor(60 * time.Second)
	if completed != 40 {
		t.Fatalf("completed %d/40 lookups (hang?)", completed)
	}
	if failed > 20 {
		t.Fatalf("%d/40 lookups failed, too fragile", failed)
	}
}

// TestSuspectSuccessorRepairsViaSuccessorList crashes one node's
// immediate successor and verifies the two-strike suspicion path: the
// predecessor falls back to the next entry of its successor list and the
// crashed node's keys route to the new owner — no black hole.
func TestSuspectSuccessorRepairsViaSuccessorList(t *testing.T) {
	c := newSimCluster(t, 31, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 10))
	victim := c.nodes[4]
	victimID := victim.Self().ID
	pred := c.nodes[3] // EvenIDs are sorted, so node 3 precedes node 4
	fallback := pred.Routing().Succs
	if len(fallback) < 2 || fallback[0].Addr != victim.Self().Addr {
		t.Fatalf("precondition: node 3 successor list %v should lead with the victim", fallback)
	}
	c.eng.Schedule(time.Second, func() {
		victim.Stop(false)
		_ = victim.ep.Close()
	})
	c.eng.RunFor(5 * time.Second)
	c.awaitConvergence(2 * time.Minute)
	if got, want := pred.Successor().Addr, fallback[1].Addr; got != want {
		t.Fatalf("node 3 successor = %v, want successor-list fallback %v", got, want)
	}
	// The crashed node's identifier must now resolve to its old successor.
	ring := c.idealRing()
	var got NodeRef
	var gotErr error
	done := false
	pred.Lookup(victimID, func(ref NodeRef, err error) { got, gotErr, done = ref, err, true })
	c.eng.RunFor(10 * time.Second)
	if !done || gotErr != nil {
		t.Fatalf("lookup(%v) done=%v err=%v", victimID, done, gotErr)
	}
	if want := ring.SuccessorOf(victimID); got.ID != want {
		t.Fatalf("lookup(%v) = %v, want new owner %v", victimID, got.ID, want)
	}
}

// TestNoBlackHoleAfterPartitionHeal partitions a node from its successor
// long enough for suspicion to reroute around the link, heals, and then
// verifies every node resolves every member's identifier to the ideal
// owner — the ring must re-knit with no residual routing holes.
func TestNoBlackHoleAfterPartitionHeal(t *testing.T) {
	c := newSimCluster(t, 37, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 8))
	a, b := c.nodes[2], c.nodes[3]
	c.eng.Schedule(time.Second, func() {
		c.net.Partition(a.Self().Addr, b.Self().Addr)
	})
	c.eng.RunFor(30 * time.Second)
	c.net.HealAll()
	c.awaitConvergence(2 * time.Minute)
	ring := c.idealRing()
	for _, src := range c.nodes {
		for _, dst := range c.nodes {
			key := dst.Self().ID
			var got NodeRef
			var gotErr error
			done := false
			src.Lookup(key, func(ref NodeRef, err error) { got, gotErr, done = ref, err, true })
			c.eng.RunFor(10 * time.Second)
			if !done || gotErr != nil {
				t.Fatalf("lookup(%v) from %v: done=%v err=%v", key, src.Self().ID, done, gotErr)
			}
			if want := ring.SuccessorOf(key); got.ID != want {
				t.Fatalf("lookup(%v) from %v = %v, want %v", key, src.Self().ID, got.ID, want)
			}
		}
	}
}

// TestJoinRefusesStaleIncarnation crashes a node and immediately brings
// up a fresh incarnation at the same identifier and address. While the
// ring's tables still resolve the identifier to the ghost, Join must
// fail with ErrStaleIncarnation rather than coming up alone (which would
// split the overlay permanently); once suspicion evicts the ghost,
// retries succeed and the ring re-converges with the new incarnation.
func TestJoinRefusesStaleIncarnation(t *testing.T) {
	c := newSimCluster(t, 41, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 8))
	victim := c.nodes[5]
	id, addr := victim.Self().ID, victim.Self().Addr
	boot := c.nodes[0].Self().Addr

	victim.Stop(false)
	_ = victim.ep.Close()

	fresh := New(c.net.Endpoint(addr), c.net.Clock(), id, c.config())
	c.nodes[5] = fresh
	sawStale := false
	joined := false
	var join func()
	join = func() {
		fresh.Join(boot, func(err error) {
			switch {
			case err == nil:
				joined = true
			case errors.Is(err, ErrStaleIncarnation):
				sawStale = true
				c.eng.Schedule(500*time.Millisecond, join)
			default:
				// Transient routing errors while the ghost is evicted are
				// fine; keep retrying.
				c.eng.Schedule(500*time.Millisecond, join)
			}
		})
	}
	c.eng.Schedule(10*time.Millisecond, join)
	deadline := c.eng.Now() + sim.Time(2*time.Minute)
	for !joined && c.eng.Now() < deadline {
		c.eng.RunFor(time.Second)
	}
	if !sawStale {
		t.Fatal("join never observed ErrStaleIncarnation while the ghost was live in the ring's tables")
	}
	if !joined {
		t.Fatal("join never succeeded after the ghost was evicted")
	}
	c.awaitConvergence(2 * time.Minute)
	if got := len(c.live()); got != 8 {
		t.Fatalf("live nodes = %d, want 8", got)
	}
}

// TestDispatchRefusesWhenNotRunning: a constructed-but-not-started node
// must answer every request with an error. A recycled address that
// answered pings for its dead predecessor incarnation would keep the
// ghost alive in its neighbors' tables forever.
func TestDispatchRefusesWhenNotRunning(t *testing.T) {
	c := newSimCluster(t, 43, 10, transport.SimConfig{})
	a := c.addNode(1)
	a.Create()
	idle := c.addNode(500) // never Created or Joined
	var gotErr error
	done := false
	c.eng.Schedule(time.Second, func() {
		a.ep.Call(idle.Self().Addr, MsgPing, PingReq{}, func(_ any, err error) {
			gotErr, done = err, true
		})
	})
	c.eng.RunFor(5 * time.Second)
	if !done {
		t.Fatal("ping to idle node never completed")
	}
	if !errors.Is(gotErr, ErrNotRunning) {
		t.Fatalf("ping to idle node returned %v, want ErrNotRunning", gotErr)
	}
}

// TestJoinAdoptsSuccessorList: a successful join must leave the joiner
// with its successor's whole successor list, not a fragile single entry
// — otherwise one crash in the window before the first stabilization
// strands the joiner alone.
func TestJoinAdoptsSuccessorList(t *testing.T) {
	c := newSimCluster(t, 47, 12, transport.SimConfig{})
	c.buildRing(EvenIDs(c.space, 8))
	id := c.space.HashString("late-joiner")
	late := c.addNode(id)
	joined := false
	c.eng.Schedule(10*time.Millisecond, func() {
		late.Join(c.nodes[0].Self().Addr, func(err error) {
			if err != nil {
				t.Errorf("join: %v", err)
			}
			joined = true
			if got := len(late.Routing().Succs); got < 2 {
				t.Errorf("successor list right after join has %d entries, want >= 2", got)
			}
		})
	})
	c.eng.RunFor(5 * time.Second)
	if !joined {
		t.Fatal("join never completed")
	}
	c.awaitConvergence(2 * time.Minute)
}
