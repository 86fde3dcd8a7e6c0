package chord

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
)

// viewCopy is a deep copy of a routing view, sharing no memory with it.
func viewCopy(rt *Routing) Routing {
	c := *rt
	c.Succs = append([]NodeRef(nil), rt.Succs...)
	c.Fingers = append([]NodeRef(nil), rt.Fingers...)
	c.state.Successors = append([]NodeRef(nil), rt.state.Successors...)
	c.state.Fingers = append([]NodeRef(nil), rt.state.Fingers...)
	c.hops = append([]hop(nil), rt.hops...)
	return c
}

func sameContent(a, b *Routing) bool {
	return a.Self == b.Self && a.Pred == b.Pred && slices.Equal(a.Succs, b.Succs) && slices.Equal(a.Fingers, b.Fingers)
}

// TestRoutingVersionDiscipline drives random interleavings of every
// operation that touches routing state and checks the copy-on-write
// contract after each step: an unchanged Version means the very same,
// unmodified view (a missed bump or an in-place write fails here), a
// Version one higher means the content really changed (a spurious bump
// fails here), versions only move forward, Gap always matches the
// successor list, the derived tables (the GetState reply, the next-hop
// table) are what the view's content says — equal under an equal
// Version, rebuilt under a new one — and no view ever handed out is
// modified afterwards, its derived tables included: a receiver of a
// GetState reply that wrote through the Successors it shares with the
// view would fail the deep comparison. Concurrent readers
// walk the views meanwhile, so under -race an in-place write to a
// published view is a reported data race.
func TestRoutingVersionDiscipline(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { routingDiscipline(t, seed) })
	}
}

func routingDiscipline(t *testing.T, seed int64) {
	const nodes, steps = 6, 400
	c := newSimCluster(t, seed, 12, transport.SimConfig{})
	rng := rand.New(rand.NewSource(seed))
	for _, id := range RandomIDs(c.space, nodes, rng) {
		c.addNode(id)
	}
	refs := make([]NodeRef, nodes)
	for i, n := range c.nodes {
		refs[i] = n.Self()
	}

	// Readers: every view must be internally consistent, and versions
	// only grow.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSeen := make([]uint64, nodes)
			for i := 0; ; i = (i + 1) % nodes {
				select {
				case <-stop:
					return
				default:
				}
				n := c.nodes[i]
				rt := n.Routing()
				if rt.Version < lastSeen[i] {
					t.Errorf("node %d: version went back: %d after %d", i, rt.Version, lastSeen[i])
					return
				}
				lastSeen[i] = rt.Version
				if g := estimateGap(n.space, rt.Self, rt.Succs); g != rt.Gap {
					t.Errorf("node %d view v%d: Gap %d, successor list says %d", i, rt.Version, rt.Gap, g)
					return
				}
				for _, f := range rt.Fingers {
					_ = f.Addr
				}
				_ = rt.closestPreceding(rt.Pred.ID)
				for _, f := range rt.state.Fingers {
					_ = f.Addr
				}
				runtime.Gosched()
			}
		}()
	}

	type held struct {
		rt   *Routing
		copy Routing
	}
	last := make([]held, nodes)
	var everSeen []held
	for i, n := range c.nodes {
		rt := n.Routing()
		checkDerived(t, rt)
		last[i] = held{rt, viewCopy(rt)}
		everSeen = append(everSeen, last[i])
	}
	audit := func(step int, op string) {
		for i, n := range c.nodes {
			rt := n.Routing()
			prev := last[i]
			if rt.Version == prev.rt.Version {
				if rt != prev.rt {
					t.Fatalf("step %d %s: node %d republished v%d", step, op, i, rt.Version)
				}
				if !reflect.DeepEqual(viewCopy(rt), prev.copy) {
					t.Fatalf("step %d %s: node %d content changed under v%d:\n got %+v\nwant %+v", step, op, i, rt.Version, *rt, prev.copy)
				}
				continue
			}
			if rt.Version < prev.rt.Version {
				t.Fatalf("step %d %s: node %d version %d -> %d", step, op, i, prev.rt.Version, rt.Version)
			}
			// Several mutations may go A -> B -> A; a single one must differ.
			if rt.Version == prev.rt.Version+1 && sameContent(rt, &prev.copy) {
				t.Fatalf("step %d %s: node %d bumped v%d -> v%d without a change", step, op, i, prev.rt.Version, rt.Version)
			}
			if g := estimateGap(c.space, rt.Self, rt.Succs); g != rt.Gap {
				t.Fatalf("step %d %s: node %d Gap %d, want %d", step, op, i, rt.Gap, g)
			}
			checkDerived(t, rt)
			last[i] = held{rt, viewCopy(rt)}
			everSeen = append(everSeen, last[i])
		}
	}

	pick := func() (int, *Node) { i := rng.Intn(nodes); return i, c.nodes[i] }
	running := func() *Node {
		for _, j := range rng.Perm(nodes) {
			if c.nodes[j].Running() {
				return c.nodes[j]
			}
		}
		return nil
	}
	randRefs := func(k int) []NodeRef {
		out := make([]NodeRef, k)
		for j := range out {
			out[j] = refs[rng.Intn(nodes)]
		}
		return out
	}
	for step := 0; step < steps; step++ {
		i, n := pick()
		op := ""
		switch r := rng.Intn(10); r {
		case 0:
			op = "create"
			if !n.Running() {
				n.Create()
			}
		case 1:
			op = "join"
			if boot := running(); boot != nil && !n.Running() && boot != n {
				n.Join(boot.Self().Addr, func(error) {})
			}
		case 2:
			op = "seed"
			if !n.Running() {
				var fingers []NodeRef
				if rng.Intn(2) == 0 {
					fingers = randRefs(int(c.space.Bits()))
				}
				n.SeedState(refs[rng.Intn(nodes)], randRefs(rng.Intn(4)), fingers)
			}
		case 3:
			op = "notify"
			if n.Running() {
				n.handleNotify(&transport.Request{From: refs[rng.Intn(nodes)].Addr, Type: MsgNotify,
					Payload: NotifyReq{Candidate: refs[rng.Intn(nodes)]}})
			}
		case 4:
			op = "stabilize"
			n.stabilize()
		case 5:
			op = "fixFingers"
			n.fixFingers()
		case 6:
			op = "suspect-evict"
			victim := refs[rng.Intn(nodes)].Addr
			n.report(victim, ChordFailed, nil)
			n.report(victim, ChordFailed, nil)
		case 7:
			op = "leave"
			if n.Running() && rng.Intn(3) == 0 {
				n.Stop(true)
			}
		case 8:
			op = "leave-msg"
			if n.Running() {
				n.handleLeave(&transport.Request{From: refs[rng.Intn(nodes)].Addr, Type: MsgLeave,
					Payload: LeaveReq{Departing: refs[rng.Intn(nodes)], Predecessor: refs[rng.Intn(nodes)], Successors: randRefs(rng.Intn(4))}})
			}
		default:
			op = "run"
			c.eng.RunFor(time.Duration(rng.Intn(400)) * time.Millisecond)
		}
		audit(step, fmt.Sprintf("%s(node %d)", op, i))
	}
	close(stop)
	wg.Wait()
	for _, h := range everSeen {
		if !reflect.DeepEqual(viewCopy(h.rt), h.copy) {
			t.Fatalf("view v%d of %v was modified after it was published", h.copy.Version, h.copy.Self)
		}
	}
	if len(everSeen) < 10*nodes {
		t.Fatalf("only %d views published over %d steps: the schedule exercises nothing", len(everSeen), steps)
	}
}

// TestRoutingQuietRingKeepsVersion: once a ring has converged,
// maintenance rewrites the same values every round and must neither
// bump the version nor allocate a view.
func TestRoutingQuietRingKeepsVersion(t *testing.T) {
	c := newSimCluster(t, 7, 16, transport.SimConfig{})
	c.buildRing([]ident.ID{100, 9000, 21000, 40000, 52000})
	c.eng.RunFor(30 * time.Second)
	before := make([]*Routing, len(c.nodes))
	for i, n := range c.nodes {
		before[i] = n.Routing()
	}
	c.eng.RunFor(60 * time.Second)
	for i, n := range c.nodes {
		if rt := n.Routing(); rt != before[i] {
			t.Errorf("node %d: quiet ring moved v%d -> v%d", i, before[i].Version, rt.Version)
		}
	}
}

// TestRoutingAllocs pins Routing() on a quiet node at zero allocations.
func TestRoutingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := newSimCluster(t, 3, 16, transport.SimConfig{})
	c.buildRing([]ident.ID{100, 9000, 21000})
	n := c.nodes[0]
	var sink *Routing
	if allocs := testing.AllocsPerRun(1000, func() { sink = n.Routing() }); allocs != 0 {
		t.Errorf("Routing() on a quiet node allocates %.1f/op; budget is 0", allocs)
	}
	_ = sink
}

// TestRoutingReadersNeedNoLock: Routing() is an atomic load, so it
// answers while the node's lock is held, and readers running flat out
// beside a ring that is still stabilising (joins, then a crash) see
// versions that only grow and views that agree with themselves. Under
// -race an unpublished or torn view is a reported data race.
func TestRoutingReadersNeedNoLock(t *testing.T) {
	c := newSimCluster(t, 11, 16, transport.SimConfig{})
	c.buildRing([]ident.ID{100, 9000, 21000, 40000, 52000})

	n := c.nodes[0]
	n.mu.Lock()
	got := make(chan *Routing, 1)
	go func() { got <- n.Routing() }()
	select {
	case rt := <-got:
		if rt != n.rt {
			t.Error("Routing() returned a view other than the node's current one")
		}
	case <-time.After(5 * time.Second):
		t.Error("Routing() waited for Node.mu")
	}
	n.mu.Unlock()

	watched := slices.Clone(c.nodes) // addNode below grows c.nodes
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[*Node]uint64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, n := range watched {
					rt := n.Routing()
					if rt.Version < last[n] {
						t.Errorf("node %v: version went back: %d after %d", rt.Self, rt.Version, last[n])
						return
					}
					last[n] = rt.Version
					if g := estimateGap(n.space, rt.Self, rt.Succs); g != rt.Gap {
						t.Errorf("node %v view v%d: Gap %d, successor list says %d", rt.Self, rt.Version, rt.Gap, g)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	before := c.nodes[1].Routing().Version
	for _, id := range []ident.ID{3000, 30000, 60000} {
		c.addNode(id).Join(c.nodes[0].Self().Addr, func(error) {})
		c.eng.RunFor(2 * time.Second)
	}
	c.nodes[2].Stop(false)
	c.eng.RunFor(20 * time.Second)
	close(stop)
	wg.Wait()
	if after := c.nodes[1].Routing().Version; after == before {
		t.Fatal("the ring never changed: the readers raced nothing")
	}
}
