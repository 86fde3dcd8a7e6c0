package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestParentMemoMatchesFreshUnderChurn: across a churning 64-node ring
// the memoised ParentFor must answer exactly what an un-memoised
// parentFrom answers on the node's current routing view, for every tree
// the node runs (ticks and update guards fill the memo between checks).
// A routing change that failed to bump Routing.Version shows up here as
// a stale parent.
func TestParentMemoMatchesFreshUnderChurn(t *testing.T) {
	for _, scheme := range []core.Scheme{core.Basic, core.BalancedLocal, core.Balanced} {
		t.Run(scheme.String(), func(t *testing.T) {
			const n = 64
			c := newCluster(t, cluster.Options{N: n, Seed: 41, Scheme: scheme, Local: localByIndex})
			rng := rand.New(rand.NewSource(43))
			trees := make([]ident.ID, 4)
			for i := range trees {
				trees[i] = c.Space.HashString(fmt.Sprintf("memo-tree-%d", i))
				if _, err := c.StartContinuousAll(trees[i], time.Second); err != nil {
					t.Fatal(err)
				}
			}
			check := func(round int) {
				for i, d := range c.DAT {
					for _, key := range trees {
						// Twice: the first call may fill the memo, the
						// second must hit it.
						for pass := 0; pass < 2; pass++ {
							parent, isRoot, ok := d.ParentFor(key)
							wantParent, wantRoot, _, wantOK := d.ParentForExcluding(key, nil)
							if parent != wantParent || isRoot != wantRoot || ok != wantOK {
								t.Fatalf("round %d node %d key %v pass %d: memoised (%v root=%v ok=%v), fresh (%v root=%v ok=%v)",
									round, i, key, pass, parent, isRoot, ok, wantParent, wantRoot, wantOK)
							}
						}
					}
				}
			}
			var down []int
			for round := 0; round < 60; round++ {
				switch {
				case len(down) > 0 && rng.Intn(2) == 0:
					i := down[0]
					down = down[1:]
					c.Rejoin(i)
					for _, key := range trees {
						if err := c.DAT[i].StartContinuous(key, time.Second, nil); err != nil {
							t.Fatal(err)
						}
					}
				case len(down) < n/4:
					i := rng.Intn(n)
					if c.Chord[i].Running() {
						c.Crash(i)
						down = append(down, i)
					}
				}
				check(round)
				c.RunFor(time.Duration(100+rng.Intn(1500)) * time.Millisecond)
				check(round)
			}
		})
	}
}

// TestParentMemoFollowsRoutingVersion: evicting a tree's current parent
// moves the routing Version, and the next ParentFor must answer from
// the new view, not from the memo.
func TestParentMemoFollowsRoutingVersion(t *testing.T) {
	c := newCluster(t, cluster.Options{N: 16, Seed: 5})
	key := c.Space.HashString("memo")
	if _, err := c.StartContinuousAll(key, time.Second); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	i := 0
	for ; i < len(c.DAT); i++ {
		if _, isRoot, ok := c.DAT[i].ParentFor(key); ok && !isRoot {
			break
		}
	}
	d, ch := c.DAT[i], c.Chord[i]
	v := ch.Routing().Version
	before, _, _ := d.ParentFor(key)
	ch.Report(before.Addr, chord.ChordFailed, nil, 0, 0)
	ch.Report(before.Addr, chord.ChordFailed, nil, 0, 0)
	if ch.Routing().Version == v {
		t.Fatalf("evicting %v did not move the routing version", before)
	}
	after, isRoot, ok := d.ParentFor(key)
	if ok && !isRoot && after.Addr == before.Addr {
		t.Fatalf("ParentFor still answers the evicted parent %v", before)
	}
	if want, wantRoot, _, wantOK := d.ParentForExcluding(key, nil); after != want || isRoot != wantRoot || ok != wantOK {
		t.Fatalf("memoised %v, fresh %v", after, want)
	}
}

// TestUnjoinedNodeIsNoRoot: a node that has neither created nor joined a
// ring has an empty successor list, which is "undecided", not "alone" —
// it must not report itself root of every tree while it is still
// joining. Create makes it the lone root.
func TestUnjoinedNodeIsNoRoot(t *testing.T) {
	eng := sim.NewEngine(3)
	net := transport.NewSimNetwork(eng, transport.SimConfig{})
	space := ident.New(16)
	ep := net.Endpoint("sim/0")
	ch := chord.New(ep, net.Clock(), 4242, chord.Config{Space: space})
	d := core.NewNode(ch, ep, net.Clock(), core.NodeConfig{
		Local: func(ident.ID) (float64, bool) { return 1, true },
	})
	const key = ident.ID(9000)
	if parent, isRoot, ok := d.ParentFor(key); ok {
		t.Fatalf("unjoined node decided its parent: %v root=%v", parent, isRoot)
	}
	results := 0
	if err := d.StartContinuous(key, time.Second, func(int64, core.Aggregate) { results++ }); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3 * time.Second)
	if _, _, ok := d.LastResult(key); ok || results != 0 {
		t.Fatalf("unjoined node surfaced %d root results", results)
	}
	ch.Create()
	if parent, isRoot, ok := d.ParentFor(key); !ok || !isRoot || parent.Addr != ep.Addr() {
		t.Fatalf("created lone node: parent %v root=%v ok=%v, want itself as root", parent, isRoot, ok)
	}
	eng.RunFor(2 * time.Second)
	if results == 0 {
		t.Fatal("created lone node surfaced no root result")
	}
}
