package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
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
	ch.Suspect(before.Addr)
	ch.Suspect(before.Addr)
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
