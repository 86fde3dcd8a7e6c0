package maan

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
)

// checkArcs fails the test unless the table is within its bound, sorted
// by owner and pairwise disjoint.
func checkArcs(t *testing.T, tab *arcTable) {
	t.Helper()
	if len(tab.arcs) > maxOwnerArcs {
		t.Fatalf("table holds %d arcs, bound is %d", len(tab.arcs), maxOwnerArcs)
	}
	for i, a := range tab.arcs {
		if i > 0 && !ident.Less(tab.arcs[i-1].owner.ID, a.owner.ID) {
			t.Fatalf("arcs %d and %d out of order: %v then %v", i-1, i, tab.arcs[i-1].owner.ID, a.owner.ID)
		}
		// Disjoint from the previous owner's arc: this one starts
		// after that owner.
		prev := tab.arcs[(i+len(tab.arcs)-1)%len(tab.arcs)]
		if len(tab.arcs) > 1 && tab.space.Dist(prev.owner.ID, a.owner.ID) <= tab.width(a) {
			t.Fatalf("arc [%v, %v] reaches back over the owner before it, %v", a.lo, a.owner.ID, prev.owner.ID)
		}
	}
}

// arcModel is a ring known exactly: the nodes alive, by identifier.
type arcModel struct {
	space ident.Space
	ids   []ident.ID // sorted
}

func (m *arcModel) ref(id ident.ID) chord.NodeRef {
	return chord.NodeRef{ID: id, Addr: transport.Addr(fmt.Sprintf("node/%d", uint64(id)))}
}

func (m *arcModel) succ(k ident.ID) chord.NodeRef {
	i := sort.Search(len(m.ids), func(i int) bool { return !ident.Less(m.ids[i], k) })
	return m.ref(m.ids[i%len(m.ids)])
}

func (m *arcModel) join(id ident.ID) {
	i := sort.Search(len(m.ids), func(i int) bool { return !ident.Less(m.ids[i], id) })
	if i < len(m.ids) && m.ids[i] == id {
		return
	}
	m.ids = append(m.ids, 0)
	copy(m.ids[i+1:], m.ids[i:])
	m.ids[i] = id
}

func (m *arcModel) leave(i int) { m.ids = append(m.ids[:i], m.ids[i+1:]...) }

func randomModel(rng *rand.Rand, space ident.Space, n int) *arcModel {
	m := &arcModel{space: space}
	for len(m.ids) < n {
		m.join(space.Wrap(rng.Uint64()))
	}
	return m
}

// TestArcTableIsExactOnAStaticRing: whatever lookups taught it, the
// table names the true owner of every key it claims to know, and a key
// just looked up is known.
func TestArcTableIsExactOnAStaticRing(t *testing.T) {
	space := ident.New(16)
	for _, n := range []int{1, 2, 7, 64, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		m := randomModel(rng, space, n)
		tab := &arcTable{space: space}
		hits := 0
		for q := 0; q < 20*n+200; q++ {
			k := space.Wrap(rng.Uint64())
			want := m.succ(k)
			got, hit := tab.find(k)
			if hit && got != want {
				t.Fatalf("n=%d: table says %v owns %v, the ring says %v", n, got, k, want)
			}
			if hit {
				hits++
				continue
			}
			tab.learn(k, want)
			checkArcs(t, tab)
			if got, hit := tab.find(k); len(tab.arcs) < maxOwnerArcs && (!hit || got != want) {
				t.Fatalf("n=%d: after learning %v -> %v the table answers %v, %v", n, k, want, got, hit)
			}
		}
		if hits == 0 {
			t.Errorf("n=%d: no key ever hit", n)
		}
		if n <= maxOwnerArcs && len(tab.arcs) > n {
			t.Errorf("n=%d: %d arcs for %d owners", n, len(tab.arcs), n)
		}
	}
}

// TestArcTableKeepsTheWidestArcs: at its bound the table trades a
// narrow arc for a wider one and never the other way.
func TestArcTableKeepsTheWidestArcs(t *testing.T) {
	space := ident.New(32)
	rng := rand.New(rand.NewSource(3))
	m := randomModel(rng, space, 4*maxOwnerArcs)
	tab := &arcTable{space: space}
	narrowest := func() uint64 {
		min := tab.width(tab.arcs[0])
		for _, a := range tab.arcs {
			if w := tab.width(a); w < min {
				min = w
			}
		}
		return min
	}
	var floor uint64
	for q := 0; q < 40*maxOwnerArcs; q++ {
		k := space.Wrap(rng.Uint64())
		if _, hit := tab.find(k); hit {
			continue
		}
		tab.learn(k, m.succ(k))
		checkArcs(t, tab)
		if len(tab.arcs) == maxOwnerArcs {
			if now := narrowest(); now < floor {
				t.Fatalf("narrowest arc shrank from %d to %d at the bound", floor, now)
			} else {
				floor = now
			}
		}
	}
	if len(tab.arcs) != maxOwnerArcs {
		t.Fatalf("table holds %d arcs after %d lookups on %d nodes, want it full (%d)", len(tab.arcs), 40*maxOwnerArcs, len(m.ids), maxOwnerArcs)
	}
}

// TestArcTableUnderChurn: joins and leaves make arcs stale, never
// inconsistent — the table stays sorted and disjoint, a fresh lookup
// overrides whatever it contradicts, and dropping an owner forgets it.
func TestArcTableUnderChurn(t *testing.T) {
	space := ident.New(16)
	rng := rand.New(rand.NewSource(11))
	m := randomModel(rng, space, 48)
	tab := &arcTable{space: space}
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(20); {
		case r == 0:
			m.join(space.Wrap(rng.Uint64()))
		case r == 1 && len(m.ids) > 2:
			m.leave(rng.Intn(len(m.ids)))
		default:
			k := space.Wrap(rng.Uint64())
			want := m.succ(k)
			got, hit := tab.find(k)
			if hit && got == want {
				continue
			}
			if hit {
				// What the service does with a refusal or a timeout.
				tab.drop(got.Addr)
				if again, hit := tab.find(k); hit && again == got {
					t.Fatalf("step %d: %v still named for %v after being dropped", step, got, k)
				}
			}
			tab.learn(k, want)
			checkArcs(t, tab)
			if got, hit := tab.find(k); !hit || got != want {
				t.Fatalf("step %d: after learning %v -> %v the table answers %v, %v", step, k, want, got, hit)
			}
		}
	}
	// A node that comes back under its old identifier at a new address
	// replaces the old entry, arc and all.
	old := tab.arcs[0]
	moved := chord.NodeRef{ID: old.owner.ID, Addr: "node/moved"}
	tab.learn(old.owner.ID, moved)
	checkArcs(t, tab)
	if got, hit := tab.find(old.owner.ID); !hit || got != moved {
		t.Errorf("owner of %v after it moved: %v, %v; want %v", old.owner.ID, got, hit, moved)
	}
	if old.lo != old.owner.ID {
		if got, hit := tab.find(old.lo); hit && got == moved {
			t.Errorf("the moved node inherited the arc proved for its old address")
		}
	}
}
