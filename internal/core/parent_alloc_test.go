package core

import (
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestParentForAllocs pins a warm ParentFor — memo hit on a quiet ring —
// at zero allocations, and the un-memoised parentFrom likewise: parent
// selection reads one shared routing view and copies nothing.
func TestParentForAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := sim.NewEngine(1)
	net := transport.NewSimNetwork(eng, transport.SimConfig{})
	space := ident.New(16)
	ids := []ident.ID{100, 9000, 21000, 40000}
	refs := make([]chord.NodeRef, len(ids))
	eps := make([]transport.Endpoint, len(ids))
	for i, id := range ids {
		eps[i] = net.Endpoint(transport.Addr("sim/" + id.String()))
		refs[i] = chord.NodeRef{ID: id, Addr: eps[i].Addr()}
	}
	ch := chord.New(eps[0], net.Clock(), ids[0], chord.Config{Space: space})
	fingers := make([]chord.NodeRef, space.Bits())
	for j := range fingers {
		fingers[j] = refs[1+j%3]
	}
	ch.SeedState(refs[3], refs[1:], fingers)
	n := NewNode(ch, eps[0], net.Clock(), NodeConfig{})
	key := ident.ID(30000)
	if err := n.StartContinuous(key, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, _, ok := n.ParentFor(key); !ok {
		t.Fatal("seeded node cannot pick a parent")
	}
	if allocs := testing.AllocsPerRun(1000, func() { n.ParentFor(key) }); allocs != 0 {
		t.Errorf("warm ParentFor allocates %.1f/op; budget is 0", allocs)
	}
	rt := ch.Routing()
	if allocs := testing.AllocsPerRun(1000, func() { parentFrom(rt, BalancedLocal, key, nil) }); allocs != 0 {
		t.Errorf("parentFrom allocates %.1f/op; budget is 0", allocs)
	}
}
