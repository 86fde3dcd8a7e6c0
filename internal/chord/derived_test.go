package chord

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/wire"
)

// What a view derives when it is published (Routing.state, Routing.hops)
// is checked here against the per-message code it replaced, which lives
// on in this file as the oracle.

// scanClosestPreceding is the linear scan closestPreceding used to be:
// every finger, then every successor, the strictly closest to key wins
// and a tie keeps the earlier.
func scanClosestPreceding(rt *Routing, key ident.ID) NodeRef {
	var best NodeRef
	var bestRemaining uint64
	consider := func(ref NodeRef) {
		if ref.IsZero() || ref.Addr == rt.Self.Addr {
			return
		}
		if !rt.space.Between(ref.ID, rt.Self.ID, key) {
			return
		}
		remaining := rt.space.Dist(ref.ID, key)
		if best.IsZero() || remaining < bestRemaining {
			best, bestRemaining = ref, remaining
		}
	}
	for _, f := range rt.Fingers {
		consider(f)
	}
	for _, s := range rt.Succs {
		consider(s)
	}
	return best
}

// copyStateResp is the GetState reply as it used to be built, afresh
// for every exchange.
func copyStateResp(rt *Routing) StateResp {
	resp := StateResp{Self: rt.Self, Predecessor: rt.Pred}
	resp.Successors = make([]NodeRef, len(rt.Succs))
	copy(resp.Successors, rt.Succs)
	resp.Fingers = make([]NodeRef, 0, len(rt.Fingers))
	for _, f := range rt.Fingers {
		if f.IsZero() {
			continue
		}
		dup := false
		for _, have := range resp.Fingers {
			if have.Addr == f.Addr {
				dup = true
				break
			}
		}
		if !dup {
			resp.Fingers = append(resp.Fingers, f)
		}
	}
	return resp
}

func sameStateResp(a, b StateResp) bool {
	return a.Self == b.Self && a.Predecessor == b.Predecessor &&
		slices.Equal(a.Successors, b.Successors) && slices.Equal(a.Fingers, b.Fingers)
}

// checkDerived fails unless rt's derived fields are what its content
// says they must be.
func checkDerived(t *testing.T, rt *Routing) {
	t.Helper()
	if want := copyStateResp(rt); !sameStateResp(rt.state, want) {
		t.Fatalf("view v%d of %v: derived GetState reply\n got %+v\nwant %+v", rt.Version, rt.Self, rt.state, want)
	}
	if want := nextHops(nil, rt); !slices.Equal(rt.hops, want) {
		t.Fatalf("view v%d of %v: derived next-hop table\n got %+v\nwant %+v", rt.Version, rt.Self, rt.hops, want)
	}
	if len(rt.Succs) > 0 && unsafe.SliceData(rt.state.Successors) != unsafe.SliceData(rt.Succs) {
		t.Fatalf("view v%d of %v: the reply's Successors is a copy, not the view's list", rt.Version, rt.Self)
	}
	for i := 1; i < len(rt.hops); i++ {
		if rt.hops[i-1].dist >= rt.hops[i].dist {
			t.Fatalf("view v%d of %v: next-hop table not strictly ascending at %d: %+v", rt.Version, rt.Self, i, rt.hops)
		}
	}
}

// randomView builds a view the way no ring would: few distinct
// identifiers, so the same ID turns up at two addresses, self turns up
// among its own fingers and successors, and whole tables are empty.
func randomView(rng *rand.Rand, space ident.Space) *Routing {
	ids := make([]ident.ID, 1+rng.Intn(12))
	for i := range ids {
		ids[i] = space.Wrap(rng.Uint64())
	}
	ref := func() NodeRef {
		switch rng.Intn(8) {
		case 0:
			return NodeRef{} // unresolved
		default:
			id := ids[rng.Intn(len(ids))]
			// Two addresses per identifier.
			return NodeRef{ID: id, Addr: transport.Addr(fmt.Sprintf("sim/%d-%d", id, rng.Intn(2)))}
		}
	}
	rt := &Routing{Version: 1, space: space}
	for rt.Self.IsZero() {
		rt.Self = ref()
	}
	refs := func(n int) []NodeRef {
		out := make([]NodeRef, n)
		for i := range out {
			if out[i] = ref(); rng.Intn(10) == 0 {
				out[i] = rt.Self
			}
		}
		return out
	}
	switch rng.Intn(6) {
	case 0: // a lone node
		rt.Succs = []NodeRef{rt.Self}
		rt.Fingers = make([]NodeRef, space.Bits())
	case 1: // no fingers resolved yet
		rt.Succs = refs(1 + rng.Intn(4))
		rt.Fingers = make([]NodeRef, space.Bits())
	default:
		rt.Succs = refs(rng.Intn(5))
		rt.Fingers = refs(int(space.Bits()))
	}
	rt.hops = nextHops(nil, rt)
	return rt
}

// TestNextHopTableMatchesScan: on 1 000 random views the binary search
// over the derived table returns the very NodeRef — identifier and
// address — the scan returns, for every key that could tell them apart:
// self's own identifier, and each table entry's identifier with the key
// one short of it, on it and one past it.
func TestNextHopTableMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, bits := range []uint{3, 8, 16, 63} {
		space := ident.New(bits)
		for v := 0; v < 250; v++ {
			rt := randomView(rng, space)
			keys := []ident.ID{rt.Self.ID, space.Add(rt.Self.ID, 1), space.Sub(rt.Self.ID, 1)}
			for _, ref := range slices.Concat(rt.Fingers, rt.Succs) {
				keys = append(keys, space.Sub(ref.ID, 1), ref.ID, space.Add(ref.ID, 1))
			}
			for i := 0; i < 8; i++ {
				keys = append(keys, space.Wrap(rng.Uint64()))
			}
			for _, key := range keys {
				if got, want := rt.closestPreceding(key), scanClosestPreceding(rt, key); got != want {
					t.Fatalf("bits=%d view %d key %v: table says %v, scan says %v\nself %v\nfingers %v\nsuccs %v\nhops %+v",
						bits, v, key, got, want, rt.Self, rt.Fingers, rt.Succs, rt.hops)
				}
			}
		}
	}
}

// TestGetStateReplyWireBytes: what a peer reads off the wire is what it
// read when the reply was copied per exchange, byte for byte.
func TestGetStateReplyWireBytes(t *testing.T) {
	c := newSimCluster(t, 5, 16, transport.SimConfig{})
	c.buildRing([]ident.ID{100, 9000, 21000, 40000, 52000})
	lone := newSimCluster(t, 6, 16, transport.SimConfig{})
	lone.addNode(7).Create()
	for _, n := range append(c.nodes, lone.nodes...) {
		rt := n.Routing()
		checkDerived(t, rt)
		got, err := wire.EncodePayload(rt.state)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wire.EncodePayload(copyStateResp(rt))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: memoised reply encodes to %x, the copied one to %x", rt.Self, got, want)
		}
		back, err := wire.DecodePayload(got)
		if err != nil {
			t.Fatal(err)
		}
		if resp, ok := back.(StateResp); !ok || !sameStateResp(resp, rt.state) {
			t.Fatalf("%v: round trip gave %+v, sent %+v", rt.Self, back, rt.state)
		}
	}
}

// TestGetStateReplyAllocs: answering a GetState on an unchanged view
// allocates the boxing of the reply and nothing else, and two replies
// under one Version share the Successors backing array.
func TestGetStateReplyAllocs(t *testing.T) {
	c := newSimCluster(t, 3, 16, transport.SimConfig{})
	c.buildRing([]ident.ID{100, 9000, 21000, 40000, 52000})
	n := c.nodes[0]
	var got []StateResp
	req := func() *transport.Request {
		return transport.NewRequest("sim/x", MsgGetState, GetStateReq{}, func(payload any, err error) {
			if resp, ok := payload.(StateResp); ok && err == nil && len(got) < 2 {
				got = append(got, resp)
			}
		})
	}
	version := n.Routing().Version
	n.handleGetState(req())
	n.handleGetState(req())
	if len(got) != 2 || len(got[0].Successors) == 0 {
		t.Fatalf("replies: %+v", got)
	}
	if n.Routing().Version != version {
		t.Fatal("the view changed between the two replies")
	}
	if unsafe.SliceData(got[0].Successors) != unsafe.SliceData(got[1].Successors) ||
		unsafe.SliceData(got[0].Fingers) != unsafe.SliceData(got[1].Fingers) {
		t.Error("two replies under one Version do not share their slices")
	}
	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	// The Requests are made beforehand: one made per run would be the
	// test's allocation, and replying twice to one panics.
	reqs := make([]*transport.Request, 1001)
	for i := range reqs {
		reqs[i] = req()
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() { n.handleGetState(reqs[i]); i++ }); allocs != 1 {
		t.Errorf("handleGetState on an unchanged view allocates %.1f/op; budget is 1 (boxing the reply)", allocs)
	}
}
