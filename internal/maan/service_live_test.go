package maan_test

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/maan"
	"repro/internal/obs"
	"repro/internal/rpcudp"
	"repro/internal/transport"
)

// TestOversizedAnswerFailsFast: a result set that outgrows a datagram
// is this node's problem, not its successor's. The hop that cannot send
// it tells the originator, whose query fails at once, and nobody earns
// a failure-detector strike. (Before the fix the successor was
// suspected — two such queries evicted a healthy node — and the
// originator sat out the whole QueryTimeout.)
func TestOversizedAnswerFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	const (
		n         = 8
		maxPacket = 2048 // small, so a few dozen records overflow it
	)
	var suspects atomic.Int64
	r := startLiveRing(t, n, maxPacket, obs.ChordHooks{Suspected: func(transport.Addr) { suspects.Add(1) }})
	services, converged := r.services, r.converged

	// 64 resources spread over the whole attribute, ~50 bytes a record:
	// the full walk collects about 3 KiB.
	const resources = 64
	var registered atomic.Int32
	for i := 0; i < resources; i++ {
		res := maan.Resource{
			Name:   fmt.Sprintf("host%02d.a-long-site-name.grid.example", i),
			Values: map[string]float64{"cpu-usage": 100 * (float64(i) + 0.5) / resources},
		}
		services[i%n].Register(res, func(err error) {
			if err != nil {
				t.Errorf("register %s: %v", res.Name, err)
			}
			registered.Add(1)
		})
	}
	waitFor(t, 10*time.Second, func() bool { return registered.Load() == resources })

	query := func(lo, hi float64) ([]maan.Resource, error, time.Duration) {
		type answer struct {
			res []maan.Resource
			err error
		}
		done := make(chan answer, 1)
		t0 := time.Now()
		services[3].RangeQuery(maan.Range("cpu-usage", lo, hi), func(res []maan.Resource, _ int, err error) {
			done <- answer{res, err}
		})
		a := <-done // QueryTimeout bounds the wait
		return a.res, a.err, time.Since(t0)
	}

	before := suspects.Load()
	_, err, took := query(1, 99)
	if err == nil || !strings.Contains(err.Error(), transport.ErrTooLarge.Error()) {
		t.Fatalf("oversized answer: err = %v, want one naming %q", err, transport.ErrTooLarge)
	}
	if took > 2*time.Second {
		t.Errorf("oversized answer failed after %v; the originator waited for its timeout", took)
	}
	if got := suspects.Load() - before; got != 0 {
		t.Errorf("%d suspicions recorded for a message this node could not send", got)
	}
	if !converged() {
		t.Error("a routing view lost its successor or predecessor")
	}

	// The ring still answers what fits.
	res, err, _ := query(40, 50)
	if err != nil {
		t.Fatalf("small query after the oversized one: %v", err)
	}
	if len(res) == 0 || len(res) > 8 {
		t.Errorf("small query found %d resources, want the handful in [40, 50]", len(res))
	}
}

// TestLiveStaleArcRefusedAndMixedVersions: on real sockets, a peer that
// joins inside a cached arc costs the next query for its keys one
// refusal and one lookup, not a wrong answer; and a walk that names its
// Start, as every peer did before there was a table, is taken on trust
// as it always was.
func TestLiveStaleArcRefusedAndMixedVersions(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	const n = 8 // identifiers 0, 0x2000, ..: peer i owns cpu-usage in (12.5(i-1), 12.5i]
	r := startLiveRing(t, n, 0, obs.ChordHooks{})
	const asker = 1
	var hit, miss, stale atomic.Int32
	r.services[asker].Observe(obs.MAANHooks{OwnerArc: func(result string) {
		switch result {
		case "hit":
			hit.Add(1)
		case "miss":
			miss.Add(1)
		case "stale":
			stale.Add(1)
		}
	}})
	outcomes := func() [3]int32 { return [3]int32{hit.Load(), miss.Load(), stale.Load()} }

	// One host per unit of cpu-usage; peer 4 owns those in (37.5, 50].
	var registered atomic.Int32
	for v := 0; v < 100; v++ {
		res := maan.Resource{Name: fmt.Sprintf("host%02d", v), Values: map[string]float64{"cpu-usage": float64(v)}}
		r.services[v%n].Register(res, func(err error) {
			if err != nil {
				t.Errorf("register %s: %v", res.Name, err)
			}
			registered.Add(1)
		})
	}
	waitFor(t, 10*time.Second, func() bool { return registered.Load() == 100 })

	pred := maan.Range("cpu-usage", 40, 41)
	ask := func() []string {
		t.Helper()
		type answer struct {
			res []maan.Resource
			err error
		}
		done := make(chan answer, 1)
		r.services[asker].RangeQuery(pred, func(res []maan.Resource, _ int, err error) { done <- answer{res, err} })
		a := <-done // QueryTimeout bounds the wait
		if a.err != nil {
			t.Fatalf("query: %v", a.err)
		}
		var names []string
		for _, x := range a.res {
			names = append(names, x.Name)
		}
		return names
	}
	want := []string{"host40", "host41"}
	if got := ask(); !slices.Equal(got, want) {
		t.Fatalf("cold query found %v, want %v", got, want)
	}
	if got := ask(); !slices.Equal(got, want) {
		t.Fatalf("warm query found %v, want %v", got, want)
	}
	if got := outcomes(); got != [3]int32{1, 1, 0} {
		t.Fatalf("hit, miss, stale = %v after a cold and a warm query, want [1 1 0]", got)
	}

	// A newcomer halfway into peer 4's arc takes over (37.5, 43.75] and
	// with it hosts 38..43, which peer 4 hands off.
	newcomer := r.add(r.space.Midpoint(r.ids[3], r.ids[4]))
	waitFor(t, 20*time.Second, func() bool { return r.converged() && r.services[newcomer].LocalEntries() == 6 })
	if got := ask(); !slices.Equal(got, want) {
		t.Fatalf("query after the join found %v, want %v", got, want)
	}
	if got := outcomes(); got != [3]int32{2, 1, 1} {
		t.Fatalf("hit, miss, stale = %v after the join, want [2 1 1]: one refusal, one restart", got)
	}
	if got := ask(); !slices.Equal(got, want) {
		t.Fatalf("second query after the join found %v, want %v", got, want)
	}
	if got := outcomes(); got != [3]int32{3, 1, 1} {
		t.Fatalf("hit, miss, stale = %v, want [3 1 1]: the restart re-learned the arc", got)
	}

	// A peer from before the table sends its walk with Start set, to
	// whatever node its lookup named. Peer 3 owns neither bound, and
	// walks it all the same; the same request without Start it refuses.
	old, err := rpcudp.Listen("127.0.0.1:0", rpcudp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	results := make(chan maan.ResultMsg, 2)
	old.Handle(func(req *transport.Request) {
		if rm, ok := req.Payload.(maan.ResultMsg); ok {
			results <- rm
		}
	})
	lo, err := r.schema.Hash("cpu-usage", pred.Lo)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := r.schema.Hash("cpu-usage", pred.Hi)
	if err != nil {
		t.Fatal(err)
	}
	peer3 := r.nodes[3].Self().Addr
	for _, tc := range []struct {
		start   transport.Addr
		refused bool
	}{{peer3, false}, {"", true}} {
		req := maan.RangeReq{QueryID: 7, Origin: old.Addr(), Pred: pred, LoKey: lo, HiKey: hi, Start: tc.start}
		if err := old.Send(peer3, maan.MsgRange, req); err != nil {
			t.Fatal(err)
		}
		select {
		case rm := <-results:
			switch {
			case tc.refused && !strings.Contains(rm.Err, "not the owner"):
				t.Errorf("walk without Start at a node that does not own its first key: %+v, want a refusal", rm)
			case !tc.refused && (rm.Err != "" || rm.Found.N != len(want)):
				t.Errorf("walk with Start %s: %+v, want %d records and no error", tc.start, rm, len(want))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("walk with Start %q: no result", tc.start)
		}
	}
}

// liveRing is a ring of chord nodes with MAAN services over loopback
// UDP, on evenly spaced identifiers in a 16-bit space, with one numeric
// attribute: cpu-usage in [0, 100].
type liveRing struct {
	t         *testing.T
	space     ident.Space
	schema    *maan.Schema
	clock     *transport.RealClock
	maxPacket int
	chordCfg  chord.Config
	ids       []ident.ID
	nodes     []*chord.Node
	services  []*maan.Service
	joined    atomic.Int32
}

// startLiveRing brings up n converged peers. maxPacket 0 is the
// transport's default.
func startLiveRing(t *testing.T, n, maxPacket int, hooks obs.ChordHooks) *liveRing {
	t.Helper()
	space := ident.New(16)
	schema, err := maan.NewSchema(space, maan.Attribute{Name: "cpu-usage", Min: 0, Max: 100})
	if err != nil {
		t.Fatal(err)
	}
	r := &liveRing{t: t, space: space, schema: schema, clock: &transport.RealClock{}, maxPacket: maxPacket,
		chordCfg: chord.Config{
			Space:           space,
			StabilizeEvery:  40 * time.Millisecond,
			FixFingersEvery: 60 * time.Millisecond,
			PingEvery:       100 * time.Millisecond,
			Obs:             hooks,
		}}
	t.Cleanup(r.clock.Stop)
	for _, id := range chord.EvenIDs(space, n) {
		r.add(id)
		time.Sleep(60 * time.Millisecond)
	}
	waitFor(t, 20*time.Second, r.converged)
	return r
}

// add starts one more peer: the first creates the ring, the others
// join through it. It returns the peer's index.
func (r *liveRing) add(id ident.ID) int {
	r.t.Helper()
	ep, err := rpcudp.Listen("127.0.0.1:0", rpcudp.Config{CallTimeout: 500 * time.Millisecond, MaxPacket: r.maxPacket})
	if err != nil {
		r.t.Fatal(err)
	}
	cn := chord.New(ep, r.clock, id, r.chordCfg)
	svc := maan.NewService(cn, ep, r.clock, r.schema)
	r.t.Cleanup(func() {
		svc.Close()
		cn.Stop(false)
		ep.Close()
	})
	r.ids = append(r.ids, id)
	r.nodes = append(r.nodes, cn)
	r.services = append(r.services, svc)
	if len(r.nodes) == 1 {
		cn.Create()
		r.joined.Add(1)
		return 0
	}
	cn.Join(r.nodes[0].Self().Addr, func(err error) {
		if err != nil {
			r.t.Errorf("join: %v", err)
			return
		}
		r.joined.Add(1)
	})
	return len(r.nodes) - 1
}

// converged reports whether every peer has joined and sees the
// successor and predecessor the identifiers dictate.
func (r *liveRing) converged() bool {
	if int(r.joined.Load()) != len(r.nodes) {
		return false
	}
	ring, err := chord.NewRing(r.space, r.ids)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, nd := range r.nodes {
		rt := nd.Routing()
		if rt.Successor().ID != ring.Succ(rt.Self.ID) || rt.Pred.IsZero() || rt.Pred.ID != ring.Pred(rt.Self.ID) {
			return false
		}
	}
	return true
}

func waitFor(t *testing.T, limit time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
