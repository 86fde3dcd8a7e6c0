package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// flushRing is a seeded three-node ring on a SimNetwork with 1 ms
// one-way latency and no chord maintenance, running one tree whose key
// is the root's own identifier: node 2 is the root and the parent of
// nodes 0 and 1, which are leaves.
type flushRing struct {
	eng     *sim.Engine
	eps     []transport.Endpoint
	dats    []*core.Node
	key     ident.ID
	applied []time.Duration // when the root applied a child update
	results []flushResult   // the root's results
}

type flushResult struct {
	slot  int64
	at    time.Duration
	count uint64
}

const flushSlot = time.Second

func newFlushRing(t *testing.T) *flushRing {
	t.Helper()
	r := &flushRing{eng: sim.NewEngine(5)}
	net := transport.NewSimNetwork(r.eng, transport.SimConfig{Latency: sim.ConstantLatency(time.Millisecond)})
	space := ident.New(16)
	ids := []ident.ID{1000, 20000, 40000}
	r.key = ids[2]
	ring, err := chord.NewRing(space, ids)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[ident.ID]chord.NodeRef, len(ids))
	for i, id := range ids {
		r.eps = append(r.eps, net.Endpoint(transport.Addr(fmt.Sprintf("sim/%d", i))))
		ref[id] = chord.NodeRef{ID: id, Addr: r.eps[i].Addr()}
	}
	for i, id := range ids {
		ch := chord.New(r.eps[i], net.Clock(), id, chord.Config{
			Space: space, StabilizeEvery: 1000 * time.Hour, FixFingersEvery: 1000 * time.Hour, PingEvery: 1000 * time.Hour,
		})
		var succs, fingers []chord.NodeRef
		for s, k := ring.Succ(id), 0; k < 2; s, k = ring.Succ(s), k+1 {
			succs = append(succs, ref[s])
		}
		for _, f := range ring.FingerTable(id) {
			fingers = append(fingers, ref[f])
		}
		ch.SeedState(ref[ring.Pred(id)], succs, fingers)
		cfg := core.NodeConfig{Local: func(ident.ID) (float64, bool) { return 1, true }}
		var onResult func(int64, core.Aggregate)
		if i == 2 {
			cfg.Obs = obs.CoreHooks{UpdateApplied: func(ident.ID, bool) {
				r.applied = append(r.applied, time.Duration(r.eng.Now()))
			}}
			onResult = func(slot int64, agg core.Aggregate) {
				r.results = append(r.results, flushResult{slot, time.Duration(r.eng.Now()), agg.Count})
			}
		}
		d := core.NewNode(ch, r.eps[i], net.Clock(), cfg)
		t.Cleanup(d.Close)
		r.dats = append(r.dats, d)
		if err := d.StartContinuous(r.key, flushSlot, onResult); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if p, isRoot, ok := r.dats[i].ParentFor(r.key); !ok || isRoot || p.Addr != r.eps[2].Addr() {
			t.Fatalf("node %d: parent %v (root %v, ok %v); the fixture wants node 2", i, p.Addr, isRoot, ok)
		}
	}
	return r
}

// runSlots runs the engine for k slots and returns the results the root
// surfaced meanwhile.
func (r *flushRing) runSlots(k int) []flushResult {
	before := len(r.results)
	r.eng.RunFor(time.Duration(k) * flushSlot)
	return r.results[before:]
}

// TestParentReportsWhenLastChildArrives: a parent with two children
// reports slot t at the instant the second child's slot-t update is
// applied, not after a hold.
func TestParentReportsWhenLastChildArrives(t *testing.T) {
	r := newFlushRing(t)
	r.eng.RunFor(2*flushSlot + flushSlot/2) // the root learns its children
	for _, res := range r.runSlots(5) {
		boundary := time.Duration(res.slot) * flushSlot
		var last time.Duration
		n := 0
		for _, at := range r.applied {
			if at >= boundary && at <= res.at {
				last = at
				n++
			}
		}
		if res.count != 3 || n != 2 {
			t.Fatalf("slot %d: count %d after %d child updates; want 3 after 2", res.slot, res.count, n)
		}
		if res.at != last {
			t.Fatalf("slot %d: reported %v after the boundary, %v after the second child's update",
				res.slot, res.at-boundary, res.at-last)
		}
		if res.at-boundary > 20*time.Millisecond {
			t.Fatalf("slot %d: reported %v after the boundary", res.slot, res.at-boundary)
		}
	}
}

// TestCrashedChildCostsDeadlinesNotRounds: a crashed child's cached
// subtree still counts for ChildTTLSlots-1 slots, each of which the
// parent reports at the fallback deadline — AckTimeout plus one level's
// hold, never later — and no slot goes unreported. A detach from the
// child ends the wait at once, and an expired child is not waited for.
func TestCrashedChildCostsDeadlinesNotRounds(t *testing.T) {
	r := newFlushRing(t)
	// Crash node 1 just after it reported: its next report never comes.
	r.eng.RunFor(3*flushSlot + 50*time.Millisecond)
	r.eps[1].Close()
	r.dats[1].Close()
	crashSlot := int64(time.Duration(r.eng.Now()) / flushSlot)

	const deadline = 150*time.Millisecond + 10*time.Millisecond // AckTimeout + height 1 × HoldPerLevel
	got := r.runSlots(3)
	if len(got) != 3 {
		t.Fatalf("%d results in the 3 slots after the crash: %+v", len(got), got)
	}
	for i, res := range got {
		if res.slot != crashSlot+1+int64(i) {
			t.Fatalf("result %d is for slot %d, want %d: a round was lost", i, res.slot, crashSlot+1+int64(i))
		}
		late := res.at - time.Duration(res.slot)*flushSlot
		if i < 2 { // ChildTTLSlots (3) - 1 slots still count the cached child
			if res.count != 3 || late != deadline {
				t.Fatalf("slot %d: count %d at +%v; want the cached child counted at the deadline +%v", res.slot, res.count, late, deadline)
			}
		} else if res.count != 2 || late > 20*time.Millisecond {
			t.Fatalf("slot %d: count %d at +%v; want the expired child neither counted nor waited for", res.slot, res.count, late)
		}
	}

	// A second crash, and this time the child's detach arrives while the
	// parent waits for it: the parent reports right then, without it.
	r.eps[0].Close()
	r.dats[0].Close()
	r.runSlots(1) // into the wait for the crashed child
	detachAt := time.Duration(r.eng.Now())
	r.dats[2].HandleDetachForTest(r.eps[0].Addr(), r.key)
	r.eng.RunFor(0)
	res := r.results[len(r.results)-1]
	if res.at != detachAt || res.count != 1 {
		t.Fatalf("after the detach at %v: last result %+v; want count 1 at the detach", detachAt, res)
	}
}

// TestOlderReportNeverOverwritesNewer: a datagram reordered, or a
// retry, behind a child's newer report is acknowledged, and the
// newer value stays cached — else a value the TTL counts by its slot
// would expire early and drop the child from the count.
func TestOlderReportNeverOverwritesNewer(t *testing.T) {
	r := newFlushRing(t)
	r.eng.RunFor(2 * flushSlot)
	root, from := r.dats[2], transport.Addr("sim/9")
	report := func(slot int64, nodes uint64) {
		t.Helper()
		um := core.UpdateMsg{Key: r.key, Epoch: slot, Nodes: nodes, Slot: int64(flushSlot), Sender: chord.NodeRef{Addr: from}}
		if ack, ok := root.HandleUpdateForTest(from, um); !ok || !ack.OK {
			t.Fatalf("slot %d report: ack %+v (ok %v)", slot, ack, ok)
		}
	}
	cached := func() uint64 {
		for _, ci := range root.ChildrenInfo(r.key) {
			if ci.Addr == from {
				return ci.Nodes
			}
		}
		return 0
	}
	report(2, 5)
	report(1, 1)
	if got := cached(); got != 5 {
		t.Fatalf("after a late slot-1 report the cache holds %d nodes, want slot 2's 5", got)
	}
	report(3, 7)
	if got := cached(); got != 7 {
		t.Fatalf("a newer report cached %d nodes, want 7", got)
	}
}
