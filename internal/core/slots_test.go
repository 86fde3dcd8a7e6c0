package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/transport"
)

// armCounter counts the clock timers a DAT node arms.
type armCounter struct {
	transport.SimClock
	arms int
}

func (c *armCounter) AfterRun(d time.Duration, r transport.TimerTask, op int32) transport.Timer {
	c.arms++
	return c.SimClock.AfterRun(d, r, op)
}

// loneNode is a DAT node alone in its ring, so root of every tree, whose
// core timers are counted and whose reports are logged in order.
type loneNode struct {
	eng     *sim.Engine
	clock   *armCounter
	n       *Node
	reports []ident.ID
	expired int
}

const loneSlot = time.Second

func newLoneNode(t *testing.T) *loneNode {
	t.Helper()
	l := &loneNode{eng: sim.NewEngine(1)}
	plain := transport.SimClock{Engine: l.eng}
	l.clock = &armCounter{SimClock: plain}
	ep := &stubEndpoint{addr: "10.0.0.1:1"}
	ch := testChord(ep, plain)
	ch.Create()
	cfg := NodeConfig{Local: func(ident.ID) (float64, bool) { return 1, true }}
	cfg.Obs.ChildExpired = func(k int) { l.expired += k }
	l.n = NewNode(ch, ep, l.clock, cfg)
	return l
}

func (l *loneNode) start(t *testing.T, key ident.ID) {
	t.Helper()
	if err := l.n.StartContinuous(key, loneSlot, func(int64, Aggregate) { l.reports = append(l.reports, key) }); err != nil {
		t.Fatal(err)
	}
}

// runSlot runs the node to just past the next boundary and returns the
// keys reported there, in order, and the core timers armed meanwhile.
func (l *loneNode) runSlot() (reported []ident.ID, arms int) {
	now := time.Duration(l.eng.Now())
	next := (now/loneSlot + 1) * loneSlot
	l.reports, l.clock.arms = nil, 0
	l.eng.RunFor(next - now + time.Millisecond)
	return l.reports, l.clock.arms
}

// TestOneSlotTimerPerNodeAndBoundary: a node running eight trees at one
// slot length arms one clock timer per boundary, which reports the trees
// in the order they armed. A row moved to its fallback deadline, a
// stopped row and a closed node report nothing at the boundary, and a
// key stopped and started again reuses its row.
func TestOneSlotTimerPerNodeAndBoundary(t *testing.T) {
	l := newLoneNode(t)
	keys := []ident.ID{900, 100, 800, 200, 700, 300, 600, 400}
	for _, key := range keys {
		l.start(t, key)
	}
	if l.clock.arms != 1 {
		t.Fatalf("starting %d trees armed %d timers, want one for the first boundary", len(keys), l.clock.arms)
	}
	for s := 0; s < 3; s++ {
		got, arms := l.runSlot()
		if !slices.Equal(got, keys) {
			t.Fatalf("slot %d reported %v, want %v", s, got, keys)
		}
		if arms != 1 {
			t.Fatalf("slot %d armed %d timers, want one for the next boundary", s, arms)
		}
	}

	// A child whose report is one slot behind is expected: its row moves
	// to the fallback deadline and reports after the boundary.
	late := keys[2]
	um := UpdateMsg{Key: late, Epoch: int64(l.eng.Now()) / int64(loneSlot), Nodes: 1, Slot: int64(loneSlot)}
	um.Agg.AddSample(1)
	l.clock.arms = 0
	if ack, ok := l.n.HandleUpdateForTest("10.0.0.9:1", um); !ok || !ack.OK {
		t.Fatalf("child update refused: %+v", ack)
	}
	if l.clock.arms != 1 {
		t.Fatalf("the child's report armed %d timers, want one: the fallback deadline", l.clock.arms)
	}
	l.n.StopContinuous(keys[5])
	got, arms := l.runSlot()
	want := slices.DeleteFunc(slices.Clone(keys), func(k ident.ID) bool { return k == late || k == keys[5] })
	if !slices.Equal(got, want) {
		t.Fatalf("boundary reported %v, want %v: neither the waiting nor the stopped row", got, want)
	}
	if arms != 1 {
		t.Fatalf("%d timers armed at the boundary, want one for the next", arms)
	}
	l.reports = nil
	l.eng.RunFor(loneSlot / 2)
	if !slices.Equal(l.reports, []ident.ID{late}) {
		t.Fatalf("after the fallback deadline %v reported, want %v", l.reports, late)
	}

	// Stop and start one key a hundred times: its row is reused.
	rows := l.n.rows
	for i := 0; i < 100; i++ {
		l.n.StopContinuous(keys[0])
		l.start(t, keys[0])
	}
	if l.n.rows != rows || len(l.n.freeRows) != 1 {
		t.Fatalf("100 stop/start cycles: %d rows made (was %d), %d free; want the table unchanged", l.n.rows, rows, len(l.n.freeRows))
	}

	l.n.Close()
	if got, arms := l.runSlot(); len(got) != 0 || arms != 0 {
		t.Fatalf("closed node reported %v and armed %d timers", got, arms)
	}
}

// TestChildCache covers a row's child cache, a slice: a report replaces
// its child's entry, a detach removes it, a child not refreshed for
// ChildTTLSlots is dropped by the tick, and ChildrenInfo lists what is
// left sorted by address. One row caches 64 children, as basic-tree
// roots of a large ring do, and reports all of them.
func TestChildCache(t *testing.T) {
	l := newLoneNode(t)
	const key = ident.ID(500)
	var last Aggregate
	if err := l.n.StartContinuous(key, loneSlot, func(_ int64, agg Aggregate) { last = agg }); err != nil {
		t.Fatal(err)
	}
	addr := func(i int) transport.Addr { return transport.Addr(fmt.Sprintf("10.1.%d.%d:1", i/10, i%10)) }
	report := func(i int, nodes uint64) {
		t.Helper()
		slot := int64(l.eng.Now()) / int64(loneSlot)
		um := UpdateMsg{Key: key, Epoch: slot, Nodes: nodes, Slot: int64(loneSlot)}
		um.Agg.AddSample(float64(nodes))
		um.Agg.Count = nodes
		if ack, ok := l.n.HandleUpdateForTest(addr(i), um); !ok || !ack.OK {
			t.Fatalf("report of child %d refused: %+v", i, ack)
		}
	}
	const children = 64
	for i := children - 1; i >= 0; i-- {
		report(i, 1)
	}
	report(7, 3) // replaces child 7's entry
	info := l.n.ChildrenInfo(key)
	if len(info) != children {
		t.Fatalf("%d children cached, want %d", len(info), children)
	}
	if !slices.IsSortedFunc(info, func(a, b ChildInfo) int { return cmp.Compare(a.Addr, b.Addr) }) {
		t.Fatal("ChildrenInfo is not sorted by address")
	}
	if info[7].Addr != addr(7) || info[7].Nodes != 3 {
		t.Fatalf("child 7 reads %+v after its second report, want 3 nodes", info[7])
	}
	l.n.HandleDetachForTest(addr(9), key)
	if info := l.n.ChildrenInfo(key); len(info) != children-1 || slices.ContainsFunc(info, func(c ChildInfo) bool { return c.Addr == addr(9) }) {
		t.Fatalf("child 9 still cached after its detach (%d children)", len(info))
	}
	l.runSlot()
	l.eng.RunFor(loneSlot) // past the fallback deadline of the children's next slot
	if want := uint64(1 + children - 1 + 2); last.Count != want {
		t.Fatalf("the root counted %d, want %d: itself and every cached child", last.Count, want)
	}

	// Keep one child fresh; the others expire inside a tick.
	for s := 0; s < l.n.cfg.ChildTTLSlots+1; s++ {
		report(11, 1)
		l.runSlot()
	}
	info = l.n.ChildrenInfo(key)
	if len(info) != 1 || info[0].Addr != addr(11) {
		t.Fatalf("after the TTL the cache holds %v, want child 11 alone", info)
	}
	if l.expired != children-2 {
		t.Fatalf("%d children expired, want %d", l.expired, children-2)
	}
}
