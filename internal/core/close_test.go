package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/transport"
)

// countingClock counts the DAT layer's armed timers: AfterRun calls
// that have neither fired nor been stopped. The sim is single-threaded,
// so a plain counter does.
type countingClock struct {
	transport.SimClock
	live *int
}

// counted is one armed timer: the task's stand-in on the engine and the
// host of the handle given out, so it sees the timer fire or stop.
type counted struct {
	live    *int
	settled bool
	task    transport.TimerTask
	op      int32
	timer   transport.Timer
}

func (k *counted) settle() {
	if !k.settled {
		k.settled = true
		*k.live--
	}
}

func (k *counted) RunEvent(int32) {
	k.settle()
	k.task.RunEvent(k.op)
}

func (k *counted) StopTimer(int32, uint32) bool {
	k.settle()
	return k.timer.Stop()
}

func (c countingClock) AfterRun(d time.Duration, r transport.TimerTask, op int32) transport.Timer {
	*c.live++
	k := &counted{live: c.live, task: r, op: op}
	k.timer = c.SimClock.AfterRun(d, k, 0)
	return transport.NewTimer(k, 0, 0)
}

// flightEndpoint counts the DAT datagrams a node puts on the wire and
// those of them the transport has not answered yet.
type flightEndpoint struct {
	transport.Endpoint
	sent, inFlight int
}

func (e *flightEndpoint) CallWithin(to transport.Addr, typ string, payload any, d time.Duration, cb transport.ResponseFunc) {
	if typ != core.MsgBatch {
		e.Endpoint.CallWithin(to, typ, payload, d, cb)
		return
	}
	e.sent++
	e.inFlight++
	e.Endpoint.CallWithin(to, typ, payload, d, func(p any, err error) {
		e.inFlight--
		cb(p, err)
	})
}

// closeRing is five nodes of a warm ring whose DAT timers and datagrams
// are counted.
type closeRing struct {
	eng     *sim.Engine
	dats    []*core.Node
	flights []*flightEndpoint
	live    []int
}

func newCloseRing(t *testing.T) *closeRing {
	t.Helper()
	eng := sim.NewEngine(9)
	net := transport.NewSimNetwork(eng, transport.SimConfig{})
	space := ident.New(16)
	ids := []ident.ID{100, 9000, 21000, 40000, 52000}
	ring, err := chord.NewRing(space, ids)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[ident.ID]chord.NodeRef, len(ids))
	eps := make([]transport.Endpoint, len(ids))
	for i, id := range ids {
		eps[i] = net.Endpoint(transport.Addr(fmt.Sprintf("sim/%d", i)))
		ref[id] = chord.NodeRef{ID: id, Addr: eps[i].Addr()}
	}
	r := &closeRing{eng: eng, flights: make([]*flightEndpoint, len(ids)), live: make([]int, len(ids))}
	for i, id := range ids {
		ch := chord.New(eps[i], net.Clock(), id, chord.Config{Space: space})
		var succs, fingers []chord.NodeRef
		for s, k := ring.Succ(id), 0; k < 3; s, k = ring.Succ(s), k+1 {
			succs = append(succs, ref[s])
		}
		for _, f := range ring.FingerTable(id) {
			fingers = append(fingers, ref[f])
		}
		ch.SeedState(ref[ring.Pred(id)], succs, fingers)
		r.flights[i] = &flightEndpoint{Endpoint: eps[i]}
		r.dats = append(r.dats, core.NewNode(ch, r.flights[i], countingClock{transport.SimClock{Engine: eng}, &r.live[i]}, core.NodeConfig{
			Local: func(ident.ID) (float64, bool) { return 1, true },
		}))
	}
	return r
}

// TestCloseStopsEveryTree is the regression test for Close leaving the
// slot timers armed: after Close a node holds no DAT timer — tick or
// flush deadline — and surfaces no further result, even
// while its neighbours keep running. The datagrams it had on the wire
// are still answered by the transport, and those answers arm no timer
// and send nothing.
func TestCloseStopsEveryTree(t *testing.T) {
	r := newCloseRing(t)
	eng, dats, flights, live := r.eng, r.dats, r.flights, r.live
	results := make([]int, len(dats))
	keys := []ident.ID{5000, 30000, 60000}
	for i := range dats {
		for _, key := range keys {
			i := i
			if err := dats[i].StartContinuous(key, time.Second, func(int64, core.Aggregate) { results[i]++ }); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.RunFor(5 * time.Second)
	roots := 0
	for i := range dats {
		if results[i] > 0 {
			roots++
		}
	}
	if roots == 0 {
		t.Fatal("no tree produced a result before Close")
	}

	// Advance event by event until some node has a datagram on the wire
	// the transport has not answered yet. Close that node mid-round.
	victim := -1
	for step := 0; step < 100000 && victim < 0; step++ {
		if !eng.Step() {
			break
		}
		for i := range dats {
			if flights[i].inFlight > 0 {
				victim = i
			}
		}
	}
	if victim < 0 {
		t.Fatal("never saw a datagram in flight")
	}
	dats[victim].Close()
	if live[victim] != 0 {
		t.Fatalf("node %d holds %d DAT timers after Close (mid-round)", victim, live[victim])
	}
	sent := flights[victim].sent // the drain at Close included
	// Its neighbours keep sending to it; a closed node refuses rather
	// than re-enrolling in a tree it will never tick. The transport
	// answers its flights, and no answer arms a timer or sends again.
	eng.RunFor(3 * time.Second)
	if keys := dats[victim].ActiveKeys(); len(keys) != 0 || live[victim] != 0 {
		t.Fatalf("closed node %d re-enrolled: %d trees, %d timers", victim, len(keys), live[victim])
	}
	if f := flights[victim]; f.inFlight != 0 || f.sent != sent {
		t.Fatalf("closed node %d: %d datagrams unanswered, %d sent after Close", victim, f.inFlight, f.sent-sent)
	}
	for i, d := range dats {
		d.Close()
		d.Close() // idempotent
		if live[i] != 0 {
			t.Errorf("node %d holds %d DAT timers after Close", i, live[i])
		}
	}
	before := append([]int(nil), results...)
	eng.RunFor(5 * time.Second)
	for i := range dats {
		if results[i] != before[i] {
			t.Errorf("node %d surfaced %d results after Close", i, results[i]-before[i])
		}
		if live[i] != 0 {
			t.Errorf("node %d re-armed %d DAT timers after Close", i, live[i])
		}
		if err := dats[i].StartContinuous(keys[0], time.Second, nil); err == nil {
			t.Errorf("node %d: StartContinuous succeeded on a closed node", i)
		}
	}
}

// TestCloseDrainsEpochs: Close with an on-demand query in flight stops
// every epoch's timer — relay flush or root window — so none fires
// afterwards, and the contributions still arriving make no row and no
// bucket on the closed nodes.
func TestCloseDrainsEpochs(t *testing.T) {
	r := newCloseRing(t)
	r.dats[0].Query(30000, time.Second, func(core.QueryResp, error) {})
	held := func() (all bool) {
		all = true
		for _, d := range r.dats {
			all = all && d.EpochBucketsForTest() > 0
		}
		return all
	}
	for step := 0; step < 100000 && !held(); step++ {
		if !r.eng.Step() {
			break
		}
	}
	if !held() {
		t.Fatal("the query never reached every node")
	}
	for i, d := range r.dats {
		d.Close()
		if r.live[i] != 0 || d.EpochBucketsForTest() != 0 {
			t.Fatalf("node %d holds %d DAT timers and %d buckets after Close", i, r.live[i], d.EpochBucketsForTest())
		}
	}
	r.eng.RunFor(5 * time.Second)
	for i, d := range r.dats {
		if r.live[i] != 0 || d.EpochBucketsForTest() != 0 || len(d.ActiveKeys()) != 0 {
			t.Errorf("closed node %d: %d DAT timers, %d buckets, %d trees", i, r.live[i], d.EpochBucketsForTest(), len(d.ActiveKeys()))
		}
	}
}
