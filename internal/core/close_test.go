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

// TestCloseStopsEveryTree is the regression test for Close leaving the
// slot timers armed: after Close a node holds no DAT timer — tick,
// pending ack timeout or send-machine deadline — and surfaces no further
// result, even while its neighbours keep running.
func TestCloseStopsEveryTree(t *testing.T) {
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
	live := make([]int, len(ids))
	results := make([]int, len(ids))
	dats := make([]*core.Node, len(ids))
	keys := []ident.ID{5000, 30000, 60000}
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
		dats[i] = core.NewNode(ch, eps[i], countingClock{transport.SimClock{Engine: eng}, &live[i]}, core.NodeConfig{
			Local: func(ident.ID) (float64, bool) { return 1, true },
		})
		for _, key := range keys {
			i := i
			if err := dats[i].StartContinuous(key, time.Second, func(int64, core.Aggregate) { results[i]++ }); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.RunFor(5 * time.Second)
	roots := 0
	for i := range ids {
		if results[i] > 0 {
			roots++
		}
	}
	if roots == 0 {
		t.Fatal("no tree produced a result before Close")
	}

	// Advance event by event until some node has more than its three
	// tick timers armed: an update is in flight with its ack timeout (or
	// a send-machine deadline) pending. Close that node mid-round.
	victim := -1
	for step := 0; step < 100000 && victim < 0; step++ {
		if !eng.Step() {
			break
		}
		for i := range ids {
			if live[i] > len(keys) {
				victim = i
			}
		}
	}
	if victim < 0 {
		t.Fatal("never saw a pending delivery timer")
	}
	dats[victim].Close()
	if live[victim] != 0 {
		t.Fatalf("node %d holds %d DAT timers after Close (mid-round)", victim, live[victim])
	}
	// Its neighbours keep sending to it; a closed node refuses rather
	// than re-enrolling in a tree it will never tick.
	eng.RunFor(3 * time.Second)
	if keys := dats[victim].ActiveKeys(); len(keys) != 0 || live[victim] != 0 {
		t.Fatalf("closed node %d re-enrolled: %d trees, %d timers", victim, len(keys), live[victim])
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
	for i := range ids {
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
