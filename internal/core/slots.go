package core

import (
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
)

// This file is where a node's trees live together and tick together
// (DESIGN.md §17): the rows of its aggregation table are carved from
// per-node chunks, and every row armed for the same slot boundary is
// reported by one clock timer per slot length.

// rowChunk caps how many rows one chunk of a node's table holds. Chunks
// grow 1, 1, 2, 4, 4, …: a node running one tree holds one row, and one
// running 34 holds 36.
const rowChunk = 4

// entryLocked adds an empty row for key to the table: a stopped row if
// there is one, else one carved from the node's current chunk. Caller
// holds n.mu.
func (n *Node) entryLocked(key ident.ID) *aggEntry {
	var e *aggEntry
	if k := len(n.freeRows); k > 0 {
		e, n.freeRows = n.freeRows[k-1], n.freeRows[:k-1]
	} else {
		if len(n.chunk) == 0 {
			n.chunk = make([]aggEntry, min(max(n.rows, 1), rowChunk))
		}
		e, n.chunk = &n.chunk[0], n.chunk[1:]
		n.rows++
		e.n = n
		e.deliv.n, e.deliv.e = n, e
	}
	e.key = key
	e.deliv.mu.Lock()
	e.deliv.key = key
	e.deliv.mu.Unlock()
	n.aggs[key] = e
	return e
}

// freeLocked empties a row taken out of the table for the next key to
// reuse. Its delivery keeps its lock and its generation, which fences
// every verdict still owed to the row's last update. Caller holds n.mu.
func (n *Node) freeLocked(e *aggEntry) {
	clear(e.children)
	e.rowState = rowState{children: e.children[:0]}
	n.freeRows = append(n.freeRows, e)
}

// slotTimerLocked returns the node's slot timer for slot length d.
// Caller holds n.mu.
func (n *Node) slotTimerLocked(d time.Duration) *slotTimer {
	for _, st := range n.slots {
		if st.slotDur == d {
			return st
		}
	}
	st := &slotTimer{slotDur: d, clock: n.clock}
	n.slots = append(n.slots, st)
	return st
}

// slotTimer reports the rows of one node and one slot length at their
// slot boundary: one clock timer per boundary runs every row armed for
// it, in the order they armed. It is the TimerHost of the handles those
// rows hold, so a row's timer.Stop keeps its meaning: the row leaves
// the boundary, and the last one gone stops the clock timer. Its lock
// is a leaf, taken under Node.mu and never the other way round.
type slotTimer struct {
	slotDur time.Duration
	clock   transport.Clock

	mu   sync.Mutex
	due  []slotArm // in arm order, so by boundary; a stopped one has no row
	live int       // entries of due with a row
	at   time.Duration
	tick transport.Timer // the clock timer, armed for at while live > 0
	// fence counts clock arms and is passed as the op, so a firing that
	// outlived its arm is inert.
	fence uint32
	gen   uint32    // handles issued
	spare []slotArm // the list the last run took, reused by the next
}

// slotArm is one row armed for boundary at.
type slotArm struct {
	e   *aggEntry
	op  int32
	gen uint32
	at  time.Duration
}

// arm runs e.RunEvent(op) at boundary at, which is ahead of now and
// never before a boundary armed earlier. Caller holds n.mu.
func (st *slotTimer) arm(e *aggEntry, op int32, at, now time.Duration) transport.Timer {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gen++
	st.due = append(st.due, slotArm{e: e, op: op, gen: st.gen, at: at})
	st.live++
	if st.live == 1 {
		st.armClockLocked(at, now)
	}
	return transport.NewTimer(st, int32(len(st.due)-1), st.gen)
}

// armClockLocked points the clock timer at boundary at. Caller holds
// st.mu.
func (st *slotTimer) armClockLocked(at, now time.Duration) {
	st.fence++
	st.at = at
	st.tick = st.clock.AfterRun(at-now, st, int32(st.fence))
}

// StopTimer implements transport.TimerHost: the row armed under gen
// leaves its boundary. idx is where it was armed; a run that left it
// pending moved it up.
func (st *slotTimer) StopTimer(idx int32, gen uint32) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	i := int(idx)
	if i >= len(st.due) || st.due[i].gen != gen {
		for i = 0; i < len(st.due) && st.due[i].gen != gen; i++ {
		}
	}
	if i == len(st.due) || st.due[i].e == nil {
		return false // ran, or stopped before
	}
	st.due[i].e = nil
	st.live--
	if st.live == 0 {
		st.resetLocked()
	}
	return true
}

// resetLocked drops every arm and stops the clock timer. Caller holds
// st.mu.
func (st *slotTimer) resetLocked() {
	clear(st.due)
	st.due, st.live = st.due[:0], 0
	st.tick.Stop()
	st.tick = transport.Timer{}
}

// stop drops every arm: the node is closed.
func (st *slotTimer) stop() {
	st.mu.Lock()
	st.resetLocked()
	st.mu.Unlock()
}

// RunEvent implements transport.TimerTask: boundary at has come. The
// rows armed for it run in arm order; rows already armed for a later
// boundary stay, and the clock timer moves on to theirs.
func (st *slotTimer) RunEvent(op int32) {
	st.mu.Lock()
	if uint32(op) != st.fence || st.live == 0 {
		st.mu.Unlock()
		return
	}
	k := 0
	for k < len(st.due) && st.due[k].at <= st.at {
		if st.due[k].e != nil {
			st.live--
		}
		k++
	}
	run := st.due[:k]
	st.due, st.spare = append(st.spare[:0], st.due[k:]...), nil
	st.tick = transport.Timer{}
	if st.live == 0 {
		st.resetLocked()
	} else {
		i := 0
		for st.due[i].e == nil {
			i++
		}
		st.armClockLocked(st.due[i].at, st.clock.Now())
	}
	st.mu.Unlock()
	for _, a := range run {
		if a.e != nil {
			a.e.RunEvent(a.op)
		}
	}
	clear(run)
	st.mu.Lock()
	st.spare = run[:0]
	st.mu.Unlock()
}
