package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The order oracle: a program of engine operations runs against the
// engine and against a reference — a plain slice of (at, seq) keys whose
// minimum is found by scanning — and every event must fire exactly when
// the reference says, whatever shape the heap is in. After every
// operation the heap's own invariants are checked too: each queued
// slot's pos is its heap index, no parent sorts after a child, free
// slots say so.

type oracleItem struct {
	at      Time
	seq     uint64
	live    bool
	ev      Event
	resched time.Duration // > 0: schedule one more event from inside the callback
}

type orderOracle struct {
	t     testing.TB
	e     *Engine
	items []*oracleItem // by id; an item's id is also its Runner op
	now   Time
	seq   uint64
	fired int
}

// RunEvent implements Runner for the ScheduleRun/AtRun events: op is the
// item id.
func (o *orderOracle) RunEvent(op int32) { o.fire(int(op)) }

func (o *orderOracle) min() int {
	best := -1
	for id, it := range o.items {
		if it.live && (best < 0 || it.at < o.items[best].at || it.at == o.items[best].at && it.seq < o.items[best].seq) {
			best = id
		}
	}
	return best
}

func (o *orderOracle) live() int {
	n := 0
	for _, it := range o.items {
		if it.live {
			n++
		}
	}
	return n
}

// schedule queues one event by the API variant kind selects, at now+d
// (d may be negative: the engine clamps to now, and so does the
// reference).
func (o *orderOracle) schedule(kind int, d, resched time.Duration) {
	id := len(o.items)
	it := &oracleItem{at: o.now + Time(d), seq: o.seq, live: true, resched: resched}
	if it.at < o.now {
		it.at = o.now
	}
	o.seq++
	o.items = append(o.items, it)
	switch kind % 4 {
	case 0:
		it.ev = o.e.Schedule(d, func() { o.fire(id) })
	case 1:
		it.ev = o.e.At(o.now+Time(d), func() { o.fire(id) })
	case 2:
		it.ev = o.e.ScheduleRun(d, o, int32(id))
	case 3:
		it.ev = o.e.AtRun(o.now+Time(d), o, int32(id))
	}
	if it.ev.Time() != it.at {
		o.t.Fatalf("event %d: handle says %v, reference %v", id, it.ev.Time(), it.at)
	}
}

// fire is every event's callback: the event must be the reference's
// minimum, and the clock must stand at its time.
func (o *orderOracle) fire(id int) {
	want := o.min()
	if want != id {
		o.t.Fatalf("fired event %d; the reference's earliest is %d", id, want)
	}
	it := o.items[id]
	it.live = false
	o.now = it.at
	o.fired++
	if o.e.Now() != it.at {
		o.t.Fatalf("event %d fired at %v, scheduled for %v", id, o.e.Now(), it.at)
	}
	if it.ev.Pending() {
		o.t.Fatalf("event %d is still pending inside its own callback", id)
	}
	if it.resched > 0 {
		o.schedule(id, it.resched-time.Millisecond, 0)
	}
}

// cancel cancels item id's handle (by coordinates when byCoord) and
// checks the engine agrees with the reference about whether it was
// still queued. Stale handles — fired, cancelled, their slot long since
// recycled — must be inert.
func (o *orderOracle) cancel(id int, byCoord bool) {
	it := o.items[id]
	var got bool
	if byCoord {
		got = o.e.StopTimer(it.ev.Slot())
	} else {
		got = it.ev.Cancel()
	}
	if got != it.live {
		o.t.Fatalf("cancel of event %d returned %v; the reference says live=%v", id, got, it.live)
	}
	it.live = false
}

// byHeapPos returns the id of the live item queued at heap position pos.
func (o *orderOracle) byHeapPos(pos int) int {
	idx := o.e.heap[pos].idx
	for id, it := range o.items {
		if i, _ := it.ev.Slot(); it.live && i == idx {
			return id
		}
	}
	o.t.Fatalf("heap position %d holds slot %d, which no live event owns", pos, idx)
	return -1
}

func (o *orderOracle) check(op string) {
	e := o.e
	if e.Len() != o.live() {
		o.t.Fatalf("after %s: %d queued, the reference has %d", op, e.Len(), o.live())
	}
	if e.Now() != o.now {
		o.t.Fatalf("after %s: clock %v, the reference %v", op, e.Now(), o.now)
	}
	for j, ent := range e.heap {
		if got := e.slots[ent.idx].pos; got != int32(j) {
			o.t.Fatalf("after %s: slot %d sits at heap index %d but its pos says %d", op, ent.idx, j, got)
		}
		if j > 0 && ent.before(e.heap[(j-1)/heapArity]) {
			o.t.Fatalf("after %s: heap entry %d sorts before its parent", op, j)
		}
	}
	queued := 0
	for i := range e.slots {
		if e.slots[i].pos >= 0 {
			queued++
		}
	}
	if queued != len(e.heap) {
		o.t.Fatalf("after %s: %d slots claim a heap position, the heap has %d", op, queued, len(e.heap))
	}
	for id, it := range o.items {
		if it.ev.Pending() != it.live {
			o.t.Fatalf("after %s: event %d Pending()=%v, the reference says %v", op, id, it.ev.Pending(), it.live)
		}
	}
	if at, ok := e.Next(); ok != (len(e.heap) > 0) || ok && at != o.items[o.min()].at {
		o.t.Fatalf("after %s: Next() = %v, %v", op, at, ok)
	}
}

// runOrderProgram interprets prog, three bytes an operation.
func runOrderProgram(t testing.TB, prog []byte) {
	const maxOps = 4096 // the reference scans: keep a fuzz input quadratic in something small
	if len(prog) > 3*maxOps {
		prog = prog[:3*maxOps]
	}
	o := &orderOracle{t: t, e: NewEngine(1)}
	var zero Event
	for ; len(prog) >= 3; prog = prog[3:] {
		code, a, b := int(prog[0]), int(prog[1]), int(prog[2])
		ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
		op := ""
		switch code % 10 {
		case 0, 1, 2, 3:
			// Eight instants, two of them in the past: ties are the norm.
			op = "schedule"
			o.schedule(code, ms(a%8-2), ms(b%4))
		case 4, 5:
			op = "cancel"
			if k := a % (len(o.items) + 1); k < len(o.items) {
				o.cancel(k, code%10 == 5)
			} else if zero.Cancel() || zero.Pending() {
				t.Fatal("the zero Event is not inert")
			}
		case 6:
			op = "cancel-at"
			if n := o.e.Len(); n > 0 {
				o.cancel(o.byHeapPos([]int{0, n - 1, n / 2, a % n}[b%4]), a%2 == 0)
			}
		case 7:
			op = "step"
			before := o.fired
			if stepped := o.e.Step(); stepped != (o.fired == before+1) {
				t.Fatalf("Step() = %v after firing %d", stepped, o.fired-before)
			}
		case 8:
			op = "popdue"
			deadline := o.now + Time(ms(a%4))
			want := o.min()
			fn, r, rop, ok := o.e.PopDue(deadline)
			if due := want >= 0 && o.items[want].at <= deadline; ok != due {
				t.Fatalf("PopDue(%v) = %v; the reference says due=%v", deadline, ok, due)
			}
			if ok {
				if (fn == nil) == (r == nil) {
					t.Fatalf("PopDue handed back fn=%v and runner=%v", fn != nil, r != nil)
				}
				if r != nil {
					r.RunEvent(rop)
				} else {
					fn()
				}
			}
		case 9:
			op = "rununtil"
			deadline := o.now + Time(ms(a%6))
			before := o.fired
			if n := o.e.RunUntil(deadline); int(n) != o.fired-before {
				t.Fatalf("RunUntil returned %d after firing %d", n, o.fired-before)
			}
			if m := o.min(); m >= 0 && o.items[m].at <= deadline {
				t.Fatalf("RunUntil(%v) left event %d at %v queued", deadline, m, o.items[m].at)
			}
			o.now = deadline // RunUntil parks the clock on the deadline
		}
		o.check(op)
	}
	// Drain: whatever is left fires in reference order.
	before := o.fired
	if n := o.e.Run(); int(n) != o.fired-before || o.live() != 0 {
		t.Fatalf("drain returned %d after firing %d, %d left in the reference", n, o.fired-before, o.live())
	}
	o.check("drain")
}

// orderSeeds are hand-written programs for the cases a random one meets
// rarely; they also seed the fuzzer's corpus.
func orderSeeds() [][]byte {
	var grow []byte // 22 events on one instant: every 4-ary level edge (1, 4, 5, 21)
	for i := 0; i < 22; i++ {
		grow = append(grow, byte(i%4), 3, 0)
	}
	cancelEach := func(which byte) []byte {
		p := append([]byte(nil), grow...)
		for i := 0; i < 22; i++ {
			p = append(p, 6, byte(i), which) // root, last, middle, any — by handle or by coordinates
		}
		return p
	}
	var popEach []byte // step down through the level edges, rescheduling from the callbacks
	for i := 0; i < 22; i++ {
		popEach = append(popEach, byte(i%4), byte(i), 3)
	}
	for i := 0; i < 30; i++ {
		popEach = append(popEach, 7, 0, 0)
	}
	stale := append(append([]byte(nil), grow...), 9, 5, 0) // fire all, then cancel every dead handle and the zero one
	for i := 0; i <= 22; i++ {
		stale = append(stale, 4+byte(i%2), byte(i), 0, 0, 2, 0)
	}
	return [][]byte{grow, cancelEach(0), cancelEach(1), cancelEach(2), cancelEach(3), popEach, stale}
}

func TestEngineOrderOracle(t *testing.T) {
	for _, p := range orderSeeds() {
		runOrderProgram(t, p)
	}
	// Random programs, from mostly-scheduling (deep queues) to
	// mostly-draining (queues hovering around the small level edges).
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3*600)
		rng.Read(prog)
		if bias := seed % 3; bias > 0 {
			for i := 0; i < len(prog); i += 3 {
				if rng.Intn(3) == 0 {
					prog[i] = []byte{0, 7}[bias-1] // one more schedule, or one more step
				}
			}
		}
		runOrderProgram(t, prog)
	}
}

func FuzzEngineOrder(f *testing.F) {
	for _, p := range orderSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runOrderProgram(t, prog) })
}
