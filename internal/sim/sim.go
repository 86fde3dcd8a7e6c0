// Package sim provides the discrete event simulation engine used to run
// the Chord/DAT protocol stack at scales beyond what a single machine can
// host as real processes (the paper evaluates up to 8192 nodes this way;
// the arena engine here sweeps 10k–65k).
//
// The engine is a classic heap-ordered event queue with a virtual clock:
// events are (time, sequence, callback) triples fired in chronological
// order; ties break by insertion order so runs are fully deterministic for
// a given seed. The engine is single-goroutine by design — protocol code
// scheduled on it must not block.
//
// Storage is an arena: event state lives in pooled slots addressed by
// index, the heap orders slot indices, and freed slots recycle through an
// intrusive free list. The steady-state Schedule/Cancel/fire paths
// therefore allocate nothing (see DESIGN.md §15); ordering semantics are
// identical to the original pointer-heap engine — the (at, seq) comparator
// and the per-At sequence counter are unchanged, which datcheck's golden
// trace hashes pin down byte for byte.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the
// start of the simulation.
type Time int64

// Seconds converts a virtual time to float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String renders the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Runner is the allocation-free alternative to a closure callback: hot
// paths that would otherwise capture per-event state in a fresh closure
// (simulated message deliveries, tickers) implement RunEvent on a pooled
// record and schedule it with Engine.ScheduleRun, threading a small op
// code instead of a context.
type Runner interface {
	// RunEvent fires the event. op is the value passed to ScheduleRun,
	// letting one record distinguish several event roles.
	RunEvent(op int32)
}

// Event is a handle to a scheduled callback, created by Engine.Schedule,
// Engine.At or their Runner variants. It is a small value (not a pointer
// into the engine): copying it is cheap and the zero Event is a valid
// "no event" — Cancel and Pending on it are no-ops. A generation counter
// makes handles to recycled slots inert, so a stale Cancel can never kill
// an unrelated later event.
type Event struct {
	engine *Engine
	idx    int32
	gen    uint32
	at     Time
}

// Time returns when the event is (or was) scheduled to fire.
func (e Event) Time() Time { return e.at }

// Cancel removes the event from the queue. Cancelling an event that has
// already fired or been cancelled (or the zero Event) is a no-op. Cancel
// reports whether the event was still pending.
func (e Event) Cancel() bool {
	if e.engine == nil {
		return false
	}
	return e.engine.StopTimer(e.idx, e.gen)
}

// Slot returns the event's arena coordinates, the arguments of
// Engine.StopTimer: a holder that already knows the engine can keep
// these 8 bytes instead of the whole Event (transport.Timer does).
func (e Event) Slot() (idx int32, gen uint32) { return e.idx, e.gen }

// StopTimer is Event.Cancel by coordinates: it cancels the event in
// arena slot idx if the slot's generation is still gen.
func (e *Engine) StopTimer(idx int32, gen uint32) bool {
	s := &e.slots[idx]
	if s.gen != gen || s.pos < 0 {
		return false
	}
	e.heapRemove(int(s.pos))
	e.freeSlot(idx)
	return true
}

// Pending reports whether the event is still queued.
func (e Event) Pending() bool {
	if e.engine == nil {
		return false
	}
	s := &e.engine.slots[e.idx]
	return s.gen == e.gen && s.pos >= 0
}

// slot is one arena cell. A slot is either queued (pos is its heap
// position) or free (pos == -1, next links the free list). gen advances
// every time the slot is released, invalidating outstanding handles.
type slot struct {
	at   Time
	seq  uint64
	fn   func()
	run  Runner
	op   int32
	gen  uint32
	pos  int32
	next int32
}

// Engine is a discrete event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	slots   []slot
	heap    []int32 // slot indices ordered by (at, seq)
	free    int32   // head of the free-slot list, -1 when empty
	now     Time
	seq     uint64
	rng     *rand.Rand
	seed    int64
	stopped bool
	fired   uint64
}

// NewEngine returns an engine with its virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed, free: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was constructed with. Harnesses embed
// it in failure artifacts so a run can be replayed bit-for-bit.
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's deterministic random source. Protocol code
// running on the engine should draw all randomness from here so that runs
// are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Len returns the number of pending events.
func (e *Engine) Len() int { return len(e.heap) }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// --- arena + index heap ---

func (e *Engine) allocSlot() int32 {
	if e.free >= 0 {
		i := e.free
		e.free = e.slots[i].next
		return i
	}
	e.slots = append(e.slots, slot{pos: -1, next: -1})
	return int32(len(e.slots) - 1)
}

// freeSlot releases a slot back to the free list. Callbacks are cleared
// so the arena retains no closures, and the generation advances so stale
// handles go inert.
func (e *Engine) freeSlot(i int32) {
	s := &e.slots[i]
	s.fn = nil
	s.run = nil
	s.gen++
	s.pos = -1
	s.next = e.free
	e.free = i
}

// less orders slot indices by the historical (at, seq) comparator. seq is
// unique per event, so the order is total and independent of the heap's
// internal arrangement.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) heapSwap(a, b int) {
	e.heap[a], e.heap[b] = e.heap[b], e.heap[a]
	e.slots[e.heap[a]].pos = int32(a)
	e.slots[e.heap[b]].pos = int32(b)
}

func (e *Engine) siftUp(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !e.less(e.heap[j], e.heap[parent]) {
			break
		}
		e.heapSwap(j, parent)
		j = parent
	}
}

func (e *Engine) siftDown(j int) {
	n := len(e.heap)
	for {
		left := 2*j + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && e.less(e.heap[right], e.heap[left]) {
			min = right
		}
		if !e.less(e.heap[min], e.heap[j]) {
			return
		}
		e.heapSwap(j, min)
		j = min
	}
}

func (e *Engine) heapPush(i int32) {
	e.heap = append(e.heap, i)
	e.slots[i].pos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
}

// heapRemove detaches and returns the slot index at heap position pos.
func (e *Engine) heapRemove(pos int) int32 {
	i := e.heap[pos]
	n := len(e.heap) - 1
	if pos != n {
		e.heap[pos] = e.heap[n]
		e.slots[e.heap[pos]].pos = int32(pos)
	}
	e.heap = e.heap[:n]
	if pos < n {
		e.siftDown(pos)
		e.siftUp(pos)
	}
	e.slots[i].pos = -1
	return i
}

// --- scheduling ---

// Schedule queues fn to run after delay d of virtual time. Negative
// delays are treated as zero (fire at the current instant, after already
// queued same-time events). It returns a cancellable handle.
func (e *Engine) Schedule(d time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if d < 0 {
		d = 0
	}
	return e.at(e.now+Time(d), fn, nil, 0)
}

// At queues fn to run at absolute virtual time t. Times in the past are
// clamped to now.
func (e *Engine) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	return e.at(t, fn, nil, 0)
}

// ScheduleRun is the allocation-free Schedule: it queues r.RunEvent(op)
// after delay d. The caller owns r's lifetime — the engine drops its
// reference when the event fires or is cancelled.
func (e *Engine) ScheduleRun(d time.Duration, r Runner, op int32) Event {
	if r == nil {
		panic("sim: ScheduleRun with nil runner")
	}
	if d < 0 {
		d = 0
	}
	return e.at(e.now+Time(d), nil, r, op)
}

// AtRun is the allocation-free At.
func (e *Engine) AtRun(t Time, r Runner, op int32) Event {
	if r == nil {
		panic("sim: AtRun with nil runner")
	}
	return e.at(t, nil, r, op)
}

func (e *Engine) at(t Time, fn func(), r Runner, op int32) Event {
	if t < e.now {
		t = e.now
	}
	i := e.allocSlot()
	s := &e.slots[i]
	s.at = t
	s.seq = e.seq
	s.fn = fn
	s.run = r
	s.op = op
	e.seq++
	e.heapPush(i)
	return Event{engine: e, idx: i, gen: s.gen, at: t}
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	fn, r, op := e.pop()
	if r != nil {
		r.RunEvent(op)
	} else {
		fn()
	}
	return true
}

// pop detaches the earliest pending event and advances the clock to its
// timestamp. The slot is freed before the callback runs: it may reuse
// the slot immediately.
func (e *Engine) pop() (fn func(), r Runner, op int32) {
	i := e.heapRemove(0)
	s := &e.slots[i]
	e.now = s.at
	fn, r, op = s.fn, s.run, s.op
	e.freeSlot(i)
	e.fired++
	return fn, r, op
}

// PopDue is Step with the callback handed back instead of run: if the
// earliest pending event is due at or before deadline it is detached
// (the clock advances to its timestamp) and returned — r for a Runner
// event, fn for a closure one. A host that must fire callbacks outside
// its own lock drives the engine with it (transport.RealClock).
func (e *Engine) PopDue(deadline Time) (fn func(), r Runner, op int32, ok bool) {
	if len(e.heap) == 0 || e.slots[e.heap[0]].at > deadline {
		return nil, nil, 0, false
	}
	fn, r, op = e.pop()
	return fn, r, op, true
}

// Next returns the timestamp of the earliest pending event.
func (e *Engine) Next() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.slots[e.heap[0]].at, true
}

// Run fires events until the queue drains or Stop is called. It returns
// the number of events fired by this call.
func (e *Engine) Run() uint64 {
	e.stopped = false
	start := e.fired
	for !e.stopped && e.Step() {
	}
	return e.fired - start
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to deadline (if it has not already passed it). Events scheduled beyond
// the deadline remain queued. It returns the number of events fired.
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.stopped = false
	start := e.fired
	for !e.stopped && len(e.heap) > 0 && e.slots[e.heap[0]].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// RunFor advances the simulation by d of virtual time (see RunUntil).
func (e *Engine) RunFor(d time.Duration) uint64 {
	return e.RunUntil(e.now + Time(d))
}

// Stop makes the innermost Run/RunUntil return after the current event
// completes. It is intended to be called from within an event callback.
func (e *Engine) Stop() { e.stopped = true }

// Every schedules fn to run periodically with the given period, starting
// one period from now, until the returned Ticker is stopped. Jitter, if
// positive, adds a uniform random offset in [0, jitter) to each firing —
// protocol maintenance loops (Chord stabilization) use this to avoid
// lock-step synchronization artifacts.
func (e *Engine) Every(period, jitter time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, jitter: jitter, fn: fn}
	t.schedule()
	return t
}

// Ticker is a recurring event created by Engine.Every. The ticker itself
// is the event's Runner, so re-arming each period reuses its arena slot
// and allocates nothing — with 3 maintenance tickers per node, this is
// what keeps a 10k-node ring's steady state allocation-free.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	jitter  time.Duration
	fn      func()
	ev      Event
	stopped bool
}

func (t *Ticker) schedule() {
	d := t.period
	if t.jitter > 0 {
		d += time.Duration(t.engine.rng.Int63n(int64(t.jitter)))
	}
	t.ev = t.engine.ScheduleRun(d, t, 0)
}

// RunEvent implements Runner: one periodic firing. It is invoked by the
// engine and is not meant to be called directly.
func (t *Ticker) RunEvent(int32) {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

// Stop halts the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
