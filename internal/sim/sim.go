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
// Storage is an arena: callbacks live in pooled slots addressed by
// index, a 4-ary heap of {at, seq, slot} entries orders them by the key
// it holds inline, and freed slots recycle through an intrusive free
// list. The steady-state Schedule/Cancel/fire paths therefore allocate
// nothing, and ordering a deep queue compares keys inside the heap array
// instead of chasing two arena slots per comparison (see DESIGN.md §15);
// ordering semantics are identical to the original pointer-heap engine —
// the (at, seq) comparator and the per-At sequence counter are
// unchanged, which datcheck's golden trace hashes pin down byte for
// byte.
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
// The ordering key is not here: it lives in the slot's heap entry, so
// ordering the queue never reads the arena.
type slot struct {
	fn   func()
	run  Runner
	op   int32
	gen  uint32
	pos  int32
	next int32
}

// entry is one queued event as the heap sees it: the (at, seq) key
// inline, and the arena slot that holds the callback.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// before is the historical (at, seq) comparator. seq is unique per
// event, so the order is total and independent of the heap's internal
// arrangement.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	slots   []slot
	heap    []entry // 4-ary min-heap on (at, seq)
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

// --- arena + inline-key heap ---

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

// The heap is 4-ary (children of j are 4j+1..4j+4): half the levels of a
// binary heap, and the four keys a sift-down compares sit side by side.
// Sifting moves a hole rather than swapping: each level costs one entry
// copy and one pos write-back into the arena, the only arena access
// ordering makes (DESIGN.md §15).
const heapArity = 4

// place writes ent at heap position j and records the position in its
// slot.
func (e *Engine) place(j int, ent entry) {
	e.heap[j] = ent
	e.slots[ent.idx].pos = int32(j)
}

// siftUp settles ent into the hole at j, moving larger ancestors down.
func (e *Engine) siftUp(j int, ent entry) {
	for j > 0 {
		parent := (j - 1) / heapArity
		if !ent.before(e.heap[parent]) {
			break
		}
		e.place(j, e.heap[parent])
		j = parent
	}
	e.place(j, ent)
}

// siftDown settles ent into the hole at j, moving the smallest child up
// while it precedes ent.
func (e *Engine) siftDown(j int, ent entry) {
	h := e.heap
	for {
		first := heapArity*j + 1
		if first >= len(h) {
			break
		}
		min := first
		for c := first + 1; c < len(h) && c < first+heapArity; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(ent) {
			break
		}
		e.place(j, h[min])
		j = min
	}
	e.place(j, ent)
}

func (e *Engine) heapPush(ent entry) {
	e.heap = append(e.heap, ent)
	e.siftUp(len(e.heap)-1, ent)
}

// heapRemove detaches and returns the entry at heap position pos: the
// last entry fills the hole and settles whichever way its key sends it.
// The caller frees the detached entry's slot, which clears its pos.
func (e *Engine) heapRemove(pos int) entry {
	ent := e.heap[pos]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if pos < n {
		if pos > 0 && last.before(e.heap[(pos-1)/heapArity]) {
			e.siftUp(pos, last)
		} else {
			e.siftDown(pos, last)
		}
	}
	return ent
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
	s.fn = fn
	s.run = r
	s.op = op
	gen := s.gen
	e.heapPush(entry{at: t, seq: e.seq, idx: i})
	e.seq++
	return Event{engine: e, idx: i, gen: gen, at: t}
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
	ent := e.heapRemove(0)
	s := &e.slots[ent.idx]
	e.now = ent.at
	fn, r, op = s.fn, s.run, s.op
	e.freeSlot(ent.idx)
	e.fired++
	return fn, r, op
}

// PopDue is Step with the callback handed back instead of run: if the
// earliest pending event is due at or before deadline it is detached
// (the clock advances to its timestamp) and returned — r for a Runner
// event, fn for a closure one. A host that must fire callbacks outside
// its own lock drives the engine with it (transport.RealClock).
func (e *Engine) PopDue(deadline Time) (fn func(), r Runner, op int32, ok bool) {
	if len(e.heap) == 0 || e.heap[0].at > deadline {
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
	return e.heap[0].at, true
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
	for !e.stopped && len(e.heap) > 0 && e.heap[0].at <= deadline {
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
