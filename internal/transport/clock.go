package transport

//datlint:allow-realtime this file implements the live Clock paths
// (RealClock over the time package); simulated runs use SimClock, which
// never touches the wall clock.

import (
	"math"
	"sync"
	"time"

	"repro/internal/sim"
)

// Clock abstracts time for protocol maintenance loops (stabilization,
// continuous aggregation slots) so the same protocol code runs in real
// time or virtual time.
//
// Callbacks of one clock run one at a time — on the simulator's event
// loop, or on the RealClock's timer loop — and must not block: they hand
// work to Endpoint.Call continuations instead of waiting for it
// (DESIGN.md §17).
type Clock interface {
	// Now returns the current time as a duration since the clock's
	// epoch. Every clock of one system shares that epoch — the
	// simulator's engine time, the Unix epoch live — so Now()/slot is
	// the same slot on every node (DESIGN.md §17).
	Now() time.Duration
	// AfterRun runs r.RunEvent(op) once after d and allocates nothing:
	// the timer is the caller's record, not a closure. It is the one-shot
	// timer: slot ticks, flush deadlines, ack timeouts and query windows
	// are all records armed with it.
	AfterRun(d time.Duration, r TimerTask, op int32) Timer
	// Every runs fn periodically with optional uniform jitter added to
	// each period. The returned stop function halts the loop.
	Every(period, jitter time.Duration, fn func()) (stop func())
}

// TimerTask is the record form of a timer callback — sim.Runner lifted
// to the clock seam: the value that owns the timer implements
// RunEvent(op) and tells its timers apart by op.
type TimerTask = sim.Runner

// TimerHost is where a clock keeps its armed timers: slot idx holds one
// for as long as the slot's generation is gen. sim.Engine is SimClock's,
// RealClock is its own; a test clock that wraps one of them implements
// it to see Stop.
type TimerHost interface {
	// StopTimer cancels the timer in slot idx if it is still the one
	// armed under gen, and reports whether it was.
	StopTimer(idx int32, gen uint32) bool
}

// Timer is the handle of one AfterRun timer. It is a small value: copy
// it freely. The zero Timer is inert, and so is a handle whose timer has
// fired or been stopped — the generation fences a recycled slot, so a
// stale Stop can never cancel a later timer.
type Timer struct {
	host TimerHost
	idx  int32
	gen  uint32
}

// NewTimer assembles the handle of the timer a host armed in slot idx
// under generation gen.
func NewTimer(host TimerHost, idx int32, gen uint32) Timer {
	return Timer{host: host, idx: idx, gen: gen}
}

// Stop cancels the timer and reports whether that prevented it from
// firing. False means it has fired (its callback may still be running),
// was stopped before, or is the zero Timer.
func (t Timer) Stop() bool {
	if t.host == nil {
		return false
	}
	return t.host.StopTimer(t.idx, t.gen)
}

// SimClock adapts a sim.Engine to the Clock interface. All callbacks run
// inline on the engine's event loop.
type SimClock struct {
	Engine *sim.Engine
}

// Now implements Clock.
func (c SimClock) Now() time.Duration { return time.Duration(c.Engine.Now()) }

// AfterRun implements Clock: straight onto Engine.ScheduleRun.
func (c SimClock) AfterRun(d time.Duration, r TimerTask, op int32) Timer {
	idx, gen := c.Engine.ScheduleRun(d, r, op).Slot()
	return Timer{host: c.Engine, idx: idx, gen: gen}
}

// Every implements Clock.
func (c SimClock) Every(period, jitter time.Duration, fn func()) func() {
	t := c.Engine.Every(period, jitter, fn)
	return t.Stop
}

// RealClock implements Clock over the time package, for live transports.
// It is the event loop the simulator is: every timer of the clock —
// AfterRun and Every alike — is a record in one arena heap (a
// sim.Engine used as a timer store, ordered by (when, seq)), and one
// goroutine sleeps on one runtime timer until the head is due, then runs
// the due callbacks one at a time outside the lock. Arming a timer wakes
// the loop only when the new entry becomes the head.
//
// Now is wall-anchored monotonic time: the Unix nanoseconds of the
// moment the clock started plus the monotonic time elapsed since, so
// clocks started at different times on synchronised hosts agree on
// slot boundaries, and a wall-clock step after start moves none of
// them. The timer heap keys on the same frame.
//
// The zero value is ready to use and jitters with a fixed default seed;
// use NewRealClock to thread an explicit per-node seed so maintenance
// jitter differs across nodes while every run stays reproducible (a
// wall-clock seed here once broke replay determinism — simclock now
// bans the pattern). The loop starts with the first timer and runs until
// Stop.
type RealClock struct {
	seed  int64
	once  sync.Once
	start time.Time     // when the clock started, with its monotonic reading
	base  time.Duration // start as Unix nanoseconds: Now() at start
	kick  chan struct{} // wakes the loop: an earlier head, or Stop
	done  chan struct{} // closed when the loop has exited

	mu      sync.Mutex
	timers  *sim.Engine // the heap, and the jitter RNG seeded with seed
	wakeAt  sim.Time    // what the loop sleeps until; 0 while it is awake
	started bool
	stopped bool
}

// NewRealClock returns a live clock whose jitter RNG is seeded with
// seed. Peers derive the seed from their ring identifier so that
// maintenance loops across a deployment do not fire in lock-step.
func NewRealClock(seed int64) *RealClock {
	return &RealClock{seed: seed}
}

func (c *RealClock) init() {
	c.once.Do(func() {
		c.start = time.Now()
		c.base = time.Duration(c.start.UnixNano())
		seed := c.seed
		if seed == 0 {
			seed = 1
		}
		c.timers = sim.NewEngine(seed)
		c.kick = make(chan struct{}, 1)
		c.done = make(chan struct{})
	})
}

// Now implements Clock.
func (c *RealClock) Now() time.Duration {
	c.init()
	return c.now()
}

// now is Now on a started clock: the frame the timer heap keys on.
func (c *RealClock) now() time.Duration { return c.base + time.Since(c.start) }

// armLocked queues r.RunEvent(op) d from now and makes sure the loop
// wakes for it. After Stop nothing is armed and the zero Event comes
// back. Caller holds c.mu.
func (c *RealClock) armLocked(d time.Duration, r TimerTask, op int32) sim.Event {
	if c.stopped {
		return sim.Event{}
	}
	at := sim.Time(c.now() + d) // in the past is due at once
	ev := c.timers.AtRun(at, r, op)
	switch {
	case !c.started:
		c.started = true
		go c.loop()
	case ev.Time() < c.wakeAt:
		c.wakeAt = 0 // one kick is enough until the loop has looked
		c.wake()
	}
	return ev
}

func (c *RealClock) wake() {
	select {
	case c.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// AfterRun implements Clock. A warm clock allocates nothing here.
func (c *RealClock) AfterRun(d time.Duration, r TimerTask, op int32) Timer {
	c.init()
	c.mu.Lock()
	ev := c.armLocked(d, r, op)
	c.mu.Unlock()
	if ev == (sim.Event{}) {
		return Timer{}
	}
	idx, gen := ev.Slot()
	return Timer{host: c, idx: idx, gen: gen}
}

// StopTimer implements TimerHost.
func (c *RealClock) StopTimer(idx int32, gen uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timers.StopTimer(idx, gen)
}

// realTicker is one Every loop: the record re-arms itself after each
// firing, so a ticker costs one heap entry, not a goroutine.
type realTicker struct {
	c              *RealClock
	period, jitter time.Duration
	fn             func()
	ev             sim.Event // guarded by c.mu, like stopped
	stopped        bool
}

func (t *realTicker) arm() {
	c := t.c
	c.mu.Lock()
	if !t.stopped {
		d := t.period
		if t.jitter > 0 {
			d += time.Duration(c.timers.Rand().Int63n(int64(t.jitter)))
		}
		t.ev = c.armLocked(d, t, 0)
	}
	c.mu.Unlock()
}

// RunEvent implements TimerTask: one period has elapsed.
func (t *realTicker) RunEvent(int32) {
	t.c.mu.Lock()
	stopped := t.stopped // a stop that raced the timer wins
	t.c.mu.Unlock()
	if stopped {
		return
	}
	t.fn()
	t.arm()
}

func (t *realTicker) stop() {
	t.c.mu.Lock()
	t.stopped = true
	t.ev.Cancel()
	t.c.mu.Unlock()
}

// Every implements Clock.
func (c *RealClock) Every(period, jitter time.Duration, fn func()) func() {
	c.init()
	t := &realTicker{c: c, period: period, jitter: jitter, fn: fn}
	t.arm()
	return t.stop
}

// loop is the clock's one goroutine: run what is due, sleep until the
// head is, until Stop.
func (c *RealClock) loop() {
	defer close(c.done)
	sleep := time.NewTimer(time.Hour)
	defer sleep.Stop()
	for {
		c.mu.Lock()
		for !c.stopped {
			_, r, op, due := c.timers.PopDue(sim.Time(c.now()))
			if !due {
				break
			}
			c.mu.Unlock()
			r.RunEvent(op)
			c.mu.Lock()
		}
		if c.stopped {
			c.mu.Unlock()
			return
		}
		next, pending := c.timers.Next()
		if !pending {
			next = math.MaxInt64
		}
		c.wakeAt = next
		c.mu.Unlock()

		if !pending {
			<-c.kick
			continue
		}
		if !sleep.Stop() {
			select {
			case <-sleep.C: // fired since the last wait and never read
			default:
			}
		}
		sleep.Reset(time.Duration(next) - c.now())
		select {
		case <-sleep.C:
		case <-c.kick:
		}
	}
}

// Stop ends the clock: timers still pending are dropped, nothing can be
// armed afterwards, and when Stop returns the loop goroutine has exited,
// so no callback of this clock runs any more. It must not be called
// from one of the clock's own callbacks, which it waits for. Stopping
// twice is safe.
func (c *RealClock) Stop() {
	c.init()
	c.mu.Lock()
	c.stopped = true
	started := c.started
	c.mu.Unlock()
	if started {
		c.wake()
		<-c.done
	}
}
