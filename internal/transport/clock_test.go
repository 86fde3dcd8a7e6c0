package transport

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// The timer contract of the clock seam (DESIGN.md §17), on the live
// clock: one loop, entries fired in (when, seq) order one at a time,
// generation-fenced handles, nothing after Stop. Run under -race.

// taskFunc adapts a function to TimerTask for the tests.
type taskFunc func(op int32)

func (f taskFunc) RunEvent(op int32) { f(op) }

const long = 10 * time.Second // "never" for a test that must finish first

func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(long):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func TestRealClockFiresInWhenOrder(t *testing.T) {
	c := NewRealClock(1)
	defer c.Stop()
	fired := make(chan int32, 8)
	task := taskFunc(func(op int32) { fired <- op })
	// Hold the loop in a callback while the rest is armed, so all of
	// them are in the heap — and several already due — when it looks.
	gate := make(chan struct{})
	c.AfterRun(0, taskFunc(func(int32) { <-gate }), 0)
	c.AfterRun(30*time.Millisecond, task, 3)
	c.AfterRun(0, task, 1)
	c.AfterRun(15*time.Millisecond, task, 2)
	c.AfterRun(45*time.Millisecond, task, 4)
	time.Sleep(20 * time.Millisecond)
	close(gate)
	for want := int32(1); want <= 4; want++ {
		if got := recvWithin(t, fired, "a timer"); got != want {
			t.Fatalf("timer %d fired when %d was next", got, want)
		}
	}
}

func TestRealClockStop(t *testing.T) {
	c := NewRealClock(1)
	defer c.Stop()
	var fired atomic.Int32
	count := taskFunc(func(int32) { fired.Add(1) })

	var zero Timer
	if zero.Stop() {
		t.Error("the zero Timer reported a stop")
	}
	tm := c.AfterRun(time.Hour, count, 0)
	if !tm.Stop() {
		t.Error("Stop before fire did not report it")
	}
	if tm.Stop() {
		t.Error("second Stop reported a stop")
	}

	// The next timer takes the freed slot: the stale handle must not
	// reach it.
	done := make(chan struct{})
	next := c.AfterRun(20*time.Millisecond, taskFunc(func(int32) { close(done) }), 0)
	if next.idx != tm.idx {
		t.Fatalf("test premise: freed slot %d was not reused (got %d)", tm.idx, next.idx)
	}
	if tm.Stop() {
		t.Error("a stale handle stopped the timer that recycled its slot")
	}
	recvWithin(t, done, "the recycled slot's timer")
	if next.Stop() {
		t.Error("Stop after fire reported a stop")
	}
	if fired.Load() != 0 {
		t.Errorf("a stopped timer fired %d times", fired.Load())
	}
}

func TestRealClockFromCallbacksAndGoroutines(t *testing.T) {
	c := NewRealClock(1)
	defer c.Stop()

	// Arm and stop from inside a callback.
	inner := make(chan struct{})
	var victimFired atomic.Bool
	victim := c.AfterRun(time.Hour, taskFunc(func(int32) { victimFired.Store(true) }), 0)
	c.AfterRun(0, taskFunc(func(int32) {
		if !victim.Stop() {
			t.Error("Stop from a callback did not stop a pending timer")
		}
		c.AfterRun(time.Millisecond, taskFunc(func(int32) { close(inner) }), 0)
	}), 0)
	recvWithin(t, inner, "a timer armed from a callback")

	// Eight goroutines arm timers, stop half of them, and every timer
	// either reports its stop or fires — exactly once.
	const workers, each = 8, 200
	var fires, stops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				tm := c.AfterRun(time.Duration(rng.Intn(2000))*time.Microsecond, taskFunc(func(int32) { fires.Add(1) }), 0)
				if i%2 == 0 && tm.Stop() {
					stops.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(long)
	for fires.Load()+stops.Load() < workers*each && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := fires.Load() + stops.Load(); got != workers*each {
		t.Fatalf("%d fired + %d stopped = %d, want %d", fires.Load(), stops.Load(), got, workers*each)
	}
	if victimFired.Load() {
		t.Error("the timer stopped from a callback fired")
	}
}

// An earlier timer armed while the loop sleeps toward a later one wakes
// it: the new head fires on time, not at the old head's.
func TestRealClockEarlierTimerWakesLoop(t *testing.T) {
	c := NewRealClock(1)
	defer c.Stop()
	far := c.AfterRun(time.Hour, taskFunc(func(int32) {}), 0)
	defer far.Stop()
	time.Sleep(10 * time.Millisecond) // let the loop go to sleep on it
	start := time.Now()
	done := make(chan struct{})
	c.AfterRun(20*time.Millisecond, taskFunc(func(int32) { close(done) }), 0)
	recvWithin(t, done, "the earlier timer")
	if took := time.Since(start); took < 20*time.Millisecond || took > 2*time.Second {
		t.Errorf("a 20ms timer fired after %v", took)
	}
}

// Every draws one jitter per period from the clock's seeded source, in
// order: the k-th firing is armed period + (k-th draw) after the one
// before it ended.
func TestRealClockEveryKeepsSeededJitter(t *testing.T) {
	const seed, period, jitter = 42, 5 * time.Millisecond, 20 * time.Millisecond
	c := NewRealClock(seed)
	defer c.Stop()
	want := rand.New(rand.NewSource(seed))
	nextAt := func() time.Duration {
		c.mu.Lock()
		defer c.mu.Unlock()
		at, ok := c.timers.Next()
		if !ok {
			t.Fatal("ticker armed nothing")
		}
		return time.Duration(at)
	}
	check := func(k int, lo, hi time.Duration) {
		t.Helper()
		d := period + time.Duration(want.Int63n(int64(jitter)))
		if at := nextAt(); at < lo+d || at > hi+d {
			t.Fatalf("firing %d armed for %v; want [%v, %v]: the jitter sequence is not the seed's", k, at, lo+d, hi+d)
		}
	}
	ticked, resume := make(chan time.Duration), make(chan struct{})
	lo := c.Now()
	stop := c.Every(period, jitter, func() {
		ticked <- c.Now() // the next period is armed after fn returns
		<-resume
	})
	check(0, lo, c.Now())
	for k := 1; k <= 5; k++ {
		lo = recvWithin(t, ticked, "a tick")
		resume <- struct{}{}
		// The re-arm happens on the loop goroutine right after fn
		// returns; wait for it to land.
		for deadline := time.Now().Add(long); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			c.mu.Lock()
			_, armed := c.timers.Next()
			c.mu.Unlock()
			if armed {
				break
			}
		}
		check(k, lo, c.Now())
	}
	stop()
	stop() // twice is safe
	c.mu.Lock()
	_, armed := c.timers.Next()
	c.mu.Unlock()
	if armed {
		t.Error("a stopped ticker left its timer armed")
	}
}

// After Stop the loop goroutine is gone, nothing pending fires, and
// nothing can be armed.
// TestRealClocksShareSlotBoundaries: two clocks started 37 ms apart
// read one time frame, so they agree on which slot it is — the shared
// epoch every node's slot boundaries sit on — and that frame is the
// wall clock's.
func TestRealClocksShareSlotBoundaries(t *testing.T) {
	const slot = 250 * time.Millisecond
	a := NewRealClock(1)
	defer a.Stop()
	a.Now() // the clock starts on first use
	time.Sleep(37 * time.Millisecond)
	b := NewRealClock(2)
	defer b.Stop()
	for i := 0; i < 20; i++ {
		ta, tb := a.Now(), b.Now()
		if d := tb - ta; d < 0 || d > 5*time.Millisecond {
			t.Fatalf("clocks started 37ms apart read %v and %v: %v apart", ta, tb, d)
		}
		if wall := time.Duration(time.Now().UnixNano()) - tb; wall < -5*time.Millisecond || wall > 5*time.Millisecond {
			t.Fatalf("Now() = %v is %v off the wall clock", tb, wall)
		}
		if ta/slot == tb/slot {
			return
		}
		time.Sleep(time.Millisecond) // the two reads straddled a boundary
	}
	t.Fatal("the clocks never agreed on the slot")
}

func TestRealClockStopIsQuiescent(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewRealClock(1)
	var fired atomic.Int32
	count := taskFunc(func(int32) { fired.Add(1) })
	ran := make(chan struct{})
	c.AfterRun(0, taskFunc(func(int32) { close(ran) }), 0)
	recvWithin(t, ran, "the first timer")
	c.AfterRun(20*time.Millisecond, count, 0)
	c.AfterRun(20*time.Millisecond, count, 1)
	stopTicks := c.Every(5*time.Millisecond, 0, func() { fired.Add(1) })
	c.Stop()
	c.Stop() // twice is safe
	settled := fired.Load()
	// Stop returns when the loop closes done, its last act; give the
	// goroutine the instant it needs to be gone from the count.
	for deadline := time.Now().Add(long); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Stop, %d before the clock existed", n, before)
	}
	if tm := c.AfterRun(0, count, 0); tm != (Timer{}) || tm.Stop() {
		t.Error("AfterRun on a stopped clock returned a live timer")
	}
	c.Every(time.Millisecond, 0, func() { fired.Add(1) })()
	stopTicks()
	time.Sleep(60 * time.Millisecond)
	if got := fired.Load(); got != settled {
		t.Errorf("%d callbacks ran after Stop", got-settled)
	}
	new(RealClock).Stop() // a clock that never armed anything has no loop to wait for
}

// The clock seam's hot path allocates nothing: arming a record and
// stopping it, in both worlds.
func TestAfterRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	task := taskFunc(func(int32) {})
	var r TimerTask = task // boxed once: the caller's record, not the clock's

	eng := sim.NewEngine(1)
	sc := SimClock{Engine: eng}
	sc.AfterRun(time.Second, r, 0).Stop() // warm the arena
	if allocs := testing.AllocsPerRun(1000, func() {
		if !sc.AfterRun(time.Second, r, 7).Stop() {
			t.Fatal("sim timer was not pending")
		}
	}); allocs != 0 {
		t.Errorf("SimClock AfterRun+Stop allocates %.1f/op; budget is 0", allocs)
	}
	fired := 0
	count := TimerTask(taskFunc(func(int32) { fired++ }))
	if allocs := testing.AllocsPerRun(1000, func() {
		sc.AfterRun(time.Millisecond, count, 0)
		eng.Run()
	}); allocs != 0 || fired == 0 {
		t.Errorf("SimClock AfterRun+fire allocates %.1f/op (fired %d); budget is 0", allocs, fired)
	}

	rc := NewRealClock(1)
	defer rc.Stop()
	rc.AfterRun(time.Hour, r, 0).Stop() // start the loop, warm the arena
	if allocs := testing.AllocsPerRun(1000, func() {
		if !rc.AfterRun(time.Hour, r, 7).Stop() {
			t.Fatal("live timer was not pending")
		}
	}); allocs != 0 {
		t.Errorf("warm RealClock AfterRun+Stop allocates %.1f/op; budget is 0", allocs)
	}
}
