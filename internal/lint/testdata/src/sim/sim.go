// Package sim is the simclock analyzer fixture: wall-clock reads and
// wall-clock-seeded math/rand must be flagged in simulation-facing
// packages; injected-clock code and fixed seeds must not.
package sim

import (
	"math/rand"
	"time"
)

// Clock is the injected time source, mirroring transport.Clock.
type Clock interface {
	Now() time.Duration
}

// BadNow reads the wall clock directly.
func BadNow() int64 {
	return time.Now().UnixNano() // want `time\.Now in simulation-facing code`
}

// BadSleep blocks on the wall clock.
func BadSleep() {
	time.Sleep(10 * time.Millisecond) // want `time\.Sleep in simulation-facing code`
}

// BadTimer schedules on the real timer wheel instead of the clock.
func BadTimer(fn func()) {
	time.AfterFunc(time.Second, fn) // want `time\.AfterFunc in simulation-facing code`
}

// BadSeed seeds the RNG from the wall clock: one finding for the whole
// idiom, not one per nested call.
func BadSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `math/rand seeded from the wall clock breaks replay determinism`
}

// GoodClock goes through the injected clock.
func GoodClock(c Clock) time.Duration {
	return c.Now()
}

// GoodSeed threads an explicit seed; durations and constants from the
// time package are fine — they carry no clock.
func GoodSeed(seed int64) *rand.Rand {
	_ = 2 * time.Second
	return rand.New(rand.NewSource(seed))
}
