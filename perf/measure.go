package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a supported platform
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what one measured interval cost the host.
type window struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

type windowStart struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
}

func startWindow() windowStart {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return windowStart{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs}
}

func (s windowStart) stop() window {
	w := window{wall: time.Since(s.at), cpu: cpuTime() - s.cpu}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - s.mallocs
	return w
}

// liveHeap returns HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

const profileHz = 500

// profiler wraps runtime/pprof so a traced run can fold its own CPU
// profile. A nil *profiler does nothing.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	// A traced window is a few seconds; at the default 100 Hz a 2% layer
	// would be a handful of samples. StartCPUProfile keeps a rate set
	// beforehand (and says so on standard error).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the cpu_share buckets.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes())
}

// outcome is what one run of one workload produced, before it is laid
// out against the vocabulary in names.go.
type outcome struct {
	attempted, failed int
	notes             []string
	m                 map[string]float64
	// samples holds what one system of an untraced run measured of each
	// end-to-end metric: one value per simulated slot or per interval of
	// a live window, a single one where the system has only one to give
	// (its set-up time).
	samples map[string][]float64
	tr      *tracer // traced runs: written out once the layer drivers have added their spans
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// systems is how many times an untraced run builds, measures and
// discards its system, each for a third of --seconds. A traced run
// measures the first of them, plain and traced, over the same third.
const systems = 3

// systemSeed derives the seed of a run's i-th system, so the three
// differ in ring, tree shapes, churn victims and query mix.
func systemSeed(seed int64, i int) int64 { return seed*systems + int64(i) }

// medianOfSystems runs one untraced measurement per system and reports,
// for every end-to-end metric, the median of all the samples the three
// took of it, pooled. The host's speed wanders by a tenth, from one half
// second to the next and from one minute to the next; a median over
// every slot or interval of the run is moved least by either, and less
// than a median of three per-system medians.
func medianOfSystems(seed int64, one func(seed int64) (*outcome, error)) (*outcome, error) {
	sum := &outcome{m: map[string]float64{}}
	pooled := map[string][]float64{}
	for i := 0; i < systems; i++ {
		out, err := one(systemSeed(seed, i))
		if err != nil {
			return nil, err
		}
		sum.attempted += out.attempted
		sum.failed += out.failed
		sum.notes = out.notes
		for k, v := range out.samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	for k, v := range pooled {
		sum.m[k] = median(v)
	}
	return sum, nil
}
