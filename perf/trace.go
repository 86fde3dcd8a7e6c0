package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one interval recorded by the benchmark's own code around its
// calls into the program under test. Parent is a span ID, -1 for the
// root. N carries the span's one number: events fired for a simulated
// slot, age in ms for a root result, result count for a query,
// operations for a driver batch.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	SelfNs  int64   `json:"self_ns"`
	N       float64 `json:"n"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 from a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: now, EndNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int, n float64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// instant records a zero-length span.
func (t *tracer) instant(parent int, name string, n float64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNs: now, EndNs: now, N: n})
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the time
// its direct children cover.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNs -= s.EndNs - s.StartNs
		}
	}
	return t.spans
}

// write stores the spans as out/trace-<workload>.json under the
// benchmark's directory (the working directory of `go -C perf run .`).
func (t *tracer) write(workload string) error {
	data, err := json.Marshal(t.finish())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}

const outDir = "out"

// scrape reads every series of an observer's registry through the
// public Prometheus exposition.
func scrape(o *obs.Observer) (promSample, error) {
	var buf bytes.Buffer
	if err := o.Reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := promSample{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// scrapeEach samples every observer separately (a live fleet has one
// per peer).
func scrapeEach(observers []*obs.Observer) ([]promSample, error) {
	out := make([]promSample, len(observers))
	for i, o := range observers {
		s, err := scrape(o)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// sumDeltas returns the growth of every series summed over the
// observers and, per observer, the number of DAT requests its peer
// received (for imbalance_factor on a live fleet).
func sumDeltas(before, after []promSample) (promSample, []uint64) {
	total := promSample{}
	perPeer := make([]uint64, len(after))
	for i := range after {
		for k, v := range after[i].sub(before[i]) {
			total[k] += v
			if strings.HasPrefix(k, `dat_transport_messages_total{type="dat.`) && !strings.Contains(k, ":reply") {
				perPeer[i] += uint64(v)
			}
		}
	}
	return total, perPeer
}

// traceSession is everything a traced run attaches around its measured
// window: the span recorder, the observers' counters before and after,
// and the CPU profile.
type traceSession struct {
	tr                   *tracer
	root, setup, measure int
	observers            []*obs.Observer
	before               []promSample
	prof                 *profiler
}

// beginTrace opens the run and setup spans; build the traced system
// next, then call startMeasure.
func beginTrace() *traceSession {
	s := &traceSession{tr: newTracer()}
	s.root = s.tr.begin(-1, "run")
	s.setup = s.tr.begin(s.root, "setup+warm-up")
	return s
}

// startMeasure closes the setup span, samples the observers, opens the
// measure span and starts the profile.
func (s *traceSession) startMeasure(observers []*obs.Observer) (err error) {
	s.tr.end(s.setup, 0)
	s.observers = observers
	if s.before, err = scrapeEach(observers); err != nil {
		return err
	}
	s.measure = s.tr.begin(s.root, "measure")
	s.prof, err = startProfile()
	return err
}

// stopMeasure ends what startMeasure began and returns the observers'
// counts over the window (summed, and DAT requests per observer) and
// the cpu_share buckets.
func (s *traceSession) stopMeasure() (delta promSample, perPeer []uint64, shares map[string]float64, err error) {
	if shares, err = s.prof.stop(); err != nil {
		return nil, nil, nil, err
	}
	s.tr.end(s.measure, 0)
	after, err := scrapeEach(s.observers)
	if err != nil {
		return nil, nil, nil, err
	}
	s.tr.end(s.root, 0)
	delta, perPeer = sumDeltas(s.before, after)
	return delta, perPeer, shares, nil
}

// promSample maps `name{label="value"}` to its value.
type promSample map[string]float64

// sub returns the growth of every series since an earlier sample.
func (p promSample) sub(before promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}

// total sums every series of one metric family, optionally only those
// whose label set contains the given fragment (e.g. `state="open"`).
func (p promSample) total(family, labelPart string) float64 {
	var sum float64
	for k, v := range p {
		name, labels, _ := strings.Cut(k, "{")
		if name == family && strings.Contains(labels, labelPart) {
			sum += v
		}
	}
	return sum
}
