// Package obs is the runtime observability layer shared by the
// simulated and live stacks (DESIGN.md §9).
//
// It provides three things:
//
//   - an instrument Registry (counters, gauges, bucketed histograms)
//     with a Prometheus-text-format encoder, fed by transport.Tap plus
//     hook points in chord, core, and the transports;
//   - aggregation-round spans: each DAT value update carries a round
//     trace ID so a leaf's contribution can be followed hop by hop to
//     the root (SpanRing);
//   - an Observer tying the two together with an http.Handler serving
//     /metrics, /healthz, /debug/dat, /debug/spans, and pprof.
//
// The package deliberately imports only the standard library plus
// ident and transport, so every protocol layer (chord, core, rpcudp,
// cluster) can depend on it without cycles. It never reads the wall
// clock: all timestamps are supplied by callers from their injected
// transport.Clock, which keeps the simulated stack deterministic.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named instrument families and encodes them in the
// Prometheus text exposition format. All methods are safe for
// concurrent use; scrapes never block instrument updates for longer
// than a snapshot copy.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type instrumentKind int

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
)

func (k instrumentKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name: its metadata plus all children (one per
// label value; the empty label value is the unlabeled sample).
type family struct {
	name  string
	help  string
	kind  instrumentKind
	label string // label key, "" when unlabeled

	mu        sync.Mutex
	counters  map[string]*Counter
	counterFn func() []labeledCount // scrape-time samples, nil for none
	gauges    map[string]*Gauge
	gaugeFns  map[string]func() float64
	hists     map[string]*Histogram
	buckets   []float64
}

// labeledCount is one scrape-time sample of a counter family.
type labeledCount struct {
	label string
	n     uint64
}

// lookup returns the family for name, creating it on first use.
// Registering the same name twice with a different kind, label key, or
// bucket layout panics: it is a programming error that would corrupt
// the exposition.
func (r *Registry) lookup(name, help string, kind instrumentKind, label string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind, label: label,
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			gaugeFns: make(map[string]func() float64),
			hists:    make(map[string]*Histogram),
			buckets:  buckets,
		}
		r.fams[name] = f
		return f
	}
	if f.kind != kind || f.label != label {
		panic(fmt.Sprintf("obs: instrument %q re-registered as %s{%s}, was %s{%s}", name, kind, label, f.kind, f.label))
	}
	return f
}

// Counter registers (or returns) an unlabeled monotonically increasing
// counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, "", nil).counter("")
}

// CounterVec registers a counter family with one label key; children
// are created on first With call.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{fam: r.lookup(name, help, kindCounter, label, nil)}
}

// Gauge registers an unlabeled gauge with Set/Add semantics.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.gauges[""]
	if !ok {
		g = &Gauge{}
		f.gauges[""] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe for concurrent use and must not call back into
// the Registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGauge, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gaugeFns[""] = fn
}

// counterVecFunc registers a counter family with one label key whose
// samples are read from fn at scrape time — the multi-sample sibling of
// GaugeFunc, for counters another store already owns. fn must be safe
// for concurrent use and must not call back into the Registry.
func (r *Registry) counterVecFunc(name, help, label string, fn func() []labeledCount) {
	f := r.lookup(name, help, kindCounter, label, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counterFn = fn
}

// Histogram registers an unlabeled histogram with the given upper
// bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, kindHistogram, "", buckets)
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.hists[""]
	if !ok {
		h = newHistogram(f.buckets)
		f.hists[""] = h
	}
	return h
}

func (f *family) counter(labelValue string) *Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[labelValue]
	if !ok {
		c = &Counter{}
		f.counters[labelValue] = c
	}
	return c
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	fam *family

	// cache avoids the family lock on the hot path for repeated values.
	cacheMu sync.RWMutex
	cache   map[string]*Counter
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.cacheMu.RLock()
	c := v.cache[value]
	v.cacheMu.RUnlock()
	if c != nil {
		return c
	}
	c = v.fam.counter(value)
	v.cacheMu.Lock()
	if v.cache == nil {
		v.cache = make(map[string]*Counter)
	}
	v.cache[value] = c
	v.cacheMu.Unlock()
	return c
}

// Gauge is a settable instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the value by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets and tracks their
// sum, matching the Prometheus histogram data model.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, excluding +Inf
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	total  uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// snapshot returns cumulative bucket counts, sum, and total.
func (h *Histogram) snapshot() (bounds []float64, cum []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return h.bounds, cum, h.sum, h.total
}

// WritePrometheus encodes every registered instrument in the Prometheus
// text exposition format (version 0.0.4). Families are emitted sorted
// by name and children sorted by label value, so output is
// deterministic for golden tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.Lock()
	type sample struct {
		value string
		c     *Counter
		n     *uint64
		g     *Gauge
		gf    func() float64
		h     *Histogram
	}
	samples := make([]sample, 0, len(f.counters)+len(f.gauges)+len(f.gaugeFns)+len(f.hists))
	for lv, c := range f.counters {
		samples = append(samples, sample{value: lv, c: c})
	}
	counterFn := f.counterFn
	for lv, g := range f.gauges {
		samples = append(samples, sample{value: lv, g: g})
	}
	for lv, fn := range f.gaugeFns {
		samples = append(samples, sample{value: lv, gf: fn})
	}
	for lv, h := range f.hists {
		samples = append(samples, sample{value: lv, h: h})
	}
	f.mu.Unlock()
	if counterFn != nil {
		counts := counterFn() // outside f.mu: fn takes its own store's lock
		for i := range counts {
			samples = append(samples, sample{value: counts[i].label, n: &counts[i].n})
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].value < samples[j].value })

	for _, s := range samples {
		labels := ""
		if f.label != "" && s.value != "" {
			labels = fmt.Sprintf("{%s=\"%s\"}", f.label, escapeLabel(s.value))
		}
		switch {
		case s.c != nil:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, labels, s.c.Value())
		case s.n != nil:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, labels, *s.n)
		case s.g != nil:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labels, formatFloat(s.g.Value()))
		case s.gf != nil:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labels, formatFloat(s.gf()))
		case s.h != nil:
			bounds, cum, sum, total := s.h.snapshot()
			for i, ub := range bounds {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, bucketLabels(f.label, s.value, formatFloat(ub)), cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, bucketLabels(f.label, s.value, "+Inf"), cum[len(cum)-1])
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labels, formatFloat(sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labels, total)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func bucketLabels(labelKey, labelValue, le string) string {
	if labelKey != "" && labelValue != "" {
		return fmt.Sprintf("{%s=\"%s\",le=\"%s\"}", labelKey, escapeLabel(labelValue), le)
	}
	return fmt.Sprintf("{le=\"%s\"}", le)
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest round-trippable decimal, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
