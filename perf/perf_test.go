package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// smallSim is the churn regime shrunk to test size: every mechanism of
// sim-trees-churn (loss, crash, rejoin, self-monitoring, overload layer)
// at 128 nodes.
var smallSim = simSpec{name: "test-sim", n: 128, trees: 4, slot: 2 * time.Second, churn: true, slotsPerSecond: 1}

// simFingerprint is everything about a simulated run that must repeat
// exactly per seed.
type simFingerprint struct {
	fired     uint64
	datagrams uint64
	imbalance float64
	rounds    []opSample
}

func fingerprint(t *testing.T, seed int64, observer *obs.Observer) simFingerprint {
	t.Helper()
	r, err := newSimRun(smallSim, seed, observer, nil)
	if err != nil {
		t.Fatal(err)
	}
	tap := newMsgTap(r.c.Addrs())
	r.c.Net.SetTap(tap)
	w := r.run(8)
	if r.rounds.failed() != 0 || len(r.rounds.rounds) == 0 {
		t.Fatalf("seed %d: %d of %d rounds failed", seed, r.rounds.failed(), len(r.rounds.rounds))
	}
	return simFingerprint{w.fired, tap.total, imbalance(tap.datRecv), r.rounds.rounds}
}

func (a simFingerprint) equal(b simFingerprint) bool {
	if a.fired != b.fired || a.datagrams != b.datagrams || a.imbalance != b.imbalance || len(a.rounds) != len(b.rounds) {
		return false
	}
	for i := range a.rounds {
		if a.rounds[i] != b.rounds[i] {
			return false
		}
	}
	return true
}

func TestSimRepeatsExactlyPerSeed(t *testing.T) {
	a, b := fingerprint(t, 3, nil), fingerprint(t, 3, nil)
	if !a.equal(b) {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
	if c := fingerprint(t, 4, nil); a.equal(c) {
		t.Fatal("different seeds gave the same run: the seed is not reaching the inputs")
	}
}

func TestTracingDoesNotPerturbSim(t *testing.T) {
	plain, traced := fingerprint(t, 5, nil), fingerprint(t, 5, obs.NewObserver(0))
	if !plain.equal(traced) {
		t.Fatalf("observer changed the run:\n%+v\n%+v", plain, traced)
	}
}

func TestFleetIdentifiersFollowSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("binds UDP sockets and waits for a live ring")
	}
	ids := func() []uint64 {
		f, err := newFleet(7, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		if !f.portsFixed {
			t.Skip("seeded ports are taken on this host")
		}
		var out []uint64
		for _, p := range f.peers {
			out = append(out, p.ID())
		}
		return out
	}
	a, b := ids(), ids()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("peer %d: id %#x then %#x", i, a[i], b[i])
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {0, 1}, {10, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4)
// -> [3.5, 13.5, 31.0]
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	q1, q3 := quartiles(v)
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if got, want := spread(v), (31-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "m", Better: "lower", Bound: 0.05}
	higherIsBetter := metricDef{Name: "m", Better: "higher", Bound: 0.05}
	steady := func(x float64) []float64 { return []float64{x, x * 1.001, x * 0.999} }
	noisy := func(x float64) []float64 { return []float64{x * 0.8, x, x * 1.2} }
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", steady(100), steady(100), lowerIsBetter, verdictOK},
		{"within bound", steady(100), steady(104), lowerIsBetter, verdictOK},
		{"worse", steady(100), steady(110), lowerIsBetter, verdictRegressed},
		{"better", steady(100), steady(90), lowerIsBetter, verdictImproved},
		{"higher is better, fell", steady(100), steady(90), higherIsBetter, verdictRegressed},
		{"higher is better, rose", steady(100), steady(110), higherIsBetter, verdictImproved},
		{"worse but noisy", noisy(100), noisy(110), lowerIsBetter, verdictUnresolved},
		{"noisy but unmoved", noisy(100), noisy(101), lowerIsBetter, verdictOK},
		{"no base", []float64{0}, steady(1), lowerIsBetter, verdictUnresolved},
	} {
		if _, got := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestNameSyntax(t *testing.T) {
	if err := checkNames(); err != nil {
		t.Fatal(err)
	}
	for name, ok := range map[string]bool{
		"setup_s": true, "core.cpu_share": true, "9lives": true, "a-b.c_d": true,
		"": false, ".hidden": false, "has space": false, "per/op": false,
		"x123456789012345678901234567890123456789012345678901234567890123":  true,
		"x1234567890123456789012345678901234567890123456789012345678901234": false,
	} {
		if nameRE.MatchString(name) != ok {
			t.Errorf("name %q: valid=%v, want %v", name, !ok, ok)
		}
	}
	for unit, ok := range map[string]bool{"ms": true, "1/s": true, "%": true, "count": true, "": false, "µs": false, "bytes per node!": false} {
		if unitRE.MatchString(unit) != ok {
			t.Errorf("unit %q: valid=%v, want %v", unit, !ok, ok)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the vocabulary in names.go; regenerate it with `go -C perf run . -manifest > BENCHMARK.json`")
	}
}

// TestEveryNameIsMeasured runs each kind of run small and checks that
// the union of what they measure is exactly the vocabulary: no name in
// BENCHMARK.json that nothing computes, nothing computed without a name.
func TestEveryNameIsMeasured(t *testing.T) {
	measured := map[string]bool{}
	collect := func(out *outcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
		}
		for k := range out.m {
			measured[k] = true
		}
	}
	collect(runSim(smallSim, 1, 6, false))
	traced, err := runSim(smallSim, 1, 6, true)
	collect(traced, err)
	var sum float64
	for k, v := range traced.m {
		if len(k) > 6 && (k[len(k)-6:] == "_share") {
			sum += v
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	driven := map[string]float64{}
	if err := runLayerDrivers(time.Millisecond, driven, nil); err != nil {
		t.Fatal(err)
	}
	for k := range driven {
		measured[k] = true
	}

	known := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			known[d.Name] = true
		}
	}
	for k := range measured {
		if !known[k] {
			t.Errorf("%s is measured but not in the vocabulary", k)
		}
	}
	if testing.Short() {
		return // the remaining names come from the live fleets
	}
	collect(runFanin(1, 1, false))
	collect(runFanin(1, 1, true))
	collect(runDiscovery(1, 1, false))
	collect(runDiscovery(1, 1, true))
	for k := range known {
		if !measured[k] {
			t.Errorf("%s is in the vocabulary but nothing measures it", k)
		}
	}
}

func TestRoundOracle(t *testing.T) {
	good := core.Aggregate{Count: 4, Sum: 10, Min: 1, Max: 4}
	short := core.Aggregate{Count: 3, Sum: 6, Min: 1, Max: 3}
	for _, c := range []struct {
		name string
		agg  core.Aggregate
		want bool
	}{
		{"sound", good, true},
		{"empty", core.Aggregate{}, false},
		{"sum below count*min", core.Aggregate{Count: 4, Sum: 3, Min: 1, Max: 4}, false},
		{"sum above count*max", core.Aggregate{Count: 4, Sum: 17, Min: 1, Max: 4}, false},
	} {
		if got := roundSound(c.agg); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
	// Tree 0 miscounts one round in five, tree 1 four in five.
	for _, c := range []struct {
		judge countJudge
		want  int
	}{{exactAlways, 5}, {exactTypically, 4}, {invariantsOnly, 0}} {
		l := &roundLedger{judge: c.judge}
		for round := 0; round < 5; round++ {
			for tree, wrong := range []bool{round == 0, round > 0} {
				agg := good
				if wrong {
					agg = short
				}
				l.add(tree, agg, 4, 0, 1)
			}
		}
		if got := l.failed(); got != c.want {
			t.Errorf("judge %d: %d rounds failed, want %d", c.judge, got, c.want)
		}
	}
}

func TestQueryOracle(t *testing.T) {
	table := valueTable{cpu: []float64{10, 20, 30}, mem: []float64{1, 2, 3}}
	for _, c := range []struct {
		preds []rangePred
		want  uint64
	}{
		{[]rangePred{{attrCPU, 0, 100}}, 0b111},
		{[]rangePred{{attrCPU, 20, 20}}, 0b010},
		{[]rangePred{{attrCPU, 15, 35}, {attrMem, 0, 2}}, 0b010},
		{[]rangePred{{attrCPU, 40, 50}}, 0},
	} {
		if got := table.expect(c.preds); got != c.want {
			t.Errorf("%v: %03b, want %03b", c.preds, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, "run")
	child := tr.begin(root, "measure")
	tr.instant(child, "root-result", 1.5)
	tr.end(child, 0)
	tr.end(root, 0)
	spans := tr.finish()
	if len(spans) != 3 || spans[2].Parent != child || spans[2].N != 1.5 {
		t.Fatalf("spans = %+v", spans)
	}
	rootDur := spans[0].EndNs - spans[0].StartNs
	childDur := spans[1].EndNs - spans[1].StartNs
	if spans[0].SelfNs != rootDur-childDur || spans[1].SelfNs != childDur {
		t.Fatalf("self times wrong: %+v", spans)
	}
	var none *tracer
	none.end(none.begin(-1, "x"), 0) // a nil tracer records nothing
}

func TestClassifySample(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Engine).Step", "main.(*simRun).run"}, "sim"},
		{[]string{"runtime.mapaccess2", "repro/internal/core.(*Node).handleUpdate", "repro/internal/chord.(*Node).dispatch"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/core.(*Node).tick"}, "runtime.gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.sendto", "net.(*UDPConn).WriteTo", "repro/internal/rpcudp.(*Endpoint).write"}, "runtime.syscall"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"main.(*roundLedger).add", "repro/internal/core.(*Node).tickContinuous"}, "perf"},
		{[]string{"repro.(*Peer).FindResources", "main.(*discoveryRun).query"}, "perf"},
		{[]string{"time.Now", "time.sendTime"}, "other"},
		{nil, "other"},
	} {
		if got := classify(stackSample{funcs: c.stack}); got != c.want {
			t.Errorf("%v: %s, want %s", c.stack, got, c.want)
		}
	}
	if got := funcPackage("repro/internal/sim.(*Engine).Step"); got != "repro/internal/sim" {
		t.Errorf("funcPackage = %q", got)
	}
}
