package datcheck

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// Flags. CI logs always contain the failing seed; replay locally with
//
//	go test ./internal/datcheck -run TestDatcheckReplay -datcheck.seed=N -v
var (
	longMode = flag.Bool("datcheck.long", false,
		"run the long random-seed sweep (nightly CI)")
	longSeeds = flag.Int("datcheck.seeds", 25,
		"number of seeds in the long sweep")
	longBase = flag.Int64("datcheck.base", 1_000_000,
		"first seed of the long sweep; nightly passes a date-derived base")
	replaySeed = flag.Int64("datcheck.seed", 0,
		"replay one seed under TestDatcheckReplay")
	replayEvents = flag.Int("datcheck.events", -1,
		"with -datcheck.seed: truncate the schedule to this many events")
	artifactDir = flag.String("datcheck.artifacts", "",
		"directory to write failing replay artifacts into")
	shrinkOnFail = flag.Bool("datcheck.shrink", true,
		"shrink failing scenarios to a minimal schedule before reporting")
	faultSeeds = flag.Int("datcheck.faultseeds", 8,
		"number of delivery-fault seeds swept by TestDatcheckFaults")
	batchSeeds = flag.Int("datcheck.batchseeds", 6,
		"number of batching-fault seeds swept by TestDatcheckBatchFaults")
	overloadSeeds = flag.Int("datcheck.overloadseeds", 6,
		"number of overload-fault seeds swept by TestDatcheckOverloadFaults")
	writeGolden = flag.Bool("datcheck.writegolden", false,
		"rewrite testdata/trace_sha256.txt from the current engine; only for "+
			"PRs that intentionally change event ordering or RNG draw order")
)

// corpusSeeds is the fixed PR-gating corpus: deterministic, every seed
// covering at least one crash and one partition (asserted below). Keep
// additions append-only so historical failures stay replayable.
var corpusSeeds = []int64{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
	11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
	42, 1007, 40437,
	// Delivery-fault family (>= FaultSeedBase): targeted mid-round parent
	// and root crashes with in-chaos no-lost-subtrees probes.
	FaultSeedBase + 1, FaultSeedBase + 2, FaultSeedBase + 3,
	FaultSeedBase + 4, FaultSeedBase + 5,
	// Batching-fault family (>= BatchSeedBase): crashes landing inside
	// the send machine's coalescing window, so queued-but-unflushed
	// batches die with the victim.
	BatchSeedBase + 1, BatchSeedBase + 2, BatchSeedBase + 3,
	// Overload-fault family (>= OverloadSeedBase): tight batch thresholds
	// and armed breakers under slow parents, ack blackholes and fan-in
	// bursts, with the queue bound audited at every settle.
	OverloadSeedBase + 1, OverloadSeedBase + 2, OverloadSeedBase + 3,
	// A delivery-fault seed from the wide sweep that lost a subtree after
	// a crash while handover hearsay still evicted live roots.
	FaultSeedBase + 32,
	// Wide-sweep seeds that took 6–9 slots to count every node again
	// after a parent crash, while the height hold lagged the re-homed
	// subtrees a level per slot.
	BatchSeedBase + 7, BatchSeedBase + 8, BatchSeedBase + 14,
	OverloadSeedBase + 21, OverloadSeedBase + 25,
}

// runSeed executes one scenario and reports failures with a replay
// recipe; on failure it optionally shrinks the schedule and writes an
// artifact for CI to upload.
func runSeed(t *testing.T, seed int64) {
	t.Helper()
	res, err := Run(seed)
	if err != nil {
		t.Fatalf("harness setup failed: %v", err)
	}
	if res.Crashes < 1 {
		t.Errorf("seed %d: scenario applied no crashes", seed)
	}
	if res.Partitions < 1 {
		t.Errorf("seed %d: scenario applied no partitions", seed)
	}
	if len(res.Violations) == 0 {
		return
	}
	for _, v := range res.Violations {
		t.Errorf("seed %d: %v", seed, v)
	}
	report := &bytes.Buffer{}
	fmt.Fprintf(report, "replay: go test ./internal/datcheck -run TestDatcheckReplay -datcheck.seed=%d -v\n\n", seed)
	report.Write(res.Trace)
	if *shrinkOnFail {
		small := Shrink(res.Scenario, func(sc *Scenario) bool {
			r, err := RunScenario(sc)
			return err != nil || len(r.Violations) > 0
		})
		fmt.Fprintf(report, "\nshrunk schedule: %d of %d events (replay with -datcheck.events=%d)\n",
			len(small.Events), len(res.Scenario.Events), len(small.Events))
		for i, ev := range small.Events {
			fmt.Fprintf(report, "  [%d] %v\n", i, ev)
		}
	}
	t.Logf("seed %d failure report:\n%s", seed, report.String())
	if *artifactDir != "" {
		if err := os.MkdirAll(*artifactDir, 0o755); err != nil {
			t.Errorf("artifact dir: %v", err)
			return
		}
		path := filepath.Join(*artifactDir, fmt.Sprintf("datcheck-seed-%d.txt", seed))
		if err := os.WriteFile(path, report.Bytes(), 0o644); err != nil {
			t.Errorf("write artifact: %v", err)
		} else {
			t.Logf("replay artifact written to %s", path)
		}
	}
}

// TestDatcheckCorpus is the PR gate: every fixed seed must run all
// invariants clean.
func TestDatcheckCorpus(t *testing.T) {
	for _, seed := range corpusSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSeed(t, seed)
		})
	}
}

// TestDatcheckFaults sweeps the delivery-fault seed family: every
// scenario crashes aggregation parents and roots mid-round and probes
// for lost subtrees while the damage is live. This is the make
// datcheck-faults entry point.
func TestDatcheckFaults(t *testing.T) {
	for i := 1; i <= *faultSeeds; i++ {
		seed := FaultSeedBase + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSeed(t, seed)
		})
	}
}

// TestDatcheckBatchFaults sweeps the batching-fault seed family: every
// scenario crashes send-machine holders inside the coalescing window and
// probes for lost subtrees while the damage is live. This is part of the
// make datcheck-faults entry point.
func TestDatcheckBatchFaults(t *testing.T) {
	for i := 1; i <= *batchSeeds; i++ {
		seed := BatchSeedBase + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSeed(t, seed)
		})
	}
}

// TestDatcheckOverloadFaults sweeps the overload-fault seed family:
// every scenario runs with tight batch thresholds and armed breakers
// while parents turn slow, acks blackhole and fan-in bursts, probing for
// lost subtrees mid-damage and auditing the queue bound at every settle.
// This is the make datcheck-overload entry point.
func TestDatcheckOverloadFaults(t *testing.T) {
	for i := 1; i <= *overloadSeeds; i++ {
		seed := OverloadSeedBase + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSeed(t, seed)
		})
	}
}

// TestDatcheckOverloadEquivalence is the breakers' semantic gate: for
// every corpus seed, the scenario as generated (breakers armed) and the
// pre-breaker protocol written as a value (BreakerFailures out of reach,
// everything else as generated) must both hold every invariant against
// the identical schedule and settle on identical root aggregates —
// fail-fast reshapes transient traffic, never what a settled round
// computes.
func TestDatcheckOverloadEquivalence(t *testing.T) {
	for _, seed := range corpusSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			protected, err := RunScenario(Generate(seed))
			if err != nil {
				t.Fatalf("protected run: %v", err)
			}
			plainSc := Generate(seed)
			plainSc.Overload.BreakerFailures = math.MaxInt32
			plain, err := RunScenario(plainSc)
			if err != nil {
				t.Fatalf("unprotected run: %v", err)
			}
			for _, v := range protected.Violations {
				t.Errorf("protected: %v", v)
			}
			for _, v := range plain.Violations {
				t.Errorf("unprotected: %v", v)
			}
			if t.Failed() {
				return
			}
			if len(protected.Settled) != len(plain.Settled) {
				t.Fatalf("settle count differs: protected %d, unprotected %d",
					len(protected.Settled), len(plain.Settled))
			}
			for s, agg := range protected.Settled {
				if agg != plain.Settled[s] {
					t.Errorf("settle %d: protected root aggregate %+v, unprotected %+v",
						s, agg, plain.Settled[s])
				}
			}
		})
	}
}

// TestDatcheckBatchEquivalence is the paired-seed ablation the send
// machine's correctness argument rests on: for the same seed, the
// batched run (shipping defaults) and the unbatched run
// (Batch.MaxElems 1) must both hold every invariant, and must settle on
// identical root aggregates at every settle point — coalescing reshapes
// the wire traffic, never the mathematics. The batched run is also
// played twice to prove its trace is still byte-identical per seed:
// batching adds no nondeterminism.
func TestDatcheckBatchEquivalence(t *testing.T) {
	for i := int64(1); i <= 3; i++ {
		seed := BatchSeedBase + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			batched, err := RunScenario(Generate(seed))
			if err != nil {
				t.Fatalf("batched run: %v", err)
			}
			again, err := RunScenario(Generate(seed))
			if err != nil {
				t.Fatalf("batched re-run: %v", err)
			}
			if !bytes.Equal(batched.Trace, again.Trace) {
				t.Fatalf("batched runs of seed %d diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					seed, batched.Trace, again.Trace)
			}
			plainSc := Generate(seed)
			plainSc.Batch.MaxElems = 1
			plain, err := RunScenario(plainSc)
			if err != nil {
				t.Fatalf("unbatched run: %v", err)
			}
			for _, v := range batched.Violations {
				t.Errorf("batched: %v", v)
			}
			for _, v := range plain.Violations {
				t.Errorf("unbatched: %v", v)
			}
			if t.Failed() {
				return
			}
			if len(batched.Settled) != len(plain.Settled) {
				t.Fatalf("settle count differs: batched %d, unbatched %d",
					len(batched.Settled), len(plain.Settled))
			}
			for s, agg := range batched.Settled {
				if agg != plain.Settled[s] {
					t.Errorf("settle %d: batched root aggregate %+v, unbatched %+v",
						s, agg, plain.Settled[s])
				}
			}
		})
	}
}

// TestDatcheckSelfmonEquivalence is the self-monitoring plane's
// counterpart of the batching ablation: for the same seed, the run with
// the dat.load.* trees enabled must hold every invariant (including the
// settle-time conservation audit of the monitoring trees themselves),
// and must settle on exactly the root aggregates the selfmon-off run
// settles on — the plane observes the system without changing what the
// primary tree computes. The selfmon run is also played twice to prove
// its trace stays byte-identical per seed: reading monotone counters at
// tick time adds no nondeterminism.
func TestDatcheckSelfmonEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			withSelfMon := func() *Scenario {
				sc := Generate(seed)
				sc.SelfMon = true
				return sc
			}
			selfmon, err := RunScenario(withSelfMon())
			if err != nil {
				t.Fatalf("selfmon run: %v", err)
			}
			again, err := RunScenario(withSelfMon())
			if err != nil {
				t.Fatalf("selfmon re-run: %v", err)
			}
			if !bytes.Equal(selfmon.Trace, again.Trace) {
				t.Fatalf("selfmon runs of seed %d diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					seed, selfmon.Trace, again.Trace)
			}
			plain, err := RunScenario(Generate(seed))
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			for _, v := range selfmon.Violations {
				t.Errorf("selfmon: %v", v)
			}
			for _, v := range plain.Violations {
				t.Errorf("plain: %v", v)
			}
			if t.Failed() {
				return
			}
			if len(selfmon.Settled) != len(plain.Settled) {
				t.Fatalf("settle count differs: selfmon %d, plain %d",
					len(selfmon.Settled), len(plain.Settled))
			}
			for s, agg := range selfmon.Settled {
				if agg != plain.Settled[s] {
					t.Errorf("settle %d: selfmon root aggregate %+v, plain %+v",
						s, agg, plain.Settled[s])
				}
			}
		})
	}
}

// TestBatchGeneratorGuarantees checks the batching-fault generator's
// contract: cluster size in range, at least two mid-flush crashes, a
// root crash, a partition for the corpus coverage floor, a probe inside
// every chaos phase, and a terminating settle.
func TestBatchGeneratorGuarantees(t *testing.T) {
	for i := int64(1); i <= 200; i++ {
		sc := Generate(BatchSeedBase + i)
		if sc.N < 12 || sc.N > 24 {
			t.Fatalf("seed +%d: n=%d out of range", i, sc.N)
		}
		if sc.Batch != (core.BatchConfig{}) {
			t.Fatalf("seed +%d: generator set Batch %+v, want the zero value", i, sc.Batch)
		}
		crashes, partitions := sc.Counts()
		if crashes < 3 || partitions < 1 {
			t.Fatalf("seed +%d: coverage floor broken (crashes=%d partitions=%d)", i, crashes, partitions)
		}
		var midFlush, rootCrashes, probes int
		for _, ev := range sc.Events {
			switch ev.Kind {
			case EvCrashMidFlush:
				midFlush++
			case EvCrashRoot:
				rootCrashes++
			case EvProbe:
				probes++
			}
		}
		if midFlush < 2 || rootCrashes < 1 || probes < 3 {
			t.Fatalf("seed +%d: midFlush=%d rootCrashes=%d probes=%d", i, midFlush, rootCrashes, probes)
		}
		if sc.Events[len(sc.Events)-1].Kind != EvSettle {
			t.Fatalf("seed +%d: schedule does not end in a settle", i)
		}
	}
}

// TestOverloadGeneratorGuarantees checks the overload-fault generator's
// contract: cluster size in range, batch thresholds inside the
// documented bands, one of each overload stimulus,
// a targeted parent crash and a partition for the corpus coverage
// floor, a probe inside every chaos phase, and a terminating settle.
func TestOverloadGeneratorGuarantees(t *testing.T) {
	for i := int64(1); i <= 200; i++ {
		sc := Generate(OverloadSeedBase + i)
		if sc.N < 12 || sc.N > 24 {
			t.Fatalf("seed +%d: n=%d out of range", i, sc.N)
		}
		ov := sc.Overload
		if sc.QueueElems < 6 || sc.QueueElems > 11 ||
			sc.QueueBytes < 600 || sc.QueueBytes > 950 {
			t.Fatalf("seed +%d: thresholds out of band: queue %dB/%d elems", i, sc.QueueBytes, sc.QueueElems)
		}
		if ov.BreakerCooldown <= 0 || ov.BreakerCooldown >= sc.Slot {
			t.Fatalf("seed +%d: cooldown %v not inside a slot", i, ov.BreakerCooldown)
		}
		crashes, partitions := sc.Counts()
		if crashes < 1 || partitions < 1 {
			t.Fatalf("seed +%d: coverage floor broken (crashes=%d partitions=%d)", i, crashes, partitions)
		}
		var slow, holes, bursts, parentCrashes, probes int
		for _, ev := range sc.Events {
			switch ev.Kind {
			case EvSlowParent:
				slow++
			case EvAckBlackhole:
				holes++
			case EvBurstFanin:
				bursts++
			case EvCrashParent:
				parentCrashes++
			case EvProbe:
				probes++
			}
		}
		if slow < 1 || holes < 1 || bursts < 1 || parentCrashes < 1 || probes < 3 {
			t.Fatalf("seed +%d: slow=%d holes=%d bursts=%d parentCrashes=%d probes=%d",
				i, slow, holes, bursts, parentCrashes, probes)
		}
		if sc.Events[len(sc.Events)-1].Kind != EvSettle {
			t.Fatalf("seed +%d: schedule does not end in a settle", i)
		}
	}
}

// TestFaultGeneratorGuarantees checks the delivery-fault generator's
// contract: cluster size in range, at least one targeted crash of each
// flavor across phases, a partition for the corpus coverage floor, a
// probe inside every chaos phase, and a terminating settle.
func TestFaultGeneratorGuarantees(t *testing.T) {
	for i := int64(1); i <= 200; i++ {
		sc := Generate(FaultSeedBase + i)
		if sc.N < 12 || sc.N > 24 {
			t.Fatalf("seed +%d: n=%d out of range", i, sc.N)
		}
		crashes, partitions := sc.Counts()
		if crashes < 2 || partitions < 1 {
			t.Fatalf("seed +%d: coverage floor broken (crashes=%d partitions=%d)", i, crashes, partitions)
		}
		var parentCrashes, rootCrashes, probes int
		for _, ev := range sc.Events {
			switch ev.Kind {
			case EvCrashParent:
				parentCrashes++
			case EvCrashRoot:
				rootCrashes++
			case EvProbe:
				probes++
			}
		}
		if parentCrashes < 1 || rootCrashes < 1 || probes < 3 {
			t.Fatalf("seed +%d: parentCrashes=%d rootCrashes=%d probes=%d", i, parentCrashes, rootCrashes, probes)
		}
		if sc.Events[len(sc.Events)-1].Kind != EvSettle {
			t.Fatalf("seed +%d: schedule does not end in a settle", i)
		}
	}
}

// TestDatcheckLong is the nightly sweep over fresh seeds.
func TestDatcheckLong(t *testing.T) {
	if !*longMode {
		t.Skip("long sweep runs with -datcheck.long (nightly CI)")
	}
	for i := 0; i < *longSeeds; i++ {
		seed := *longBase + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSeed(t, seed)
		})
	}
}

// TestDatcheckReplay re-runs one seed (optionally a schedule prefix) and
// always prints the trace. It is the documented CI-failure replay path.
func TestDatcheckReplay(t *testing.T) {
	if *replaySeed == 0 {
		t.Skip("replay runs with -datcheck.seed=N")
	}
	sc := Generate(*replaySeed)
	if *replayEvents >= 0 && *replayEvents < len(sc.Events) {
		sc.Events = sc.Events[:*replayEvents]
	}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatalf("harness setup failed: %v", err)
	}
	t.Logf("trace:\n%s", res.Trace)
	for _, v := range res.Violations {
		t.Errorf("seed %d: %v", *replaySeed, v)
	}
}

// TestDatcheckDeterministic asserts the acceptance criterion directly:
// the same seed produces a byte-identical trace.
func TestDatcheckDeterministic(t *testing.T) {
	const seed = 7
	a, err := Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Trace, b.Trace) {
		t.Fatalf("two runs of seed %d diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, a.Trace, b.Trace)
	}
}

// goldenPath pins the SHA-256 of every corpus seed's trace, so a
// refactor that claims "same events, same order, same RNG draws" can
// prove it byte for byte. Regenerate with -datcheck.writegolden only
// when a PR intentionally changes protocol behaviour, say so in
// CHANGES.md, and carry a semantic-equivalence test in its place. Last
// regenerated when the datagram became the unit of the ack deadline and
// of peer-health evidence (DESIGN.md §10; the corpus, fault families and
// equivalence tests its gate); before that when the send-queue budget
// was deleted, when overload protection became structural, and for the
// arena engine.
const goldenPath = "testdata/trace_sha256.txt"

func traceHash(trace []byte) string {
	sum := sha256.Sum256(trace)
	return hex.EncodeToString(sum[:])
}

func loadGolden(t *testing.T) map[int64]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden trace hashes missing (regenerate with -datcheck.writegolden): %v", err)
	}
	defer f.Close()
	golden := make(map[int64]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var seed int64
		var hash string
		if _, err := fmt.Sscanf(line, "%d %s", &seed, &hash); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		golden[seed] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return golden
}

// TestDatcheckTraceGolden is the byte-equivalence gate: every corpus
// seed's trace must hash to the recorded value. A mismatch means event
// ordering, RNG draw order or protocol behaviour changed — a regression
// in any PR that does not set out to change them.
func TestDatcheckTraceGolden(t *testing.T) {
	if *writeGolden {
		lines := make([]string, 0, len(corpusSeeds))
		for _, seed := range corpusSeeds {
			res, err := Run(seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			lines = append(lines, fmt.Sprintf("%d %s", seed, traceHash(res.Trace)))
		}
		sort.Strings(lines) // stable file regardless of corpus ordering
		body := "# seed sha256(trace) — see TestDatcheckTraceGolden\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d seeds)", goldenPath, len(lines))
		return
	}
	golden := loadGolden(t)
	for _, seed := range corpusSeeds {
		if _, ok := golden[seed]; !ok {
			t.Errorf("seed %d has no golden hash; regenerate with -datcheck.writegolden", seed)
		}
	}
	for _, seed := range corpusSeeds {
		seed := seed
		want, ok := golden[seed]
		if !ok {
			continue
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(seed)
			if err != nil {
				t.Fatalf("harness setup failed: %v", err)
			}
			if got := traceHash(res.Trace); got != want {
				t.Errorf("seed %d: trace diverged from the golden (sha256 %s, want %s)",
					seed, got, want)
			}
		})
	}
}

// TestGeneratorGuarantees checks the scenario generator's contract over
// many seeds: coverage floors, the concurrent-dead cap, and valid event
// targets.
func TestGeneratorGuarantees(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed)
		if sc.N < 8 || sc.N > 24 {
			t.Fatalf("seed %d: n=%d out of range", seed, sc.N)
		}
		crashes, partitions := sc.Counts()
		if crashes < 1 || partitions < 1 {
			t.Fatalf("seed %d: coverage floor broken (crashes=%d partitions=%d)", seed, crashes, partitions)
		}
		alive := make(map[int]bool, sc.N)
		for i := 0; i < sc.N; i++ {
			alive[i] = true
		}
		deadCount := 0
		total := sc.N
		for i, ev := range sc.Events {
			switch ev.Kind {
			case EvCrash, EvLeave:
				if !alive[ev.A] {
					t.Fatalf("seed %d event %d: %v targets dead node", seed, i, ev)
				}
				alive[ev.A] = false
				deadCount++
				if deadCount > maxConcurrentDead {
					t.Fatalf("seed %d event %d: concurrent dead cap exceeded", seed, i)
				}
			case EvRejoin:
				if alive[ev.A] {
					t.Fatalf("seed %d event %d: %v targets live node", seed, i, ev)
				}
				alive[ev.A] = true
				deadCount--
			case EvJoin:
				if ev.A != total {
					t.Fatalf("seed %d event %d: join index %d, want %d", seed, i, ev.A, total)
				}
				alive[ev.A] = true
				total++
			case EvPartition, EvHeal:
				if ev.A == ev.B || ev.A >= total || ev.B >= total {
					t.Fatalf("seed %d event %d: bad link %v", seed, i, ev)
				}
			case EvSettle:
				for n := range alive {
					alive[n] = true
				}
				deadCount = 0
			}
		}
		if sc.Events[len(sc.Events)-1].Kind != EvSettle {
			t.Fatalf("seed %d: schedule does not end in a settle", seed)
		}
	}
}

// TestShrinker drives Shrink with a synthetic predicate (no cluster): the
// scenario "fails" iff the schedule still contains its one poison event.
// The shrinker must isolate exactly that event.
func TestShrinker(t *testing.T) {
	sc := Generate(3)
	poison := -1
	for i, ev := range sc.Events {
		if ev.Kind == EvCrash {
			poison = i
			break
		}
	}
	if poison < 0 {
		t.Fatal("generated scenario has no crash (generator contract broken)")
	}
	target := sc.Events[poison]
	isFailing := func(s *Scenario) bool {
		for _, ev := range s.Events {
			if ev == target {
				return true
			}
		}
		return false
	}
	small := Shrink(sc, isFailing)
	if len(small.Events) != 1 || small.Events[0] != target {
		t.Fatalf("shrunk to %d events %v, want just the poison event %v", len(small.Events), small.Events, target)
	}
	if !isFailing(small) {
		t.Fatal("shrunk scenario no longer fails")
	}
}
