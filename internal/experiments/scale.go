package experiments

//datlint:allow-realtime this file measures the wall-clock throughput of
// the simulator harness itself (events per real second); everything the
// simulated cluster does still runs on the injected engine clock.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/datcheck"
	"repro/internal/ident"
)

// ScaleConfig parameterizes the arena-substrate scale sweep: snapshot
// tree properties at 10k–65k nodes (the paper's target regime, §5)
// plus one live simulated ring large enough to exercise the pooled
// event/message hot paths, measured for simulator throughput and
// memory footprint.
type ScaleConfig struct {
	// Sizes are the snapshot sweep ring sizes. Default {10240, 65536}.
	Sizes []int
	// LiveN is the live simulated ring size. Default 10240.
	LiveN int
	// Warmup is how many slots run before measuring. Nodes discover
	// their subtree height one level per slot, so full fan-in takes
	// about height slots. Default ceil(log2(LiveN)) + 4.
	Warmup int
	// Slots is the measured window length. Default 6.
	Slots int
	// Slot is the continuous aggregation slot. Default 2s.
	Slot time.Duration
	// Bits, Seed as elsewhere.
	Bits uint
	Seed int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{10240, 65536}
	}
	if c.LiveN == 0 {
		c.LiveN = 10240
	}
	if c.Warmup == 0 {
		c.Warmup = int(ident.CeilLog2(uint64(c.LiveN))) + 4
	}
	if c.Slots == 0 {
		c.Slots = 6
	}
	if c.Slot <= 0 {
		c.Slot = 2 * time.Second
	}
	if c.Bits == 0 {
		c.Bits = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScaleStats is the headline measurement of the live run.
type ScaleStats struct {
	LiveN         int
	EventsFired   uint64  // simulator events executed during the measured window
	WallSeconds   float64 // real time the measured window took
	EventsPerSec  float64 // EventsFired / WallSeconds
	BytesPerNode  float64 // post-GC live heap bytes divided by LiveN
	PeakHeapBytes uint64  // max HeapAlloc sampled at slot boundaries
	RootCount     uint64  // the root's final continuous count (must equal LiveN)
}

// Scale reproduces the tree-properties sweep at the paper's 10k-node
// scale and beyond (snapshot trees over ideal rings, every placement
// and scheme, §3 bounds enforced via datcheck.RunScale) and then runs
// one live warm-started ring of LiveN nodes under continuous
// aggregation, reporting simulator throughput and per-node memory — the
// numbers the arena substrate (DESIGN.md §15) is accountable for.
func Scale(cfg ScaleConfig) (*Table, *Table, ScaleStats, error) {
	cfg = cfg.withDefaults()

	// --- snapshot sweep, bounds asserted ---
	points, violations := datcheck.RunScale(datcheck.ScaleConfig{
		Sizes: cfg.Sizes, Bits: cfg.Bits, Seed: cfg.Seed,
	})
	if len(violations) > 0 {
		return nil, nil, ScaleStats{}, fmt.Errorf("scale sweep violated §3 bounds: %s", violations[0])
	}
	snapT := &Table{
		ID:    "scale",
		Title: fmt.Sprintf("Large-n snapshot tree properties (%v nodes), §3 bounds enforced", cfg.Sizes),
		Columns: []string{"n", "placement", "scheme",
			"max_branching", "branch_bound", "avg_branching", "height", "height_bound", "gap_ratio"},
	}
	for _, p := range points {
		snapT.Add(p.N, p.Placement, p.Scheme.String(),
			p.MaxBranching, p.BranchingBound, p.AvgBranching, p.Height, p.HeightBound, p.GapRatio)
	}
	snapT.Note("bounds are the §3 theorems degraded by measured ID skew (same formulas datcheck asserts at small n)")

	// --- live run ---
	c, err := cluster.New(cluster.Options{
		N:    cfg.LiveN,
		Bits: cfg.Bits,
		Seed: cfg.Seed,
		// Stretch maintenance so upkeep traffic does not drown the
		// aggregation workload on a warm-started (already converged) ring.
		StabilizeEvery:  cfg.Slot,
		FixFingersEvery: 4 * cfg.Slot,
		PingEvery:       2 * cfg.Slot,
		Local: func(node int, _ time.Duration, _ ident.ID) (float64, bool) {
			return float64(node + 1), true
		},
	})
	if err != nil {
		return nil, nil, ScaleStats{}, err
	}
	key := c.Space.HashString("cpu-usage")
	latest, err := c.StartContinuousAll(key, cfg.Slot)
	if err != nil {
		return nil, nil, ScaleStats{}, err
	}
	c.RunFor(time.Duration(cfg.Warmup) * cfg.Slot)

	stats := ScaleStats{LiveN: cfg.LiveN}
	startFired := c.Engine.Fired()
	start := time.Now()
	var ms runtime.MemStats
	for s := 0; s < cfg.Slots; s++ {
		c.RunFor(cfg.Slot)
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > stats.PeakHeapBytes {
			stats.PeakHeapBytes = ms.HeapAlloc
		}
	}
	stats.WallSeconds = time.Since(start).Seconds()
	stats.EventsFired = c.Engine.Fired() - startFired
	if stats.WallSeconds > 0 {
		stats.EventsPerSec = float64(stats.EventsFired) / stats.WallSeconds
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	stats.BytesPerNode = float64(ms.HeapAlloc) / float64(cfg.LiveN)

	slot, agg, ok := latest()
	if !ok {
		return nil, nil, ScaleStats{}, fmt.Errorf("scale live run: root produced no continuous result")
	}
	stats.RootCount = agg.Count
	if agg.Count != uint64(cfg.LiveN) {
		return nil, nil, ScaleStats{}, fmt.Errorf(
			"scale live run: root count %d != n %d at slot %d", agg.Count, cfg.LiveN, slot)
	}

	liveT := &Table{
		ID: "scalelive",
		Title: fmt.Sprintf("Live %d-node ring under continuous aggregation: simulator throughput and footprint",
			cfg.LiveN),
		Columns: []string{"n", "slots", "events",
			"events_per_sec", "bytes_per_node", "peak_heap_mb", "root_count"},
	}
	liveT.Add(cfg.LiveN, cfg.Slots, stats.EventsFired,
		stats.EventsPerSec, stats.BytesPerNode,
		float64(stats.PeakHeapBytes)/(1<<20), stats.RootCount)
	liveT.Note(fmt.Sprintf("%d measured slots of %v after %d warmup slots; warm-started ring, maintenance stretched to the slot period",
		cfg.Slots, cfg.Slot, cfg.Warmup))
	liveT.Note("events_per_sec is wall-clock simulator throughput; bytes_per_node is post-GC live heap over n")
	return snapT, liveT, stats, nil
}
