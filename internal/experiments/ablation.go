package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AblationConfig parameterizes the design-choice ablations DESIGN.md
// calls out: the §4 aggregation synchronization and the successor-list
// length that underpins churn resilience.
type AblationConfig struct {
	// N is the grid size for both ablations. Default 128.
	N int
	// Slot is the aggregation slot for the synchronization ablation.
	// Default 2s.
	Slot time.Duration
	// Slots is how many slots the synchronization ablation compares.
	// Default 120.
	Slots int
	// ListLens is the successor-list sweep. Default 1, 2, 4, 8.
	ListLens []int
	// CrashFrac is the fraction of nodes crashed simultaneously in the
	// healing ablation. Default 0.2.
	CrashFrac float64
	// Seed as elsewhere.
	Seed int64
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.N == 0 {
		c.N = 128
	}
	if c.Slot <= 0 {
		c.Slot = 2 * time.Second
	}
	if c.Slots == 0 {
		c.Slots = 120
	}
	if len(c.ListLens) == 0 {
		c.ListLens = []int{1, 2, 4, 8}
	}
	if c.CrashFrac == 0 {
		c.CrashFrac = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SyncAblation quantifies the §4 aggregation synchronization: the same
// trace-driven continuous aggregation run with the implementation's
// schedule — a parent reports once its children's slot-t updates are in,
// with a height-staggered fallback deadline — and without any (every
// node reports at the slot boundary, so parents relay values one slot
// behind their children).
func SyncAblation(cfg AblationConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "ablation-sync",
		Title: "Ablation: aggregation synchronization (§4) on monitoring accuracy",
		Columns: []string{"variant", "correlation", "mean_abs_err_pct",
			"max_abs_err_pct", "slots"},
	}
	for _, variant := range []struct {
		name string
		hold time.Duration
	}{
		{"height-staggered (paper §4)", 0}, // 0 selects the default hold
		{"unsynchronized (ablated)", -1},
	} {
		stats, err := runSyncVariant(cfg, variant.hold)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", variant.name, err)
		}
		t.Add(variant.name, stats.Correlation, stats.MeanAbsPct, stats.MaxAbsPct, stats.Slots)
	}
	t.Note("same trace, ring and slot length; only the send scheduling differs")
	t.Note("unsynchronized, the root lags each subtree by its depth, smearing fast signal changes")
	return t, nil
}

func runSyncVariant(cfg AblationConfig, hold time.Duration) (AccuracyStats, error) {
	shared := trace.Generate("cpu", trace.GenConfig{
		Seed: cfg.Seed, Interval: cfg.Slot,
		Duration: time.Duration(cfg.Slots+20) * cfg.Slot,
	})
	c, err := cluster.New(cluster.Options{
		N:            cfg.N,
		Seed:         cfg.Seed,
		IDs:          cluster.ProbedIDs,
		HoldPerLevel: hold,
		Local: func(_ int, now time.Duration, _ ident.ID) (float64, bool) {
			return shared.At(now), true
		},
	})
	if err != nil {
		return AccuracyStats{}, err
	}
	key := c.Space.HashString("cpu-usage")
	latest, err := c.StartContinuousAll(key, cfg.Slot)
	if err != nil {
		return AccuracyStats{}, err
	}
	warmup := 20
	c.RunFor(time.Duration(warmup) * cfg.Slot)

	var actuals, aggs []float64
	lastSeen := int64(-1)
	for s := 0; s < cfg.Slots; s++ {
		c.RunFor(cfg.Slot)
		slotIdx, agg, ok := latest()
		if !ok || slotIdx == lastSeen {
			continue
		}
		lastSeen = slotIdx
		actuals = append(actuals, shared.At(time.Duration(slotIdx)*cfg.Slot)*float64(cfg.N))
		aggs = append(aggs, agg.Sum)
	}
	return compareSeries(actuals, aggs), nil
}

// SuccessorListAblation measures overlay healing after a correlated
// crash as a function of the successor-list length: with a short list a
// simultaneous failure of adjacent nodes can leave successor pointers
// with no live fallback, and recovery must wait for slower repair paths.
func SuccessorListAblation(cfg AblationConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "ablation-succlist",
		Title: "Ablation: successor-list length vs healing after a correlated crash",
		Columns: []string{"list_len", "crashed", "healed_within",
			"converged"},
	}
	for _, l := range cfg.ListLens {
		c, err := cluster.New(cluster.Options{
			N:                cfg.N,
			Seed:             cfg.Seed,
			IDs:              cluster.ProbedIDs,
			SuccessorListLen: l,
		})
		if err != nil {
			return nil, err
		}
		k := int(float64(cfg.N) * cfg.CrashFrac)
		for i := 0; i < k; i++ {
			c.Crash(i)
		}
		start := c.Engine.Now()
		healed := "no"
		budget := 5 * time.Minute
		deadline := start + sim.Time(budget)
		for c.Engine.Now() < deadline {
			c.RunFor(5 * time.Second)
			if c.Converged() {
				healed = time.Duration(c.Engine.Now() - start).Round(time.Second).String()
				break
			}
		}
		t.Add(l, k, healed, c.Converged())
	}
	t.Note("%d-node ring, %.0f%% of nodes crashed simultaneously, 5m healing budget",
		cfg.N, cfg.CrashFrac*100)
	return t, nil
}
