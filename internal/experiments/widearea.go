package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WideAreaConfig parameterizes the wide-area scenario the paper's §7
// proposes as continuing work ("test the DAT prototype ... in a
// wide-area environment such as the PlanetLab"): heavy-tailed WAN
// latencies instead of a LAN, sweeping the aggregation-synchronization
// hold interval.
type WideAreaConfig struct {
	// N is the grid size. Default 256.
	N int
	// Slot is the aggregation slot. Default 15s.
	Slot time.Duration
	// Slots measured after warm-up. Default 80.
	Slots int
	// MedianRTT is the round-trip median; one-way delays are drawn
	// log-normally with half this median and sigma 0.5. Default 100ms.
	MedianRTT time.Duration
	// Holds is the HoldPerLevel sweep. Default 10ms, 50ms, 150ms, 400ms.
	Holds []time.Duration
	// Seed as elsewhere.
	Seed int64
}

func (c WideAreaConfig) withDefaults() WideAreaConfig {
	if c.N == 0 {
		c.N = 256
	}
	if c.Slot <= 0 {
		c.Slot = 15 * time.Second
	}
	if c.Slots == 0 {
		c.Slots = 80
	}
	if c.MedianRTT <= 0 {
		c.MedianRTT = 100 * time.Millisecond
	}
	if len(c.Holds) == 0 {
		c.Holds = []time.Duration{10 * time.Millisecond, 50 * time.Millisecond,
			150 * time.Millisecond, 400 * time.Millisecond}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// WideArea sweeps the hold interval under WAN latencies. A parent
// reports once its children's slot-t updates have arrived, however long
// the WAN takes to deliver them, so every hold is as exact as on a LAN;
// the hold only sizes the fallback for a child that never reports. The
// root's delay past the slot boundary is measured, not bounded: the
// tree-deep chain of WAN deliveries the data actually takes.
func WideArea(cfg WideAreaConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "widearea",
		Title: "Wide-area monitoring (§7 continuing work): hold interval vs accuracy under WAN latency",
		Columns: []string{"hold", "correlation", "mean_abs_err_pct",
			"mean_reporting_nodes", "root_delay_mean"},
	}
	for _, hold := range cfg.Holds {
		stats, meanNodes, rootDelay, err := runWideArea(cfg, hold)
		if err != nil {
			return nil, err
		}
		t.Add(hold.String(), stats.Correlation, stats.MeanAbsPct,
			meanNodes, rootDelay.Round(time.Millisecond).String())
	}
	t.Note("one-way latency: log-normal, median %v, sigma 0.5 (heavy tail)", cfg.MedianRTT/2)
	t.Note("root_delay_mean: root result time minus its slot boundary, over the measured slots")
	return t, nil
}

func runWideArea(cfg WideAreaConfig, hold time.Duration) (AccuracyStats, float64, time.Duration, error) {
	shared := trace.Generate("cpu", trace.GenConfig{
		Seed: cfg.Seed, Interval: cfg.Slot,
		Duration: time.Duration(cfg.Slots+40) * cfg.Slot,
	})
	const latencyCeil = 2 * time.Second
	c, err := cluster.New(cluster.Options{
		N:    cfg.N,
		Seed: cfg.Seed,
		IDs:  cluster.ProbedIDs,
		Latency: sim.LogNormalLatency{
			Median: cfg.MedianRTT / 2, Sigma: 0.5,
			Floor: time.Millisecond, Ceil: latencyCeil,
		},
		// Ack timeouts clear the latency ceiling's round trip, or
		// slow-but-live parents would read as dead and fail over.
		Delivery:        core.DeliveryConfig{AckTimeout: 2*latencyCeil + 500*time.Millisecond},
		HoldPerLevel:    hold,
		StabilizeEvery:  cfg.Slot / 2,
		FixFingersEvery: cfg.Slot,
		PingEvery:       2 * cfg.Slot,
		Local: func(_ int, now time.Duration, _ ident.ID) (float64, bool) {
			return shared.At(now), true
		},
	})
	if err != nil {
		return AccuracyStats{}, 0, 0, err
	}
	key := c.Space.HashString("cpu-usage")
	// Nothing crashes here, so the one root's results are the tree's:
	// keep the latest, and each one's delay past its slot boundary once
	// measuring.
	clk := c.Net.Clock()
	measuring := false
	var delaySum time.Duration
	delays := 0
	var lastSlot int64
	var lastAgg core.Aggregate
	onResult := func(slot int64, agg core.Aggregate) {
		lastSlot, lastAgg = slot, agg
		if measuring {
			delaySum += clk.Now() - time.Duration(slot)*cfg.Slot
			delays++
		}
	}
	for i, d := range c.DAT {
		if err := d.StartContinuous(key, cfg.Slot, onResult); err != nil {
			return AccuracyStats{}, 0, 0, fmt.Errorf("node %d: %w", i, err)
		}
	}
	warmup := 30
	c.RunFor(time.Duration(warmup) * cfg.Slot)
	measuring = true

	var actuals, aggs []float64
	var nodesSum float64
	lastSeen := int64(-1)
	samples := 0
	for s := 0; s < cfg.Slots; s++ {
		c.RunFor(cfg.Slot)
		slotIdx, agg := lastSlot, lastAgg
		if agg.Count == 0 || slotIdx == lastSeen {
			continue
		}
		lastSeen = slotIdx
		actuals = append(actuals, shared.At(time.Duration(slotIdx)*cfg.Slot)*float64(cfg.N))
		aggs = append(aggs, agg.Sum)
		nodesSum += float64(agg.Count)
		samples++
	}
	meanNodes := 0.0
	if samples > 0 {
		meanNodes = nodesSum / float64(samples)
	}
	var rootDelay time.Duration
	if delays > 0 {
		rootDelay = delaySum / time.Duration(delays)
	}
	return compareSeries(actuals, aggs), meanNodes, rootDelay, nil
}
