package experiments

import (
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

// WideArea sweeps the hold interval under WAN latencies: when the hold
// is below the one-way delay, child updates for slot t arrive after
// their parents have already reported, degrading completeness and
// accuracy; once the hold clears the latency tail, the LAN-exact
// behavior returns at the cost of a (bounded) root reporting delay of
// height*hold per slot.
func WideArea(cfg WideAreaConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "widearea",
		Title: "Wide-area monitoring (§7 continuing work): hold interval vs accuracy under WAN latency",
		Columns: []string{"hold", "correlation", "mean_abs_err_pct",
			"mean_reporting_nodes", "root_delay_bound"},
	}
	for _, hold := range cfg.Holds {
		stats, meanNodes, heightBound, err := runWideArea(cfg, hold)
		if err != nil {
			return nil, err
		}
		t.Add(hold.String(), stats.Correlation, stats.MeanAbsPct,
			meanNodes, (time.Duration(heightBound) * hold).String())
	}
	t.Note("one-way latency: log-normal, median %v, sigma 0.5 (heavy tail)", cfg.MedianRTT/2)
	t.Note("holds below the latency tail leave slot-t child updates out of their parents' reports")
	return t, nil
}

func runWideArea(cfg WideAreaConfig, hold time.Duration) (AccuracyStats, float64, int, error) {
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
	latest, err := c.StartContinuousAll(key, cfg.Slot)
	if err != nil {
		return AccuracyStats{}, 0, 0, err
	}
	warmup := 30
	c.RunFor(time.Duration(warmup) * cfg.Slot)

	var actuals, aggs []float64
	var nodesSum float64
	lastSeen := int64(-1)
	samples := 0
	for s := 0; s < cfg.Slots; s++ {
		c.RunFor(cfg.Slot)
		slotIdx, agg, ok := latest()
		if !ok || slotIdx == lastSeen {
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
	// Height bound for the root-delay column: log2(n)+1 covers probed
	// placements' slight over-depth.
	h := int(ident.CeilLog2(uint64(cfg.N))) + 1
	return compareSeries(actuals, aggs), meanNodes, h, nil
}
