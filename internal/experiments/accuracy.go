package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/trace"
)

// AccuracyConfig parameterizes the Fig. 9 monitoring-accuracy run: a
// live simulated Grid whose nodes replay a CPU-usage trace while a
// continuous DAT aggregates the global total.
type AccuracyConfig struct {
	// N is the Grid size. Default 512 (the paper's setting).
	N int
	// Slot is the aggregation slot. Default 15s.
	Slot time.Duration
	// Duration is the monitored window. Default 2h (the paper's trace).
	Duration time.Duration
	// Seed drives the synthetic trace and the overlay. Default 1.
	Seed int64
	// SharedTrace replays the same series on every node (the paper's
	// setup); false gives each node an independent trace. Default true
	// via cmd/datbench.
	SharedTrace bool
	// SampleEvery controls table row density: one row per this many
	// slots. Default 8.
	SampleEvery int
}

func (c AccuracyConfig) withDefaults() AccuracyConfig {
	if c.N == 0 {
		c.N = 512
	}
	if c.Slot <= 0 {
		c.Slot = 15 * time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 8
	}
	return c
}

// AccuracyStats summarizes the aggregated-vs-actual comparison
// (Fig. 9b's scatter reduced to numbers).
type AccuracyStats struct {
	Slots        int
	Correlation  float64
	MeanAbsPct   float64 // mean |aggregated-actual|/actual in percent
	MaxAbsPct    float64
	MeanLagSlots float64 // best-aligning shift of the aggregated series
}

// MonitoringAccuracy reproduces Fig. 9: it builds a live N-node cluster,
// replays the CPU trace through the GMA sensors, aggregates the global
// total CPU usage over a DAT every slot, and compares the root's view
// with ground truth. Returns the time-series table (Fig. 9a), the
// scatter table (Fig. 9b) and summary statistics.
func MonitoringAccuracy(cfg AccuracyConfig) (*Table, *Table, AccuracyStats, error) {
	cfg = cfg.withDefaults()
	genCfg := trace.GenConfig{Seed: cfg.Seed, Interval: cfg.Slot, Duration: cfg.Duration}
	var fleet []*trace.Series
	if cfg.SharedTrace {
		shared := trace.Generate("cpu", genCfg)
		fleet = make([]*trace.Series, cfg.N)
		for i := range fleet {
			fleet[i] = shared
		}
	} else {
		fleet = trace.GenerateFleet(cfg.N, genCfg)
	}

	c, err := cluster.New(cluster.Options{
		N:    cfg.N,
		Seed: cfg.Seed,
		IDs:  cluster.ProbedIDs,
		// Long-duration run: slow the maintenance loops so the event
		// queue is dominated by aggregation, not pings.
		StabilizeEvery:  cfg.Slot / 2,
		FixFingersEvery: cfg.Slot,
		PingEvery:       2 * cfg.Slot,
		// Each node replays its trace at the current virtual time — the
		// GMA trace sensor wired straight into the DAT local source.
		Local: func(node int, now time.Duration, _ ident.ID) (float64, bool) {
			return fleet[node].At(now), true
		},
	})
	if err != nil {
		return nil, nil, AccuracyStats{}, err
	}

	key := c.Space.HashString("cpu-usage")
	latest, err := c.StartContinuousAll(key, cfg.Slot)
	if err != nil {
		return nil, nil, AccuracyStats{}, err
	}

	seriesT := &Table{
		ID:      "fig9a",
		Title:   fmt.Sprintf("Fig. 9(a): actual vs aggregated total CPU usage (n=%d, slot=%v)", cfg.N, cfg.Slot),
		Columns: []string{"t_min", "actual_total", "aggregated_total", "reporting_nodes"},
	}
	scatterT := &Table{
		ID:      "fig9b",
		Title:   "Fig. 9(b): aggregated vs actual total CPU usage (per slot)",
		Columns: []string{"actual_total", "aggregated_total"},
	}

	// Warm-up: subtree height estimates propagate one level per slot, so
	// the tree needs ~height slots before the root's slot-synchronized
	// view covers every node.
	warmup := core.Build(c.Ring(), key, c.DAT[0].Scheme()).Height() + 4
	c.RunFor(time.Duration(warmup) * cfg.Slot)

	var actuals, aggs []float64
	slots := int(cfg.Duration / cfg.Slot)
	lastSeen := int64(-1)
	for s := warmup; s < slots; s++ {
		c.RunFor(cfg.Slot)
		slotIdx, agg, ok := latest()
		if !ok || slotIdx == lastSeen {
			continue
		}
		lastSeen = slotIdx
		// Ground truth at the reported slot's boundary: with slot
		// synchronization the root's value for slot t folds samples taken
		// right after t's boundary.
		at := time.Duration(slotIdx) * cfg.Slot
		actual := 0.0
		for _, series := range fleet {
			actual += series.At(at)
		}
		actuals = append(actuals, actual)
		aggs = append(aggs, agg.Sum)
		if (s-warmup)%cfg.SampleEvery == 0 {
			seriesT.Add(fmt.Sprintf("%.1f", at.Minutes()), actual, agg.Sum, agg.Count)
		}
		scatterT.Add(actual, agg.Sum)
	}

	stats := compareSeries(actuals, aggs)
	seriesT.Note("trace: synthetic 2h CPU-usage series (substitute for the paper's Sun Fire v880 trace)")
	seriesT.Note(fmt.Sprintf("correlation=%.4f meanAbsErr=%.2f%% maxAbsErr=%.2f%%",
		stats.Correlation, stats.MeanAbsPct, stats.MaxAbsPct))
	scatterT.Note("paper: points cluster on the diagonal (accurate aggregation)")
	return seriesT, scatterT, stats, nil
}

// compareSeries computes correlation and relative-error statistics.
func compareSeries(actual, agg []float64) AccuracyStats {
	n := len(actual)
	if n == 0 || n != len(agg) {
		return AccuracyStats{}
	}
	st := AccuracyStats{Slots: n}
	var sumErr, maxErr float64
	meanA, meanB := mean(actual), mean(agg)
	var cov, varA, varB float64
	for i := 0; i < n; i++ {
		if actual[i] != 0 {
			e := math.Abs(agg[i]-actual[i]) / actual[i] * 100
			sumErr += e
			if e > maxErr {
				maxErr = e
			}
		}
		da, db := actual[i]-meanA, agg[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	st.MeanAbsPct = sumErr / float64(n)
	st.MaxAbsPct = maxErr
	if varA > 0 && varB > 0 {
		st.Correlation = cov / math.Sqrt(varA*varB)
	}
	return st
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
