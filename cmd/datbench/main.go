// Command datbench regenerates every table and figure of the paper's
// evaluation (Cai & Hwang, IPDPS 2007, §5) plus the complexity claims of
// §2.2, printing aligned text tables and optionally writing CSV files.
//
// Usage:
//
//	datbench [-exp all|fig7a|fig7b|height|fig8a|fig8b|fig9|churn|maan]
//	         [-out DIR] [-seed N] [-quick]
//
// -quick shrinks the sweeps (smaller n, shorter monitored window) for
// smoke runs; the full configuration matches the paper's axes (16..8192
// nodes, n=512 distributions, 2-hour monitoring window).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: all, fig7a, fig7b, height, fig8a, fig8b, fig9, churn, maan, ablation, multitree, overhead, widearea, ondemand, batching, selfmon, overload, scale")
		out   = flag.String("out", "", "directory for CSV output (optional)")
		seed  = flag.Int64("seed", 1, "random seed")
		quick = flag.Bool("quick", false, "reduced sizes for a fast smoke run")
	)
	flag.Parse()

	run := func(name string) bool { return *exp == "all" || *exp == name }
	var tables []*experiments.Table
	start := time.Now()

	if run("fig7a") || run("fig7b") || run("height") {
		cfg := experiments.TreePropsConfig{Seed: *seed}
		if *quick {
			cfg.Sizes = []int{16, 64, 256, 1024}
			cfg.Trials = 1
		}
		fmt.Fprintf(os.Stderr, "tree properties (Fig. 7)...\n")
		all := experiments.TreeProperties(cfg)
		for _, t := range all {
			if run(t.ID) || (*exp == "all") {
				tables = append(tables, t)
			}
		}
	}
	if run("fig8a") {
		cfg := experiments.LoadBalanceConfig{Seed: *seed, IDs: cluster.ProbedIDs}
		if *quick {
			cfg.N = 128
		}
		fmt.Fprintf(os.Stderr, "message distribution (Fig. 8a)...\n")
		tables = append(tables, experiments.MessageDistribution(cfg))
	}
	if run("fig8b") {
		cfg := experiments.LoadBalanceConfig{Seed: *seed, IDs: cluster.ProbedIDs}
		if *quick {
			cfg.Sizes = []int{100, 400, 1000}
		}
		fmt.Fprintf(os.Stderr, "imbalance factors (Fig. 8b)...\n")
		tables = append(tables, experiments.Imbalance(cfg))
	}
	if run("fig9") {
		cfg := experiments.AccuracyConfig{Seed: *seed, SharedTrace: true}
		if *quick {
			cfg.N = 64
			cfg.Duration = 30 * time.Minute
		}
		fmt.Fprintf(os.Stderr, "monitoring accuracy (Fig. 9, n=%d)...\n", pick(cfg.N, 512))
		seriesT, scatterT, stats, err := experiments.MonitoringAccuracy(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  correlation=%.4f meanAbsErr=%.2f%% maxAbsErr=%.2f%% over %d slots\n",
			stats.Correlation, stats.MeanAbsPct, stats.MaxAbsPct, stats.Slots)
		tables = append(tables, seriesT, scatterT)
	}
	if run("churn") {
		cfg := experiments.ChurnConfig{Seed: *seed}
		if *quick {
			cfg.N = 24
			cfg.Events = 12
			cfg.TreeCounts = []int{1, 8, 32}
		}
		fmt.Fprintf(os.Stderr, "churn overhead...\n")
		t, err := experiments.ChurnOverhead(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, t)
	}
	if run("ondemand") {
		cfg := experiments.OnDemandConfig{Seed: *seed}
		if *quick {
			cfg.Sizes = []int{32, 64}
		}
		fmt.Fprintf(os.Stderr, "on-demand query cost...\n")
		od, err := experiments.OnDemandCost(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, od)
	}
	if run("overhead") {
		cfg := experiments.LoadBalanceConfig{Seed: *seed, IDs: cluster.ProbedIDs}
		if *quick {
			cfg.Sizes = []int{100, 400, 1000}
		}
		fmt.Fprintf(os.Stderr, "message overhead...\n")
		tables = append(tables, experiments.MessageOverhead(cfg))
	}
	if run("widearea") {
		cfg := experiments.WideAreaConfig{Seed: *seed}
		if *quick {
			cfg.N = 64
			cfg.Slots = 40
			cfg.Holds = []time.Duration{10 * time.Millisecond, 150 * time.Millisecond}
		}
		fmt.Fprintf(os.Stderr, "wide-area scenario...\n")
		wa, err := experiments.WideArea(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, wa)
	}
	if run("multitree") {
		cfg := experiments.MultiTreeConfig{Seed: *seed}
		if *quick {
			cfg.N = 128
			cfg.Trees = []int{1, 16, 64}
		}
		fmt.Fprintf(os.Stderr, "multi-tree load balance...\n")
		mt, err := experiments.MultiTreeLoad(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, mt)
	}
	if run("ablation") {
		cfg := experiments.AblationConfig{Seed: *seed}
		if *quick {
			cfg.N = 48
			cfg.Slots = 60
			cfg.ListLens = []int{1, 4}
		}
		fmt.Fprintf(os.Stderr, "ablations (sync, successor list)...\n")
		syncT, err := experiments.SyncAblation(cfg)
		if err != nil {
			fatal(err)
		}
		succT, err := experiments.SuccessorListAblation(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, syncT, succT)
	}
	if run("maan") {
		cfg := experiments.MAANConfig{Seed: *seed}
		if *quick {
			cfg.Sizes = []int{64, 512}
			cfg.Resources = 128
		}
		fmt.Fprintf(os.Stderr, "MAAN query cost...\n")
		t, err := experiments.MAANQueryCost(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, t)
	}
	if run("batching") {
		cfg := experiments.BatchingConfig{Seed: *seed}
		if *quick {
			cfg.N = 48
			cfg.Slots = 10
			cfg.Trees = []int{1, 16, 64}
		}
		fmt.Fprintf(os.Stderr, "send-machine batching...\n")
		bt, err := experiments.BatchingOverhead(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, bt)
	}
	if run("selfmon") {
		cfg := experiments.SelfMonitorConfig{Seed: *seed}
		if *quick {
			cfg.Slots = 16
		}
		fmt.Fprintf(os.Stderr, "self-monitoring plane...\n")
		sm, err := experiments.SelfMonitorOverhead(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, sm)
	}
	if run("overload") {
		// No -quick shape: the full run takes well under a second, and the
		// breakers' probe backoff needs its 90 slots to reach the headline.
		fmt.Fprintf(os.Stderr, "circuit breakers (ack-blackhole ablation)...\n")
		ot, err := experiments.OverloadAblation(experiments.OverloadAblationConfig{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		tables = append(tables, ot)
	}
	if run("scale") {
		cfg := experiments.ScaleConfig{Seed: *seed}
		if *quick {
			cfg.Sizes = []int{10240}
			cfg.LiveN = 1024
			cfg.Slots = 4
		}
		fmt.Fprintf(os.Stderr, "large-n scale sweep (10k-65k snapshot + live ring)...\n")
		snapT, liveT, stats, err := experiments.Scale(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  live n=%d: %.0f events/sec, %.0f bytes/node, peak heap %.1f MB\n",
			stats.LiveN, stats.EventsPerSec, stats.BytesPerNode, float64(stats.PeakHeapBytes)/(1<<20))
		tables = append(tables, snapT, liveT)
	}

	if len(tables) == 0 {
		fatal(fmt.Errorf("unknown experiment %q (want all, fig7a, fig7b, height, fig8a, fig8b, fig9, churn, maan, ablation, multitree, overhead, widearea, ondemand, batching, selfmon, overload, scale)", *exp))
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		for _, t := range tables {
			path := filepath.Join(*out, t.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

func pick(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datbench:", err)
	os.Exit(1)
}
