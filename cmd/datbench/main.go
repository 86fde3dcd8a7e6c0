// Command datbench regenerates every table and figure of the paper's
// evaluation (Cai & Hwang, IPDPS 2007, §5) plus the complexity claims of
// §2.2, printing aligned text tables and optionally writing CSV files.
//
// Usage:
//
//	datbench [-exp all|fig7a|fig7b|height|fig8a|fig8b|fig9|churn|maan]
//	         [-out DIR] [-json DIR] [-seed N] [-quick]
//
// -quick shrinks the sweeps (smaller n, shorter monitored window) for
// smoke runs; the full configuration matches the paper's axes (16..8192
// nodes, n=512 distributions, 2-hour monitoring window).
//
// -json DIR writes one BENCH_<id>.json summary per table — wall-clock
// ns/op for the producing experiment, total messages, and the imbalance
// factor where the table reports one — for machine-readable tracking of
// benchmark drift across commits (`make bench-json`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, fig7a, fig7b, height, fig8a, fig8b, fig9, churn, maan, ablation, multitree, overhead, widearea, ondemand, batching, selfmon, overload, scale")
		out     = flag.String("out", "", "directory for CSV output (optional)")
		jsonDir = flag.String("json", "", "directory for BENCH_<id>.json summaries (optional)")
		seed    = flag.Int64("seed", 1, "random seed")
		quick   = flag.Bool("quick", false, "reduced sizes for a fast smoke run")
	)
	flag.Parse()

	run := func(name string) bool { return *exp == "all" || *exp == name }
	var tables []*experiments.Table
	start := time.Now()

	// Wall time per table ID, attributed block-wise: every table an
	// experiment block appends shares that block's elapsed time.
	benchNs := make(map[string]int64)
	lastMark, lastStart := 0, time.Now()
	stamp := func() {
		elapsed := time.Since(lastStart).Nanoseconds()
		for _, t := range tables[lastMark:] {
			benchNs[t.ID] = elapsed
		}
		lastMark = len(tables)
		lastStart = time.Now()
	}

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
	stamp()
	if run("fig8a") {
		cfg := experiments.LoadBalanceConfig{Seed: *seed, Probing: true}
		if *quick {
			cfg.N = 128
		}
		fmt.Fprintf(os.Stderr, "message distribution (Fig. 8a)...\n")
		tables = append(tables, experiments.MessageDistribution(cfg))
	}
	stamp()
	if run("fig8b") {
		cfg := experiments.LoadBalanceConfig{Seed: *seed, Probing: true}
		if *quick {
			cfg.Sizes = []int{100, 400, 1000}
		}
		fmt.Fprintf(os.Stderr, "imbalance factors (Fig. 8b)...\n")
		tables = append(tables, experiments.Imbalance(cfg))
	}
	stamp()
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
	stamp()
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
	stamp()
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
	stamp()
	if run("overhead") {
		cfg := experiments.LoadBalanceConfig{Seed: *seed, Probing: true}
		if *quick {
			cfg.Sizes = []int{100, 400, 1000}
		}
		fmt.Fprintf(os.Stderr, "message overhead...\n")
		tables = append(tables, experiments.MessageOverhead(cfg))
	}
	stamp()
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
	stamp()
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
	stamp()
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
	stamp()
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
	stamp()
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
	stamp()
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
	stamp()
	if run("overload") {
		cfg := experiments.OverloadAblationConfig{Seed: *seed}
		if *quick {
			cfg.N = 32
			cfg.Trees = 6
			cfg.Slots = 40
		}
		fmt.Fprintf(os.Stderr, "overload protection (ack-blackhole ablation)...\n")
		ot, err := experiments.OverloadAblation(cfg)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, ot)
	}
	stamp()
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
	stamp()

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
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fatal(err)
		}
		for _, t := range tables {
			path := filepath.Join(*jsonDir, "BENCH_"+t.ID+".json")
			if err := writeBenchJSON(path, t, benchNs[t.ID]); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// benchRecord is the BENCH_<id>.json schema: one summary per table for
// machine-readable benchmark tracking. NsPerOp is the wall time of the
// experiment block that produced the table (blocks with several tables
// share it). Messages and ImbalanceFactor are present only for tables
// that report them.
type benchRecord struct {
	Name            string   `json:"name"`
	Title           string   `json:"title"`
	NsPerOp         int64    `json:"ns_per_op"`
	Rows            int      `json:"rows"`
	Messages        *uint64  `json:"messages,omitempty"`
	ImbalanceFactor *float64 `json:"imbalance_factor,omitempty"`
	// DatagramReduction is the batching table's headline row: datagrams
	// per slot unbatched over batched at the largest tree count.
	DatagramReduction *float64 `json:"datagram_reduction,omitempty"`
	// SelfMonOverheadPct is the selfmon table's headline row: extra dat.*
	// datagrams per slot (percent) with the self-monitoring plane on. The
	// same table's plane-on row also feeds ImbalanceFactor with the live,
	// DAT-served imbalance figure.
	SelfMonOverheadPct *float64 `json:"selfmon_overhead_pct,omitempty"`
	// Overload-ablation headline row (the protected mode): how many
	// times fewer datagrams were wasted on the blackholed victim than in
	// the unprotected run, how much of the offered load was shed, how
	// often breakers opened, and the p99 age of the oldest queued element
	// — all under the bounded-queue budget.
	WastedRetryReduction *float64 `json:"wasted_retry_reduction,omitempty"`
	ShedPct              *float64 `json:"shed_pct,omitempty"`
	BreakerOpens         *float64 `json:"breaker_opens,omitempty"`
	P99QueueAgeMs        *float64 `json:"p99_queue_age_ms,omitempty"`
	QueueHiWaterBytes    *float64 `json:"queue_hiwater_bytes,omitempty"`
	// Scale-sweep headline row (the scalelive table): wall-clock
	// simulator throughput and per-node memory footprint of the live
	// large-n ring under continuous aggregation — the numbers the arena
	// substrate (DESIGN.md §15) is accountable for.
	EventsPerSec *float64 `json:"events_per_sec,omitempty"`
	BytesPerNode *float64 `json:"bytes_per_node,omitempty"`
	PeakHeapMB   *float64 `json:"peak_heap_mb,omitempty"`
}

func writeBenchJSON(path string, t *experiments.Table, nsPerOp int64) error {
	rec := benchRecord{Name: t.ID, Title: t.Title, NsPerOp: nsPerOp, Rows: len(t.Rows)}
	rec.Messages = messageTotal(t)
	rec.ImbalanceFactor = imbalanceFactor(t)
	rec.DatagramReduction = lastRowCell(t, "reduction")
	rec.SelfMonOverheadPct = lastRowCell(t, "overhead_pct")
	rec.WastedRetryReduction = lastRowCell(t, "wasted_retry_reduction")
	rec.ShedPct = lastRowCell(t, "shed_pct")
	rec.BreakerOpens = lastRowCell(t, "breaker_opens")
	rec.P99QueueAgeMs = lastRowCell(t, "p99_queue_age_ms")
	rec.QueueHiWaterBytes = lastRowCell(t, "queue_hiwater_bytes")
	rec.EventsPerSec = lastRowCell(t, "events_per_sec")
	rec.BytesPerNode = lastRowCell(t, "bytes_per_node")
	rec.PeakHeapMB = lastRowCell(t, "peak_heap_mb")
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// messageTotal sums every column whose header names a message count
// ("total_msgs", "messages", ...). Nil when the table has none.
func messageTotal(t *experiments.Table) *uint64 {
	var total uint64
	found := false
	for i, col := range t.Columns {
		if !strings.Contains(strings.ToLower(col), "msg") {
			continue
		}
		for _, row := range t.Rows {
			if i < len(row) {
				if v, err := strconv.ParseUint(row[i], 10, 64); err == nil {
					total += v
					found = true
				}
			}
		}
	}
	if !found {
		return nil
	}
	return &total
}

// imbalanceFactor extracts the headline imbalance number: the last-row
// value of a column named "imbalance", or — for the scheme-per-column
// Fig. 8(b) table — the balanced-local scheme at the largest network
// size. Nil when the table reports neither.
func imbalanceFactor(t *experiments.Table) *float64 {
	col := -1
	for i, c := range t.Columns {
		lc := strings.ToLower(c)
		if strings.Contains(lc, "imbalance") {
			col = i
		}
	}
	if col < 0 && t.ID == "fig8b" {
		for i, c := range t.Columns {
			if c == "balanced-local" {
				col = i
			}
		}
	}
	if col < 0 || len(t.Rows) == 0 {
		return nil
	}
	last := t.Rows[len(t.Rows)-1]
	if col >= len(last) {
		return nil
	}
	v, err := strconv.ParseFloat(last[col], 64)
	if err != nil {
		return nil
	}
	return &v
}

// lastRowCell pulls the named column's value from a table's final row —
// for sweeps whose last row is the headline configuration. Nil when the
// table has no such column.
func lastRowCell(t *experiments.Table, col string) *float64 {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 || len(t.Rows) == 0 {
		return nil
	}
	last := t.Rows[len(t.Rows)-1]
	if ci >= len(last) {
		return nil
	}
	if v, err := strconv.ParseFloat(last[ci], 64); err == nil {
		return &v
	}
	return nil
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
