package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Verdicts of -compare for one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// judge compares the medians of two sets of runs of one metric. change
// is how much worse B is than A as a share of A's median (negative when
// better). When either side's own run-to-run spread (interquartile
// distance over median) exceeds the bound, a move beyond the bound
// cannot be told from noise and the verdict is unresolved.
func judge(a, b []float64, d metricDef) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, verdictUnresolved
	}
	change = (mb - ma) / ma
	if d.Better == "higher" {
		change = -change
	}
	noisy := spread(a) > d.Bound || spread(b) > d.Bound
	switch {
	case change > d.Bound && noisy, change < -d.Bound && noisy:
		return change, verdictUnresolved
	case change > d.Bound:
		return change, verdictRegressed
	case change < -d.Bound:
		return change, verdictImproved
	}
	return change, verdictOK
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// series gathers one metric's values over the runs of one workload.
func series(recs []record, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both medians, the change with its base, and a verdict under the
// metric's bound; then the per-layer metrics, which are never gated.
// It fails when any pair regressed or any run's outputs were wrong.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare needs two results files: A.json B.json")
	}
	a, err := readRecords(paths[0])
	if err != nil {
		return err
	}
	b, err := readRecords(paths[1])
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Printf("%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A (base)", "B", "B worse", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := series(a, w.Name, 0, d.Name), series(b, w.Name, 0, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, verdict := judge(va, vb, d)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s (n=%d,%d)\n",
				w.Name, d.Name, median(va), median(vb), 100*change, 100*d.Bound, verdict, len(va), len(vb))
		}
	}
	fmt.Println("\nper-layer (median A -> median B; not gated)")
	for _, w := range workloads {
		for _, d := range perLayer {
			va, vb := series(a, w.Name, 1, d.Name), series(b, w.Name, 1, d.Name)
			if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) {
				continue
			}
			fmt.Printf("%-16s %-36s %16.4f -> %16.4f %s\n", w.Name, d.Name, median(va), median(vb), d.Unit)
		}
	}
	wrong := 0
	for _, r := range append(a, b...) {
		if !r.Correct {
			wrong++
		}
	}
	if regressed > 0 || wrong > 0 {
		return fmt.Errorf("%d metric(s) regressed, %d run(s) produced wrong outputs", regressed, wrong)
	}
	return nil
}
