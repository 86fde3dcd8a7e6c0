// Command perf is the repository's benchmark: four named workloads over
// the simulator and over a loopback UDP fleet, a fixed set of end-to-end
// metrics, and a per-layer ledger from a traced run. See README.md.
//
//	go -C perf run . --workload sim-ring4k --seed 1 --seconds 10 --trace 0
//	go -C perf run .                     # every workload, untraced and traced
//	go -C perf run . -compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's one-line answer of one run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as stored in a results file for -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	sets := flag.Int("sets", 1, "with no -workload: how many times to run the whole set")
	outPath := flag.String("out", filepath.Join(outDir, "results.json"), "with no -workload: where to store the records")
	compare := flag.Bool("compare", false, "compare two results files given as arguments and apply the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	// One processor, everywhere. The hosts this benchmark is judged on
	// offer two, but their scheduler does not balance threads between
	// them (cpuset.sched_load_balance is 0: two busy threads of one
	// process shared one processor for as long as they ran, the other
	// idle), so where the runtime's second thread lands, and with it what
	// a run costs, changes from one process to the next. With one thread
	// running Go code there is nothing to place.
	runtime.GOMAXPROCS(1)

	var err error
	switch {
	case *printManifest:
		_, err = os.Stdout.Write(manifestJSON())
	case *compare:
		err = compareFiles(flag.Args())
	case *workload != "":
		var rec record
		if rec, err = runOne(*workload, *seed, *seconds, *trace); err == nil {
			printRecord(rec)
			err = json.NewEncoder(os.Stdout).Encode(rec.result)
		}
	default:
		err = runAll(*seed, *seconds, *sets, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// runOne runs one workload once and lays its numbers out against the
// vocabulary: the end-to-end metrics for an untraced run, the per-layer
// metrics for a traced one.
func runOne(workload string, seed int64, seconds, trace int) (record, error) {
	if seconds < 1 {
		return record{}, fmt.Errorf("--seconds must be at least 1")
	}
	traced := trace != 0
	var out *outcome
	var err error
	switch workload {
	case wlRing4k, wlTreesChurn:
		out, err = runSim(simSpecs[workload], seed, seconds, traced)
	case wlFanin:
		out, err = runFanin(seed, seconds, traced)
	case wlDiscovery:
		out, err = runDiscovery(seed, seconds, traced)
	default:
		return record{}, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", workload, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if err := runLayerDrivers(driverBudget(seconds), out.m, out.tr); err != nil {
			return record{}, err
		}
		if err := out.tr.write(workload); err != nil {
			return record{}, err
		}
	}
	rec := record{Workload: workload, Seed: seed, Trace: trace}
	rec.Attempted, rec.Failed = out.attempted, out.failed
	rec.Correct = out.failed == 0 && out.attempted > 0
	rec.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.m[d.Name]
		if !ok && !traced {
			return record{}, fmt.Errorf("%s: metric %s not measured", workload, d.Name)
		}
		// A per-layer metric the workload does not exercise reads 0.
		rec.Metrics[d.Name] = value{v, d.Unit}
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	return rec, nil
}

func printRecord(rec record) {
	fmt.Printf("# %s seed=%d trace=%d: %d ops checked, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}

// driverBudget is how long each layer driver times each function: a
// quarter second at the default --seconds, a second at --seconds 40.
func driverBudget(seconds int) time.Duration {
	return time.Duration(seconds) * 25 * time.Millisecond
}

// runAll runs every workload untraced and traced, sets times, prints
// every metric and stores the records for -compare. Each run is a
// process of its own, exactly as the driver starts it, so that nothing
// one workload leaves behind (heap, timers, sockets) reaches the next.
func runAll(seed int64, seconds, sets int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var records []record
	failed := false
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s trace=%d: %w", w.Name, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				rec := record{Workload: w.Name, Seed: seed, Trace: trace}
				if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
					return fmt.Errorf("%s trace=%d: result line: %w", w.Name, trace, err)
				}
				os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
				fmt.Println()
				failed = failed || !rec.Correct
				records = append(records, rec)
			}
		}
	}
	data, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Println("# records written to", outPath)
	if failed {
		return fmt.Errorf("some outputs were wrong")
	}
	return nil
}
