package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// This file is the vocabulary: every workload and metric name the
// benchmark emits is declared here once. BENCHMARK.json at the repo
// root is generated from it (`-manifest`) and a test pins the two
// together, so a name exists in the code if and only if the driver
// knows it.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

const (
	wlRing4k     = "sim-ring4k"
	wlTreesChurn = "sim-trees-churn"
	wlFanin      = "live-fanin"
	wlDiscovery  = "live-discovery"
)

var workloads = []workloadDef{
	{wlRing4k, "paper's scale regime: 4096-node warm ring, one tree, stretched maintenance; sim+transport+core tick/handleUpdate do the work, wire/rpcudp none, no coalescing"},
	{wlTreesChurn, "512 nodes, 32 trees + self-monitoring + overload layer, fast maintenance, 1% loss, crash/rejoin: timers, retries, failover, breakers, chord repair, coalesced sends"},
	{wlFanin, "32 dat.Peer stacks over loopback rpcudp, 240 trees at 250 ms slots, open loop: the write path on real sockets and locks (rpcudp, wire, send machine, core)"},
	{wlDiscovery, "same 32-peer loopback fleet, no trees; 2 closed-loop clients issue MAAN range queries: request/response rpcudp+wire+chord walks, the only workload using maan"},
}

// runSeconds is BENCHMARK.json's run_seconds: the measured window the
// driver asks for with --seconds.
const runSeconds = 10

// An "op" is what the workload exists to do: one node-slot in the
// simulator, one node-tree-slot update folded into a root result on
// live-fanin, one answered query on live-discovery. The latency sample
// is what a user waits for: the host time to simulate one slot, the
// wall age of the oldest sample in a root result, the wall time of one
// query. Every end-to-end metric is host-measured; the simulated
// statistics, which repeat exactly per seed, are per-layer. The bounds
// are the contract's maximum because the benchmark was defined on a
// two-core virtual machine whose speed drifts by ±10% over minutes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer lists, layer by layer, first the driver metrics (public
// functions timed in isolation) and then the traced-run metrics.
var perLayer = []metricDef{
	lower("ident.between_ns", "ns"),
	lower("ident.cpu_share", "ratio"),

	lower("wire.encode_update_ns", "ns"),
	lower("wire.decode_update_ns", "ns"),
	lower("wire.encode_batch32_ns", "ns"),
	lower("wire.decode_batch32_ns", "ns"),
	lower("wire.update_bytes", "bytes"),
	lower("wire.decode_update_allocs", "count"),
	lower("wire.cpu_share", "ratio"),

	lower("sim.schedule_fire_ns", "ns"),
	lower("sim.schedule_fire_deep_ns", "ns"),
	higher("sim.events_per_s", "1/s"),
	lower("sim.events_per_node_slot", "count"),
	lower("sim.queue_len_mean", "count"),
	lower("sim.cpu_share", "ratio"),

	lower("transport.simnet_send_ns", "ns"),
	lower("transport.simnet_call_ns", "ns"),
	lower("transport.simnet_send_allocs", "count"),
	lower("transport.dropped", "count"),
	lower("transport.duplicated", "count"),
	lower("transport.cpu_share", "ratio"),
	lower("sim_datagrams_per_node_slot", "count"),
	lower("imbalance_factor", "ratio"),

	lower("rpcudp.call_rtt_ns", "ns"),
	lower("rpcudp.send_ns", "ns"),
	lower("rpcudp.call_allocs", "count"),
	lower("rpcudp.datagrams_per_update", "count"),
	lower("rpcudp.bytes_per_update", "bytes"),
	lower("rpcudp.datagrams_per_query", "count"),
	lower("rpcudp.bytes_per_query", "bytes"),
	lower("rpcudp.retransmits", "count"),
	lower("rpcudp.cpu_share", "ratio"),

	lower("chord.ring_route_ns", "ns"),
	lower("chord.lookup_ns", "ns"),
	lower("chord.lookup_hops_mean", "count"),
	lower("chord.maintenance_ns_per_node_round", "ns"),
	lower("chord.msgs_per_node_slot", "count"),
	lower("chord.suspects", "count"),
	lower("chord.evictions", "count"),
	lower("chord.lookups_per_query", "count"),
	lower("chord.cpu_share", "ratio"),

	lower("core.build_tree_4096_ns", "ns"),
	lower("core.aggregate_up_4096_ns", "ns"),
	lower("core.merge_ns", "ns"),
	lower("core.parent_for_ns", "ns"),
	lower("core.update_path_ns", "ns"),
	lower("core.msgs_per_node_slot", "count"),
	higher("core.updates_applied", "count"),
	lower("core.updates_rejected", "count"),
	lower("core.retries", "count"),
	lower("core.failovers", "count"),
	lower("core.root_handovers", "count"),
	higher("core.batch_elems_per_flush_mean", "count"),
	lower("core.shed_total", "count"),
	lower("core.breaker_opens", "count"),
	lower("core.queue_hiwater_bytes", "bytes"),
	lower("core.count_abs_err_mean_pct", "%"),
	lower("core.rounds_off_pct", "%"),
	lower("core.result_age_p50_ms", "ms"),
	lower("core.result_age_p90_ms", "ms"),
	lower("core.result_age_p99_ms", "ms"),
	lower("core.cpu_share", "ratio"),

	lower("maan.index_query_ns", "ns"),
	lower("maan.msgs_per_query", "count"),
	higher("maan.results_per_query_mean", "count"),
	lower("maan.query_p99_ms", "ms"),
	lower("maan.cpu_share", "ratio"),

	lower("obs.counter_inc_ns", "ns"),
	lower("obs.histogram_observe_ns", "ns"),
	lower("obs.span_record_ns", "ns"),
	lower("obs.overhead_pct", "%"),
	lower("obs.cpu_share", "ratio"),

	lower("runtime.gc_share", "ratio"),
	lower("runtime.sched_share", "ratio"),
	lower("runtime.syscall_share", "ratio"),
	lower("perf.cpu_share", "ratio"),
	lower("other.cpu_share", "ratio"),
	lower("runtime.heap_bytes_per_node", "bytes"),
	lower("runtime.allocs_per_node_slot", "count"),
	lower("runtime.allocs_per_update", "count"),
	lower("runtime.allocs_per_query", "count"),
	higher("perf.ports_fixed", "count"),
}

// layers are the cpu_share buckets; together they sum to 1.
var layers = []string{"ident", "wire", "sim", "transport", "rpcudp", "chord", "core", "maan", "obs"}

// manifest is the content of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eJSON     `json:"end_to_end"`
	PerLayer   []layerJSON   `json:"per_layer"`
}

// e2eJSON always carries its bound; layerJSON never has one.
type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "-C", "perf", "run", "."},
		Paths:      []string{"perf"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	return m
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(b, '\n')
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// checkNames applies the driver's syntax rules to the whole vocabulary.
func checkNames() error {
	seen := map[string]bool{}
	check := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q: bad syntax", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q: used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloads {
		if err := check(w.Name); err != nil {
			return err
		}
		if len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if err := check(d.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				return fmt.Errorf("metric %q: better=%q", d.Name, d.Better)
			}
		}
	}
	return nil
}
