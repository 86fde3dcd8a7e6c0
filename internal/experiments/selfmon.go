package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/ident"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// SelfMonitorConfig parameterizes the self-monitoring ablation: the same
// primary monitoring workload measured with the dat.load.* plane off
// versus on, over one live ring.
type SelfMonitorConfig struct {
	// N is the ring size. Default 48 (the acceptance point for the
	// overhead budget in DESIGN.md §13).
	N int
	// Trees is the number of primary aggregation trees the plane rides
	// alongside. Default 4.
	Trees int
	// Slots is the measured window length in primary aggregation slots.
	// Default 32.
	Slots int
	// Warmup slots run before counting so child caches, epochs and the
	// first self-monitoring rounds are steady. The load trees run at a
	// 4x-slower slot, so full fan-in takes several primary slots per
	// tree level; default 16.
	Warmup int
	// Slot is the primary aggregation slot. Default 500ms. The
	// self-monitoring trees run at the production default of 4x this.
	Slot time.Duration
	// Bits, Seed as elsewhere.
	Bits uint
	Seed int64
}

func (c SelfMonitorConfig) withDefaults() SelfMonitorConfig {
	if c.N == 0 {
		c.N = 48
	}
	if c.Trees == 0 {
		c.Trees = 4
	}
	if c.Slots == 0 {
		c.Slots = 32
	}
	if c.Warmup == 0 {
		c.Warmup = 16
	}
	if c.Slot <= 0 {
		c.Slot = 500 * time.Millisecond
	}
	if c.Bits == 0 {
		c.Bits = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SelfMonitorOverhead measures what the self-monitoring plane costs and
// what it buys (DESIGN.md §13). Paired runs over the same seed and
// workload count dat.* datagrams per slot with the dat.load.* trees off
// versus on; the difference is the plane's overhead, which stays small
// because the load updates run at a 4x-slower slot and coalesce into the
// send machine's existing batches. The enabled run also reports what the
// plane measured: the cluster-wide load imbalance factor read back
// through the DAT itself (the live analogue of Fig. 8's offline metric),
// checked here against ground truth computed directly from every node's
// counters.
func SelfMonitorOverhead(cfg SelfMonitorConfig) (*Table, error) {
	cfg = cfg.withDefaults()

	type run struct {
		perSlot float64
		live    obs.LoadSummary
		liveOK  bool
		truth   float64
	}
	measure := func(enable bool) (run, error) {
		c, err := cluster.New(cluster.Options{
			N:    cfg.N,
			Bits: cfg.Bits,
			Seed: cfg.Seed,
			Local: func(node int, _ time.Duration, _ ident.ID) (float64, bool) {
				return float64(node + 1), true
			},
			SelfMon: obs.SelfMonConfig{Enable: enable, Slot: 4 * cfg.Slot},
		})
		if err != nil {
			return run{}, err
		}
		for i := 0; i < cfg.Trees; i++ {
			key := c.Space.HashString(fmt.Sprintf("attribute-%04d", i))
			if _, err := c.StartContinuousAll(key, cfg.Slot); err != nil {
				return run{}, err
			}
		}
		counter := metrics.NewMessageCounter(metrics.TypePrefixFilter("dat."))
		c.Net.SetTap(counter)
		c.RunFor(time.Duration(cfg.Warmup) * cfg.Slot)
		counter.Reset()
		c.RunFor(time.Duration(cfg.Slots) * cfg.Slot)
		c.Net.SetTap(nil)
		r := run{perSlot: float64(counter.Total()) / float64(cfg.Slots)}
		if enable {
			r.live, r.liveOK = c.ClusterLoad()
			var sum, max float64
			for _, dn := range c.DAT {
				msgs, _ := dn.Load()
				l := float64(msgs)
				sum += l
				if l > max {
					max = l
				}
			}
			if mean := sum / float64(cfg.N); mean > 0 {
				r.truth = max / mean
			}
		}
		return r, nil
	}

	off, err := measure(false)
	if err != nil {
		return nil, err
	}
	on, err := measure(true)
	if err != nil {
		return nil, err
	}
	overhead := 0.0
	if off.perSlot > 0 {
		overhead = (on.perSlot - off.perSlot) / off.perSlot * 100
	}

	t := &Table{
		ID: "selfmon",
		Title: fmt.Sprintf("Self-monitoring plane: %d nodes, %d trees, dat.* datagrams per slot, plane off vs on",
			cfg.N, cfg.Trees),
		Columns: []string{"plane", "datagrams_per_slot", "overhead_pct",
			"coverage", "imbalance_true", "imbalance_live"},
	}
	t.Add("off", off.perSlot, 0.0, "-", "-", "-")
	if on.liveOK {
		t.Add("on", on.perSlot, overhead, on.live.Coverage, on.truth, on.live.Imbalance)
	} else {
		t.Add("on", on.perSlot, overhead, "-", on.truth, "-")
	}
	t.Note(fmt.Sprintf("%d measured slots of %v after %d warmup slots; counts include acks/replies",
		cfg.Slots, cfg.Slot, cfg.Warmup))
	t.Note(fmt.Sprintf("self-monitoring slot %v (4x primary); imbalance_live is max/mean node load read back through the dat.load.msgs tree",
		4*cfg.Slot))
	t.Note("imbalance_true is the same metric computed offline from every node's counters")
	if on.liveOK && on.live.Nodes != uint64(cfg.N) {
		t.Note(fmt.Sprintf("WARNING: live summary covered %d of %d nodes", on.live.Nodes, cfg.N))
	}
	return t, nil
}
