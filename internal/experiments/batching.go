package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/metrics"
)

// BatchingConfig parameterizes the send-machine ablation: T concurrent
// aggregation trees over one live ring, measured with update coalescing
// on (shipping defaults) versus off (MaxElems 1: one datagram per update).
type BatchingConfig struct {
	// N is the ring size. Default 64.
	N int
	// Trees is the sweep over concurrent tree counts. Default 1, 16, 64.
	Trees []int
	// Slots is the measured window length in aggregation slots.
	// Default 20.
	Slots int
	// Warmup slots run before counting so child caches and epochs are
	// steady. Default 4.
	Warmup int
	// Slot is the aggregation slot. Default 500ms.
	Slot time.Duration
	// Bits, Seed as elsewhere.
	Bits uint
	Seed int64
}

func (c BatchingConfig) withDefaults() BatchingConfig {
	if c.N == 0 {
		c.N = 64
	}
	if len(c.Trees) == 0 {
		c.Trees = []int{1, 16, 64}
	}
	if c.Slots == 0 {
		c.Slots = 20
	}
	if c.Warmup == 0 {
		c.Warmup = 4
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

// BatchingOverhead measures aggregation datagrams per slot with the send
// machine on versus off (DESIGN.md §12). With T trees a node sends one
// update per tree per slot, but its per-tree parents collapse onto its
// few finger targets and every tree where it is a leaf sends at the same
// slot boundary — exactly the traffic the per-destination queues
// coalesce. The unbatched column grows linearly in T; the batched column
// grows with the number of distinct (destination, hold-level) pairs, so
// the reduction factor climbs with tree count.
func BatchingOverhead(cfg BatchingConfig) (*Table, error) {
	cfg = cfg.withDefaults()

	measure := func(trees int, batch core.BatchConfig) (float64, error) {
		c, err := cluster.New(cluster.Options{
			N:    cfg.N,
			Bits: cfg.Bits,
			Seed: cfg.Seed,
			Local: func(node int, _ time.Duration, _ ident.ID) (float64, bool) {
				return float64(node + 1), true
			},
			Batch: batch,
		})
		if err != nil {
			return 0, err
		}
		for i := 0; i < trees; i++ {
			key := c.Space.HashString(fmt.Sprintf("attribute-%04d", i))
			if _, err := c.StartContinuousAll(key, cfg.Slot); err != nil {
				return 0, err
			}
		}
		counter := metrics.NewMessageCounter(metrics.TypePrefixFilter("dat."))
		c.Net.SetTap(counter)
		c.RunFor(time.Duration(cfg.Warmup) * cfg.Slot)
		counter.Reset()
		c.RunFor(time.Duration(cfg.Slots) * cfg.Slot)
		c.Net.SetTap(nil)
		return float64(counter.Total()) / float64(cfg.Slots), nil
	}

	t := &Table{
		ID: "batching",
		Title: fmt.Sprintf("Send-machine coalescing: %d nodes, dat.* datagrams per slot, batching on vs off",
			cfg.N),
		Columns: []string{"trees", "unbatched_per_slot", "batched_per_slot", "reduction"},
	}
	for _, trees := range cfg.Trees {
		plain, err := measure(trees, core.BatchConfig{MaxElems: 1})
		if err != nil {
			return nil, err
		}
		batched, err := measure(trees, core.BatchConfig{})
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if batched > 0 {
			ratio = plain / batched
		}
		t.Add(trees, plain, batched, ratio)
	}
	t.Note(fmt.Sprintf("%d measured slots of %v after %d warmup slots; counts include acks/replies",
		cfg.Slots, cfg.Slot, cfg.Warmup))
	t.Note("batched column uses the shipping defaults (MaxBytes 1200, MaxDelay 5ms, MaxElems 32)")
	return t, nil
}
