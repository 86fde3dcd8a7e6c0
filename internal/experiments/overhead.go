package experiments

import (
	"math/rand"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/metrics"
)

// MessageOverhead reports the §5 "average message overhead per node"
// metric: mean messages received per node for one aggregation round, as
// a function of network size. DAT schemes cost (n-1)/n ≈ 1 message per
// node per round regardless of size; routing every value to a central
// root costs O(log n) per node in forwarding.
func MessageOverhead(cfg LoadBalanceConfig) *Table {
	cfg = cfg.withDefaults()
	space := ident.New(cfg.Bits)
	key := space.HashString(cfg.Key)
	t := &Table{
		ID:    "overhead",
		Title: "Average aggregation messages received per node per round",
		Columns: []string{"n", "centralized", "centralized-routed",
			"basic", "balanced", "balanced-local", "pred.routed(log2 n)"},
	}
	for _, n := range cfg.Sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		ring, err := chord.NewRing(space, cfg.IDs.IDs(space, n, rng))
		if err != nil {
			panic(err)
		}
		loads := oneRound(ring, key, rng)
		mean := func(name string) float64 { return metrics.Analyze(loads[name]).Mean }
		t.Add(n, mean("centralized"), mean("centralized-routed"),
			mean("basic"), mean("balanced"), mean("balanced-local"),
			float64(ident.CeilLog2(uint64(n))))
	}
	t.Note("DAT schemes: exactly (n-1)/n ~= 1 regardless of size; overlay-routed centralized grows like log2 n")
	return t
}
