package experiments

import (
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
)

// TreePropsConfig parameterizes the Fig. 7 sweep.
type TreePropsConfig struct {
	// Sizes are the network sizes to sweep. Default 16..8192 by powers
	// of two (the paper's x-axis).
	Sizes []int
	// Bits is the identifier space width. Default 32.
	Bits uint
	// Seed drives identifier generation. Default 1.
	Seed int64
	// Trials averages random placements over this many runs. Default 3.
	Trials int
	// Key is the aggregate name whose hash is the rendezvous key.
	// Default "cpu-usage".
	Key string
}

func (c TreePropsConfig) withDefaults() TreePropsConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	}
	if c.Bits == 0 {
		c.Bits = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Key == "" {
		c.Key = "cpu-usage"
	}
	return c
}

// treeSample holds measured properties for one (n, placement, scheme).
type treeSample struct {
	maxB   float64
	avgB   float64
	height float64
}

// TreeProperties reproduces Fig. 7(a) (maximal branching factor),
// Fig. 7(b) (average branching factor) and the height analysis of
// §3.3/§3.5 across network sizes, identifier placements (random vs
// probed) and schemes (basic, balanced, balanced-local).
func TreeProperties(cfg TreePropsConfig) []*Table {
	cfg = cfg.withDefaults()
	space := ident.New(cfg.Bits)
	key := space.HashString(cfg.Key)
	schemes := []core.Scheme{core.Basic, core.Balanced, core.BalancedLocal}
	placements := []cluster.IDStrategy{cluster.RandomIDs, cluster.ProbedIDs}

	maxT := &Table{
		ID:    "fig7a",
		Title: "Fig. 7(a): maximal branching factor vs network size",
		Columns: []string{"n",
			"basic/random", "basic/probed",
			"balanced/random", "balanced/probed",
			"balanced-local/random", "balanced-local/probed",
			"pred.basic", "pred.balanced"},
	}
	avgT := &Table{
		ID:    "fig7b",
		Title: "Fig. 7(b): average branching factor vs network size",
		Columns: []string{"n",
			"basic/random", "basic/probed",
			"balanced/random", "balanced/probed",
			"balanced-local/random", "balanced-local/probed"},
	}
	hT := &Table{
		ID:    "height",
		Title: "Tree height vs network size (bound: log2 n, §3.3/§3.5)",
		Columns: []string{"n",
			"basic/random", "basic/probed",
			"balanced/random", "balanced/probed",
			"balanced-local/random", "balanced-local/probed",
			"bound"},
	}

	for _, n := range cfg.Sizes {
		// samples[scheme][placement]
		samples := make(map[core.Scheme]map[cluster.IDStrategy]treeSample)
		for _, s := range schemes {
			samples[s] = make(map[cluster.IDStrategy]treeSample)
		}
		for _, pl := range placements {
			acc := make(map[core.Scheme]treeSample)
			for trial := 0; trial < cfg.Trials; trial++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919 + int64(n)))
				ring, err := chord.NewRing(space, pl.IDs(space, n, rng))
				if err != nil {
					panic(err) // generated ids are valid by construction
				}
				for _, s := range schemes {
					tr := core.Build(ring, key, s)
					a := acc[s]
					a.maxB += float64(tr.MaxBranching())
					a.avgB += tr.AvgBranching()
					a.height += float64(tr.Height())
					acc[s] = a
				}
			}
			for _, s := range schemes {
				a := acc[s]
				samples[s][pl] = treeSample{
					maxB:   a.maxB / float64(cfg.Trials),
					avgB:   a.avgB / float64(cfg.Trials),
					height: a.height / float64(cfg.Trials),
				}
			}
		}
		maxT.Add(n,
			samples[core.Basic][cluster.RandomIDs].maxB, samples[core.Basic][cluster.ProbedIDs].maxB,
			samples[core.Balanced][cluster.RandomIDs].maxB, samples[core.Balanced][cluster.ProbedIDs].maxB,
			samples[core.BalancedLocal][cluster.RandomIDs].maxB, samples[core.BalancedLocal][cluster.ProbedIDs].maxB,
			analysis.BasicMaxBranching(n), analysis.BalancedMaxBranching)
		avgT.Add(n,
			samples[core.Basic][cluster.RandomIDs].avgB, samples[core.Basic][cluster.ProbedIDs].avgB,
			samples[core.Balanced][cluster.RandomIDs].avgB, samples[core.Balanced][cluster.ProbedIDs].avgB,
			samples[core.BalancedLocal][cluster.RandomIDs].avgB, samples[core.BalancedLocal][cluster.ProbedIDs].avgB)
		hT.Add(n,
			samples[core.Basic][cluster.RandomIDs].height, samples[core.Basic][cluster.ProbedIDs].height,
			samples[core.Balanced][cluster.RandomIDs].height, samples[core.Balanced][cluster.ProbedIDs].height,
			samples[core.BalancedLocal][cluster.RandomIDs].height, samples[core.BalancedLocal][cluster.ProbedIDs].height,
			analysis.HeightBound(n))
	}

	maxT.Note("paper anchors @8192: basic/random ~43, basic/probed ~16, balanced(+probing) ~ constant 4")
	maxT.Note("'balanced' measures x to the root (theorem: <=2); 'balanced-local' is Algorithm 1 as published (constant ~4)")
	avgT.Note("paper: avg branching ~2 with probing, ~3-3.2 without, flat in n")
	hT.Note("both schemes bounded by log2(n); basic/random may exceed slightly due to uneven gaps")
	return []*Table{maxT, avgT, hT}
}
