package datcheck

import (
	"math"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
)

// ScaleConfig parameterizes the large-n snapshot sweep: the event-driven
// harness exercises the full protocol stack at tens of nodes, while this
// sweep checks that the §3 tree theorems keep holding on rings one to
// three orders of magnitude larger (the paper's 10k-node regime and
// beyond). Snapshot trees are pure functions of the ring, so the sweep
// is deterministic and cheap even at 65536 nodes.
type ScaleConfig struct {
	// Sizes are the ring sizes to sweep. Default {10240, 65536}.
	Sizes []int
	// Bits is the identifier space width. Default 32.
	Bits uint
	// Seed drives identifier generation. Default 1.
	Seed int64
	// Key is the aggregate name hashed into the rendezvous key.
	// Default "cpu-usage".
	Key string
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{10240, 65536}
	}
	if c.Bits == 0 {
		c.Bits = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Key == "" {
		c.Key = "cpu-usage"
	}
	return c
}

// ScalePoint is one measured (n, placement, scheme) snapshot tree with
// the bound each measurement was checked against.
type ScalePoint struct {
	N              int
	Placement      cluster.IDStrategy // RandomIDs or ProbedIDs
	Scheme         core.Scheme
	MaxBranching   int
	BranchingBound int
	AvgBranching   float64
	Height         int
	HeightBound    int
	GapRatio       float64
}

// scaleBounds returns the slack-degraded §3 bounds for one ring — the
// same formulas checkDAT asserts on small event-driven rings, so the
// large-n sweep and the protocol harness enforce one contract.
func scaleBounds(ring *chord.Ring, n int, scheme core.Scheme) (maxB, maxH int) {
	slack := int(ident.CeilLog2(uint64(math.Ceil(ring.GapRatio())))) + 1
	switch scheme {
	case core.Basic:
		maxB = analysis.BasicMaxBranching(n) + 2*slack + 2
	default:
		maxB = analysis.BalancedMaxBranching + 2 + 2*slack + 2
	}
	return maxB, analysis.HeightBound(n) + slack + 2
}

// RunScale sweeps snapshot aggregation trees over cfg.Sizes for both
// identifier placements and every construction scheme, validating each
// tree structurally and against the branching/height bounds. It returns
// every measured point plus any violations, in deterministic order.
func RunScale(cfg ScaleConfig) ([]ScalePoint, []Violation) {
	cfg = cfg.withDefaults()
	space := ident.New(cfg.Bits)
	key := space.HashString(cfg.Key)
	schemes := []core.Scheme{core.Basic, core.Balanced, core.BalancedLocal}
	placements := []cluster.IDStrategy{cluster.RandomIDs, cluster.ProbedIDs}

	k := &checker{}
	var points []ScalePoint
	for _, n := range cfg.Sizes {
		for _, pl := range placements {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
			ring, err := chord.NewRing(space, pl.IDs(space, n, rng))
			if err != nil {
				k.fail("scale-ring", "n=%d placement=%v: %v", n, pl, err)
				continue
			}
			for _, s := range schemes {
				tree := core.Build(ring, key, s)
				if err := tree.Validate(); err != nil {
					k.fail("scale-snapshot", "n=%d placement=%v scheme=%v: invalid tree: %v",
						n, pl, s, err)
				}
				maxB, maxH := scaleBounds(ring, n, s)
				p := ScalePoint{
					N:              n,
					Placement:      pl,
					Scheme:         s,
					MaxBranching:   tree.MaxBranching(),
					BranchingBound: maxB,
					AvgBranching:   tree.AvgBranching(),
					Height:         tree.Height(),
					HeightBound:    maxH,
					GapRatio:       ring.GapRatio(),
				}
				if p.MaxBranching > maxB {
					k.fail("scale-branching",
						"n=%d placement=%v scheme=%v max branching %d exceeds bound %d (gapRatio=%.1f)",
						n, pl, s, p.MaxBranching, maxB, p.GapRatio)
				}
				if p.Height > maxH {
					k.fail("scale-height",
						"n=%d placement=%v scheme=%v height %d exceeds bound %d (gapRatio=%.1f)",
						n, pl, s, p.Height, maxH, p.GapRatio)
				}
				points = append(points, p)
			}
		}
	}
	return points, k.out
}
