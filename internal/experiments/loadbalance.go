package experiments

import (
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/centralized"
	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/metrics"
)

// LoadBalanceConfig parameterizes the Fig. 8 experiments.
type LoadBalanceConfig struct {
	// N is the network size for the rank distribution (Fig. 8a).
	// Default 512 (the paper's setting).
	N int
	// Sizes is the sweep for the imbalance factor (Fig. 8b). Default
	// 100..1000 step 100.
	Sizes []int
	// Bits, Seed, Key as elsewhere.
	Bits uint
	Seed int64
	Key  string
	// IDs selects identifier placement. Default RandomIDs. The paper's
	// load-balance figures assume balanced placements, so cmd/datbench
	// passes ProbedIDs.
	IDs cluster.IDStrategy
}

func (c LoadBalanceConfig) withDefaults() LoadBalanceConfig {
	if c.N == 0 {
		c.N = 512
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
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

// oneRound runs a single aggregation round for every scheme on one ring
// and returns the per-node received-message loads, indexed by scheme
// name.
func oneRound(ring *chord.Ring, key ident.ID, rng *rand.Rand) map[string][]uint64 {
	values := make(map[ident.ID]float64, ring.N())
	for _, id := range ring.IDs() {
		values[id] = rng.Float64() * 100
	}
	loads := make(map[string][]uint64)
	collect := func(recv map[ident.ID]uint64) []uint64 {
		out := make([]uint64, 0, ring.N())
		for _, id := range ring.IDs() {
			out = append(out, recv[id])
		}
		return out
	}
	_, recvC := centralized.DirectRound(ring, key, values)
	loads["centralized"] = collect(recvC)
	_, recvR := centralized.Round(ring, key, values)
	loads["centralized-routed"] = collect(recvR)
	for _, s := range []core.Scheme{core.Basic, core.Balanced, core.BalancedLocal} {
		tr := core.Build(ring, key, s)
		_, recv := tr.AggregateUp(values)
		loads[s.String()] = collect(recv)
	}
	return loads
}

// MessageDistribution reproduces Fig. 8(a): per-node aggregation message
// counts sorted by node rank, for the centralized scheme and both DATs,
// at N nodes. Ranks are logarithmically sampled as in the paper's
// log-log plot.
func MessageDistribution(cfg LoadBalanceConfig) *Table {
	cfg = cfg.withDefaults()
	space := ident.New(cfg.Bits)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ring, err := chord.NewRing(space, cfg.IDs.IDs(space, cfg.N, rng))
	if err != nil {
		panic(err)
	}
	key := space.HashString(cfg.Key)
	loads := oneRound(ring, key, rng)

	t := &Table{
		ID:    "fig8a",
		Title: "Fig. 8(a): aggregation messages by node rank (n=" + strconv.Itoa(cfg.N) + ")",
		Columns: []string{"rank", "centralized", "centralized-routed",
			"basic", "balanced", "balanced-local"},
	}
	ranked := map[string][]uint64{}
	for name, l := range loads {
		ranked[name] = metrics.RankDistribution(l)
	}
	for _, rank := range logRanks(cfg.N) {
		t.Add(rank,
			ranked["centralized"][rank-1],
			ranked["centralized-routed"][rank-1],
			ranked["basic"][rank-1],
			ranked["balanced"][rank-1],
			ranked["balanced-local"][rank-1])
	}
	t.Note("paper anchors @512: centralized root = 511, basic max ~24, balanced max ~4")
	t.Note("one aggregation round; count = messages received per node")
	return t
}

// Imbalance reproduces Fig. 8(b): the imbalance factor (max/mean
// messages per node) as a function of network size for the three
// schemes. Here "messages" counts messages *processed* (sent plus
// received), the accounting under which the paper's anchor values hold:
// with receive-only counting the mean is ~1 and every scheme's imbalance
// doubles (balanced would read ~4-5, not the reported ~2).
func Imbalance(cfg LoadBalanceConfig) *Table {
	cfg = cfg.withDefaults()
	space := ident.New(cfg.Bits)
	key := space.HashString(cfg.Key)
	t := &Table{
		ID:    "fig8b",
		Title: "Fig. 8(b): imbalance factor (max/avg processed messages) vs network size",
		Columns: []string{"n", "centralized", "centralized-routed",
			"basic", "balanced", "balanced-local"},
	}
	for _, n := range cfg.Sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		ring, err := chord.NewRing(space, cfg.IDs.IDs(space, n, rng))
		if err != nil {
			panic(err)
		}
		root := ring.SuccessorOf(key)
		recvLoads := oneRound(ring, key, rng)
		processed := make(map[string][]uint64, len(recvLoads))
		for name, recv := range recvLoads {
			out := make([]uint64, len(recv))
			for i, id := range ring.IDs() {
				sent := uint64(0)
				if id != root {
					switch name {
					case "centralized-routed":
						// Forwards everything it receives plus its own value.
						sent = recv[i] + 1
					default:
						// One upward message per round (direct send or
						// DAT update).
						sent = 1
					}
				}
				out[i] = recv[i] + sent
			}
			processed[name] = out
		}
		imb := func(name string) float64 { return metrics.Analyze(processed[name]).Imbalance }
		t.Add(n, imb("centralized"), imb("centralized-routed"),
			imb("basic"), imb("balanced"), imb("balanced-local"))
	}
	t.Note("paper: centralized grows ~linearly; basic ~log (4.2@100 -> 8.5@1000); balanced ~constant ~2")
	t.Note("processed = sent + received per node per aggregation round")
	return t
}

// logRanks returns 1, 2, 4, ..., n (clamped) plus n itself.
func logRanks(n int) []int {
	seen := map[int]bool{}
	var out []int
	for r := 1; r <= n; r *= 2 {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	if !seen[n] {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
