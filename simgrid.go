package dat

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
)

// SimGridConfig configures a simulated Grid deployment.
type SimGridConfig struct {
	// N is the number of nodes. Required.
	N int
	// Bits is the identifier-space width. Default 32.
	Bits uint
	// Seed drives all randomness; equal seeds give identical runs.
	// Default 1.
	Seed int64
	// IDs selects identifier placement. Default RandomIDs.
	IDs IDStrategy
	// Scheme selects the DAT parent rule; see core.NodeConfig.Scheme
	// (default Basic).
	Scheme Scheme
	// Sensor supplies node-local samples: node index, virtual time, and
	// the monitored attribute name. Nil means no node contributes.
	Sensor func(node int, now time.Duration, attr string) (float64, bool)
	// LatencyMedian sets a log-normal one-way delay; zero means a
	// constant 1ms.
	LatencyMedian time.Duration
	// ProtocolJoin runs the real join path for every node instead of
	// warm-starting from the converged ring. Slower; use for churn
	// studies.
	ProtocolJoin bool
	// MaintenanceEvery scales the overlay maintenance cadence
	// (stabilize = half of it, finger repair = it, ping = twice it).
	// Long-slot monitoring runs should set it near the slot duration so
	// maintenance does not dominate the event queue. Default 300ms-ish
	// LAN cadence.
	MaintenanceEvery time.Duration
	// Batch tunes the send machine coalescing same-parent updates into
	// single datagrams. The zero value is the defaults; Batch.MaxElems 1
	// is the one-datagram-per-update ablation.
	Batch BatchConfig
	// Overload configures the per-peer circuit breakers (DESIGN.md §14).
	// The zero value is armed breakers with the default thresholds.
	Overload OverloadConfig
	// SelfMon enables the self-monitoring plane (DESIGN.md §13): every
	// node accounts its per-tree load and dedicated dat.load.* trees
	// aggregate the counters, so ClusterLoad reports the live imbalance
	// factor without external measurement.
	SelfMon SelfMonConfig
}

// SimGrid is a complete simulated deployment of the protocol stack: n
// live Chord+DAT nodes over a deterministic discrete event simulator.
type SimGrid struct {
	cfg     SimGridConfig
	c       *cluster.Cluster
	attrs   map[ident.ID]string // rendezvous key -> attribute name
	latests map[string]func() (int64, core.Aggregate, bool)
}

// NewSimGrid builds the deployment and waits (in virtual time) for the
// overlay to converge.
func NewSimGrid(cfg SimGridConfig) (*SimGrid, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dat: SimGridConfig.N must be positive")
	}
	g := &SimGrid{
		cfg:     cfg,
		attrs:   make(map[ident.ID]string),
		latests: make(map[string]func() (int64, core.Aggregate, bool)),
	}
	opts := cluster.Options{
		N:            cfg.N,
		Bits:         cfg.Bits,
		Seed:         cfg.Seed,
		IDs:          cfg.IDs,
		Scheme:       cfg.Scheme,
		ProtocolJoin: cfg.ProtocolJoin,
		Batch:        cfg.Batch,
		Overload:     cfg.Overload,
		SelfMon:      cfg.SelfMon,
	}
	if cfg.MaintenanceEvery > 0 {
		opts.StabilizeEvery = cfg.MaintenanceEvery / 2
		opts.FixFingersEvery = cfg.MaintenanceEvery
		opts.PingEvery = 2 * cfg.MaintenanceEvery
	}
	if cfg.LatencyMedian > 0 {
		opts.Latency = sim.LogNormalLatency{
			Median: cfg.LatencyMedian, Sigma: 0.4,
			Floor: time.Millisecond / 10, Ceil: time.Second,
		}
		// Keep ack timeouts above the latency ceiling's round trip so
		// slow-but-live parents are not mistaken for dead ones.
		opts.Delivery.AckTimeout = 2500 * time.Millisecond
	}
	if cfg.Sensor != nil {
		opts.Local = func(node int, now time.Duration, key ident.ID) (float64, bool) {
			attr, ok := g.attrs[key]
			if !ok {
				return 0, false
			}
			return cfg.Sensor(node, now, attr)
		}
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	g.c = c
	return g, nil
}

// N returns the number of live nodes.
func (g *SimGrid) N() int {
	count := 0
	for _, n := range g.c.Chord {
		if n.Running() {
			count++
		}
	}
	return count
}

// Now returns the current virtual time.
func (g *SimGrid) Now() time.Duration { return time.Duration(g.c.Engine.Now()) }

// Run advances the simulation by d of virtual time.
func (g *SimGrid) Run(d time.Duration) { g.c.RunFor(d) }

// Monitor starts continuous aggregation of attr on every node and
// returns a function reading the latest root result.
func (g *SimGrid) Monitor(attr string, slot time.Duration) (latest func() (slot int64, agg Aggregate, ok bool), err error) {
	key := g.c.Space.HashString(attr)
	g.attrs[key] = attr
	l, err := g.c.StartContinuousAll(key, slot)
	if err != nil {
		return nil, err
	}
	g.latests[attr] = l
	return l, nil
}

// Query performs an on-demand aggregation of attr from the given node,
// driving the simulation until the answer arrives (or the budget runs
// out).
func (g *SimGrid) Query(fromNode int, attr string, window time.Duration) (Aggregate, error) {
	key := g.c.Space.HashString(attr)
	g.attrs[key] = attr
	var out Aggregate
	var qerr error
	done := false
	g.c.DAT[fromNode].Query(key, window, func(r core.QueryResp, err error) {
		out, qerr, done = r.Agg, err, true
	})
	deadline := g.Now() + 4*window + 10*time.Second
	for !done && g.Now() < deadline {
		g.Run(100 * time.Millisecond)
	}
	if !done {
		return Aggregate{}, fmt.Errorf("dat: query %q did not complete", attr)
	}
	return out, qerr
}

// ClusterLoad returns the latest cluster-wide load summary from the
// dat.load.msgs self-monitoring tree (SimGridConfig.SelfMon): per-node
// load statistics and the live imbalance factor. ok is false until the
// first monitoring round completes.
func (g *SimGrid) ClusterLoad() (LoadSummary, bool) { return g.c.ClusterLoad() }

// Tree returns the DAT snapshot the live nodes currently imply for attr.
func (g *SimGrid) Tree(attr string, scheme Scheme) *Tree {
	return core.Build(g.c.Ring(), g.c.Space.HashString(attr), scheme)
}

// Crash fails node i without warning.
func (g *SimGrid) Crash(i int) { g.c.Crash(i) }

// Leave departs node i gracefully.
func (g *SimGrid) Leave(i int) { g.c.Leave(i) }

// Join adds a fresh node with a random identifier via the protocol join
// path and returns its index.
func (g *SimGrid) Join() int {
	var id ident.ID
	for {
		id = g.c.Space.Wrap(g.c.Engine.Rand().Uint64())
		if !g.c.Ring().Contains(id) {
			break
		}
	}
	return g.c.AddNode(id)
}
