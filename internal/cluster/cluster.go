// Package cluster assembles complete simulated deployments of the
// Chord + DAT protocol stack: one sim.Engine, one SimNetwork, and n
// protocol nodes with DAT layers. The experiment harness, SimGrid and
// the protocol-level tests all build on it.
//
// Two start-up modes are supported: protocol joins (every node runs the
// real join + stabilization path — used by churn experiments) and warm
// start (neighbor state seeded from the ideal ring and then maintained by
// the live protocol — used by large-scale measurements of converged
// rings, which is how the paper's §5 numbers are taken).
package cluster

import (
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// IDStrategy selects how node identifiers are placed on the ring. It is
// the one placement type: the simulator, the snapshot topologies, the
// experiments and the tools all place identifiers through IDs.
type IDStrategy int

// Identifier generation strategies (paper §5.2 compares random
// placement against identifier probing).
const (
	// RandomIDs draws identifiers uniformly at random.
	RandomIDs IDStrategy = iota
	// ProbedIDs uses the identifier-probing distribution of Adler et al.
	ProbedIDs
	// EvenIDs spaces identifiers perfectly evenly (the theoretical ideal).
	EvenIDs
)

// String names the strategy for experiment tables.
func (s IDStrategy) String() string {
	switch s {
	case RandomIDs:
		return "random"
	case ProbedIDs:
		return "probed"
	case EvenIDs:
		return "even"
	default:
		return fmt.Sprintf("IDStrategy(%d)", int(s))
	}
}

// IDs returns n distinct identifiers of space placed by the strategy,
// drawing from rng (EvenIDs draws nothing). An unknown strategy places
// at random.
func (s IDStrategy) IDs(space ident.Space, n int, rng *rand.Rand) []ident.ID {
	switch s {
	case EvenIDs:
		return chord.EvenIDs(space, n)
	case ProbedIDs:
		return chord.ProbedIDs(space, n, rng)
	default:
		return chord.RandomIDs(space, n, rng)
	}
}

// Options configures a simulated cluster.
type Options struct {
	// N is the number of nodes. Required.
	N int
	// Bits is the identifier space width. Default 32.
	Bits uint
	// Seed drives all randomness. Default 1.
	Seed int64
	// IDs selects the identifier strategy. Default RandomIDs.
	IDs IDStrategy
	// Scheme selects the DAT parent rule for the live nodes; see
	// core.NodeConfig.Scheme (default Basic).
	Scheme core.Scheme
	// Latency models one-way delay. Default constant 1ms.
	Latency sim.LatencyModel
	// ProtocolJoin runs the real join path for every node instead of
	// warm-starting neighbor state from the ideal ring. Slower at scale;
	// use for churn/convergence studies. Default false (warm start).
	ProtocolJoin bool
	// StabilizeEvery / FixFingersEvery / PingEvery override the chord
	// maintenance cadence; zero keeps chord.Config's default. Long-duration
	// monitoring runs should raise them so maintenance traffic does not
	// dominate the event queue.
	StabilizeEvery  time.Duration
	FixFingersEvery time.Duration
	PingEvery       time.Duration
	// Local supplies node-local samples: it receives the node index, the
	// current virtual time, and the rendezvous key. Nil means no node
	// contributes values.
	Local func(node int, now time.Duration, key ident.ID) (float64, bool)
	// ChildTTLSlots and HoldPerLevel pass through to the DAT layer
	// (HoldPerLevel < 0 disables slot synchronization).
	ChildTTLSlots int
	HoldPerLevel  time.Duration
	// ShareResults passes through to the DAT layer (root broadcasts each
	// completed slot result, cached by the nodes that run the tree).
	ShareResults bool
	// SuccessorListLen passes through to the Chord layer. Default 4.
	SuccessorListLen int
	// Delivery passes the delivery-assurance policy (acked updates,
	// re-sends, failover — DESIGN.md §10) through to the DAT layer. The
	// zero value is the defaults.
	Delivery core.DeliveryConfig
	// Batch passes the send-machine coalescing policy (DESIGN.md §12)
	// through to the DAT layer. The zero value is the defaults;
	// Batch.MaxElems 1 sends one datagram per update.
	Batch core.BatchConfig
	// Overload passes the circuit-breaker policy (DESIGN.md §14) through
	// to the DAT layer. The zero value is armed breakers with the default
	// thresholds.
	Overload core.OverloadConfig
	// Observer wires runtime telemetry through every node: the network
	// tap feeds its message counters, and all chord/core hooks report to
	// its instruments and span ring (DESIGN.md §9). Hooks never schedule
	// events or draw randomness, so attaching one does not perturb the
	// simulation. Optional.
	Observer *obs.Observer
	// SelfMon enables the layer-2 self-monitoring plane (DESIGN.md §13):
	// New starts one dedicated aggregation tree per obs.SelfMonAttrs
	// entry whose node-local samples are each node's own load scalars
	// (DAT[i].Load) — the cluster monitors its own load through its own
	// trees. SelfMon.Slot defaults to 2s; run it slower than the primary
	// slot to bound overhead.
	SelfMon obs.SelfMonConfig
	// Logger receives structured protocol logs from every node. Nil
	// means silent (the usual choice for large runs).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Bits == 0 {
		o.Bits = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Latency == nil {
		o.Latency = sim.ConstantLatency(time.Millisecond)
	}
	if o.SelfMon.Enable && o.SelfMon.Slot <= 0 {
		o.SelfMon.Slot = 2 * time.Second
	}
	return o
}

// Cluster is a running simulated deployment.
type Cluster struct {
	Opts   Options
	Engine *sim.Engine
	Net    *transport.SimNetwork
	Space  ident.Space
	Chord  []*chord.Node
	DAT    []*core.Node

	eps []transport.Endpoint

	// Struct-of-arrays node registry, indexed like Chord/DAT/eps: the
	// identifier and address of every node ever built, surviving crashes
	// and rejoins (both reuse the slot). Large-n paths read these instead
	// of chasing per-node pointers or re-deriving addresses.
	ids   []ident.ID
	addrs []transport.Addr

	// Reusable scratch for the convergence-polling hot path: Ring() and
	// Converged() run once per simulated second while a 10k-node cluster
	// settles, and chord.NewRing copies its input, so one buffer serves
	// every call.
	ringIDs   []ident.ID
	liveNodes []*chord.Node

	// selfMonKeys maps each monitoring tree's rendezvous key back to its
	// attribute; immutable after New.
	selfMonKeys map[ident.ID]string
	// selfMonLatest reads each monitoring tree's root result, by
	// attribute.
	selfMonLatest map[string]func() (int64, core.Aggregate, bool)
}

// New builds a cluster and brings the ring to convergence. It returns an
// error if the overlay fails to converge within a generous simulated-time
// budget.
func New(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	if opts.N <= 0 {
		return nil, fmt.Errorf("cluster: N must be positive")
	}
	eng := sim.NewEngine(opts.Seed)
	net := transport.NewSimNetwork(eng, transport.SimConfig{Latency: opts.Latency})
	space := ident.New(opts.Bits)
	ids := opts.IDs.IDs(space, opts.N, eng.Rand())

	c := &Cluster{
		Opts:   opts,
		Engine: eng,
		Net:    net,
		Space:  space,
	}
	if opts.SelfMon.Enable {
		c.selfMonKeys = make(map[ident.ID]string, len(obs.SelfMonAttrs))
		for _, attr := range obs.SelfMonAttrs {
			c.selfMonKeys[space.HashString(attr)] = attr
		}
	}
	if opts.Observer != nil {
		net.SetTap(opts.Observer.Tap())
	}
	for i := 0; i < opts.N; i++ {
		c.buildNode(transport.Addr(fmt.Sprintf("node/%d", i)), ids[i], i)
	}

	if !opts.ProtocolJoin {
		c.warmStart(ids)
		// Let one maintenance round confirm the seeded state.
		eng.RunFor(2 * c.Chord[0].StabilizeEvery())
	} else {
		c.protocolJoin()
		// Wait until every node has entered the ring before judging
		// convergence, or a half-formed ring of early joiners would pass.
		deadline := eng.Now() + sim.Time(10*time.Minute)
		for !c.allRunning() {
			if eng.Now() >= deadline {
				return nil, fmt.Errorf("cluster: %d/%d nodes joined within budget", c.runningCount(), opts.N)
			}
			eng.RunFor(time.Second)
		}
	}
	if err := c.AwaitConverged(10 * time.Minute); err != nil {
		return nil, err
	}
	if opts.SelfMon.Enable {
		c.selfMonLatest = make(map[string]func() (int64, core.Aggregate, bool), len(obs.SelfMonAttrs))
		for _, attr := range obs.SelfMonAttrs {
			latest, err := c.StartContinuousAll(space.HashString(attr), opts.SelfMon.Slot)
			if err != nil {
				return nil, fmt.Errorf("cluster: start self-monitoring tree %s: %w", attr, err)
			}
			c.selfMonLatest[attr] = latest
		}
		if opts.Observer != nil {
			opts.Observer.SetLoadSummary(c.ClusterLoad)
		}
	}
	return c, nil
}

// newStack constructs one node's endpoint + Chord + DAT layers with the
// cluster-wide configuration (the single source of truth for per-node
// config — New, AddNode and Rejoin all build nodes through it).
func (c *Cluster) newStack(addr transport.Addr, id ident.ID, idx int) (transport.Endpoint, *chord.Node, *core.Node) {
	ep := c.Net.Endpoint(addr)
	logger := c.Opts.Logger
	if logger != nil {
		logger = logger.With("node", string(addr))
	}
	chordCfg := chord.Config{
		Space:            c.Space,
		StabilizeEvery:   c.Opts.StabilizeEvery,
		FixFingersEvery:  c.Opts.FixFingersEvery,
		PingEvery:        c.Opts.PingEvery,
		SuccessorListLen: c.Opts.SuccessorListLen,
		Logger:           logger,
	}
	if c.Opts.Observer != nil {
		chordCfg.Obs = c.Opts.Observer.ChordHooks()
	}
	cn := chord.New(ep, c.Net.Clock(), id, chordCfg)
	var local func(key ident.ID) (float64, bool)
	if c.Opts.Local != nil {
		clk := c.Net.Clock()
		local = func(key ident.ID) (float64, bool) { return c.Opts.Local(idx, clk.Now(), key) }
	}
	var dn *core.Node
	if c.Opts.SelfMon.Enable {
		// The monitoring trees' node-local samples are the node's own
		// load scalars (a Rejoin builds a new node, so they restart at
		// zero); every other key falls through to the experiment's
		// sensor. Counters are read at tick time on the deterministically
		// ordered sim paths, so the published values are a pure function
		// of the seed.
		userLocal := local
		local = func(key ident.ID) (float64, bool) {
			switch c.selfMonKeys[key] {
			case obs.LoadAttrMsgs:
				msgs, _ := dn.Load()
				return float64(msgs), true
			case obs.LoadAttrBytes:
				_, bytes := dn.Load()
				return float64(bytes), true
			}
			if userLocal != nil {
				return userLocal(key)
			}
			return 0, false
		}
	}
	coreCfg := core.NodeConfig{
		Scheme:        c.Opts.Scheme,
		Local:         local,
		ChildTTLSlots: c.Opts.ChildTTLSlots,
		HoldPerLevel:  c.Opts.HoldPerLevel,
		ShareResults:  c.Opts.ShareResults,
		Delivery:      c.Opts.Delivery,
		Batch:         c.Opts.Batch,
		Overload:      c.Opts.Overload,
		Logger:        logger,
	}
	if c.Opts.Observer != nil {
		coreCfg.Obs = c.Opts.Observer.CoreHooks()
	}
	dn = core.NewNode(cn, ep, c.Net.Clock(), coreCfg)
	return ep, cn, dn
}

// buildNode appends a freshly constructed node stack to the cluster's
// parallel registry slices.
func (c *Cluster) buildNode(addr transport.Addr, id ident.ID, idx int) {
	ep, cn, dn := c.newStack(addr, id, idx)
	c.eps = append(c.eps, ep)
	c.Chord = append(c.Chord, cn)
	c.DAT = append(c.DAT, dn)
	c.ids = append(c.ids, id)
	c.addrs = append(c.addrs, addr)
}

func (c *Cluster) runningCount() int {
	count := 0
	for _, n := range c.Chord {
		if n.Running() {
			count++
		}
	}
	return count
}

func (c *Cluster) allRunning() bool { return c.runningCount() == len(c.Chord) }

// warmStart seeds every node's neighbor state from the ideal ring. The
// seeding is batched: one flat finger buffer and one successor scratch
// serve every node (SeedState copies what it keeps), so warm-starting a
// 10k-node ring costs O(1) transient allocations rather than O(n).
func (c *Cluster) warmStart(ids []ident.ID) {
	ring := mustRing(c.Space, ids)
	byID := make(map[ident.ID]chord.NodeRef, len(ids))
	for i, n := range c.Chord {
		byID[ids[i]] = n.Self()
	}
	listLen := c.Opts.SuccessorListLen
	if listLen <= 0 {
		listLen = 4
	}
	fingers := make([]chord.NodeRef, c.Space.Bits())
	succs := make([]chord.NodeRef, 0, listLen)
	for i, n := range c.Chord {
		self := ids[i]
		pred := byID[ring.Pred(self)]
		succs = succs[:0]
		cur := self
		for k := 0; k < listLen && len(ids) > 1; k++ {
			cur = ring.Succ(cur)
			if cur == self {
				break
			}
			succs = append(succs, byID[cur])
		}
		for j := range fingers {
			fingers[j] = byID[ring.Finger(self, uint(j))]
		}
		if len(ids) == 1 {
			pred = chord.NodeRef{}
		}
		n.SeedState(pred, succs, fingers)
	}
}

// joinSpacing is the interval between successive protocol joins.
const joinSpacing = 50 * time.Millisecond

// protocolJoin runs the real join path for every node.
func (c *Cluster) protocolJoin() {
	c.Chord[0].Create()
	boot := c.Chord[0].Self().Addr
	for i := 1; i < len(c.Chord); i++ {
		n := c.Chord[i]
		c.Engine.Schedule(time.Duration(i)*joinSpacing, func() {
			n.Join(boot, func(err error) {
				if err != nil {
					// Re-try once after a stabilization window; transient
					// lookup failures happen while the ring is forming.
					c.Engine.Schedule(time.Second, func() {
						n.Join(boot, func(error) {})
					})
				}
			})
		})
	}
}

// Ring returns the ideal snapshot of the currently running nodes.
func (c *Cluster) Ring() *chord.Ring {
	ids := c.ringIDs[:0]
	for i, n := range c.Chord {
		if n.Running() {
			ids = append(ids, c.ids[i])
		}
	}
	c.ringIDs = ids
	return mustRing(c.Space, ids)
}

func mustRing(space ident.Space, ids []ident.ID) *chord.Ring {
	r, err := chord.NewRing(space, ids)
	if err != nil {
		panic(err)
	}
	return r
}

// AwaitConverged advances simulated time until every running node's
// successor, predecessor and finger table match the ideal ring.
func (c *Cluster) AwaitConverged(limit time.Duration) error {
	deadline := c.Engine.Now() + sim.Time(limit)
	for {
		if c.Converged() {
			return nil
		}
		if c.Engine.Now() >= deadline {
			return fmt.Errorf("cluster: no convergence within %v (now %v)", limit, c.Engine.Now())
		}
		c.Engine.RunFor(time.Second)
	}
}

// Converged reports whether the live overlay matches the ideal ring.
func (c *Cluster) Converged() bool {
	live := c.liveNodes[:0]
	for _, n := range c.Chord {
		if n.Running() {
			live = append(live, n)
		}
	}
	c.liveNodes = live
	if len(live) == 0 {
		return false
	}
	ring := c.Ring()
	for _, n := range live {
		rt := n.Routing()
		self := rt.Self.ID
		if len(live) == 1 {
			if rt.Successor().Addr != rt.Self.Addr {
				return false
			}
			continue
		}
		if rt.Successor().ID != ring.Succ(self) {
			return false
		}
		if p := rt.Pred; p.IsZero() || p.ID != ring.Pred(self) {
			return false
		}
		for j, f := range rt.Fingers {
			if f.IsZero() || f.ID != ring.Finger(self, uint(j)) {
				return false
			}
		}
	}
	return true
}

// RunFor advances the simulation.
func (c *Cluster) RunFor(d time.Duration) { c.Engine.RunFor(d) }

// Endpoint returns node i's transport endpoint (shared by its Chord and
// DAT layers; additional layers like MAAN send through it too).
func (c *Cluster) Endpoint(i int) transport.Endpoint { return c.eps[i] }

// Addrs returns a copy of every node's transport address, indexed like
// Chord/DAT.
func (c *Cluster) Addrs() []transport.Addr {
	out := make([]transport.Addr, len(c.addrs))
	copy(out, c.addrs)
	return out
}

// NodeAddr returns node i's transport address from the registry, without
// touching the endpoint.
func (c *Cluster) NodeAddr(i int) transport.Addr { return c.addrs[i] }

// NodeID returns node i's ring identifier from the registry. It is valid
// even while the node is crashed (Rejoin reuses it).
func (c *Cluster) NodeID(i int) ident.ID { return c.ids[i] }

// AddNode creates a fresh node with the given identifier and joins it to
// the ring through the protocol (never warm-started: joining nodes are
// what churn experiments measure). It returns the new node's index.
func (c *Cluster) AddNode(id ident.ID) int {
	i := len(c.Chord)
	c.buildNode(transport.Addr(fmt.Sprintf("node/%d", i)), id, i)
	cn := c.Chord[i]

	// Bootstrap through any live node, retrying a few times: a join can
	// transiently fail while the ring digests other churn.
	var boot transport.Addr
	for j, n := range c.Chord[:i] {
		if n.Running() {
			boot = c.eps[j].Addr()
			break
		}
	}
	if boot != "" {
		attempts := 0
		var try func()
		try = func() {
			attempts++
			cn.Join(boot, func(err error) {
				if err != nil && attempts < 5 {
					c.Engine.Schedule(time.Second, try)
				}
			})
		}
		try()
	}
	return i
}

// Rejoin brings a crashed or departed node back under its old identifier
// and address, with completely fresh protocol state — the real recovery
// path, not a warm start. The new node replaces index i and joins through
// any live node with the same retry policy as AddNode. Rejoining a node
// that is still running panics: that is a scenario-scheduling bug.
func (c *Cluster) Rejoin(i int) {
	old := c.Chord[i]
	if old.Running() {
		panic(fmt.Sprintf("cluster: Rejoin(%d) while node is still running", i))
	}
	id := old.Self().ID
	addr := old.Self().Addr
	ep, cn, dn := c.newStack(addr, id, i)
	c.eps[i] = ep
	c.Chord[i] = cn
	c.DAT[i] = dn

	var boot transport.Addr
	for j, n := range c.Chord {
		if j != i && n.Running() {
			boot = c.eps[j].Addr()
			break
		}
	}
	if boot == "" {
		cn.Create()
		return
	}
	attempts := 0
	var try func()
	try = func() {
		attempts++
		cn.Join(boot, func(err error) {
			if err != nil && attempts < 5 {
				c.Engine.Schedule(time.Second, try)
			}
		})
	}
	try()
}

// Crash fails node i without warning: maintenance stops, the endpoint
// goes silent and the DAT node's timers stop. The endpoint closes before
// the DAT node so the drain of its send machine fails locally — no
// datagram leaves a crashed node.
func (c *Cluster) Crash(i int) {
	c.Chord[i].Stop(false)
	_ = c.eps[i].Close()
	c.DAT[i].Close()
}

// Leave departs node i gracefully.
func (c *Cluster) Leave(i int) {
	c.DAT[i].Close() // flush the send machine before the endpoint goes
	c.Chord[i].Stop(true)
	_ = c.eps[i].Close()
}

// StartContinuousAll starts continuous aggregation for key on every
// running node and returns a function that reads the latest root result.
func (c *Cluster) StartContinuousAll(key ident.ID, slot time.Duration) (latest func() (int64, core.Aggregate, bool), err error) {
	for i, d := range c.DAT {
		if !c.Chord[i].Running() {
			continue
		}
		if err := d.StartContinuous(key, slot, nil); err != nil {
			return nil, err
		}
	}
	return func() (int64, core.Aggregate, bool) {
		root := c.Ring().SuccessorOf(key)
		for i, n := range c.Chord {
			if n.Running() && n.Self().ID == root {
				return c.DAT[i].LastResult(key)
			}
		}
		return 0, core.Aggregate{}, false
	}, nil
}

// SelfMonKey returns the rendezvous key of the self-monitoring tree for
// attr (obs.LoadAttrMsgs / obs.LoadAttrBytes).
func (c *Cluster) SelfMonKey(attr string) ident.ID { return c.Space.HashString(attr) }

// SelfMonLatest reads the latest root aggregate of attr's monitoring
// tree. ok is false when self-monitoring is off or no round completed.
func (c *Cluster) SelfMonLatest(attr string) (int64, core.Aggregate, bool) {
	latest := c.selfMonLatest[attr]
	if latest == nil {
		return 0, core.Aggregate{}, false
	}
	return latest()
}

// ClusterLoad answers "cluster max/avg/sum node load" from the
// dat.load.msgs monitoring tree — the DAT monitoring itself, one root
// read instead of n scrapes. The summary carries the live imbalance
// factor (max/mean, the paper's fig. 8 metric) and the coverage the
// round achieved.
func (c *Cluster) ClusterLoad() (obs.LoadSummary, bool) {
	slot, agg, ok := c.SelfMonLatest(obs.LoadAttrMsgs)
	if !ok || agg.Count == 0 {
		return obs.LoadSummary{}, false
	}
	return obs.NewLoadSummary(slot, agg.Count, agg.Sum, agg.Min, agg.Max, agg.Coverage, agg.Degraded), true
}

// KickSelfMon enrolls every running node in the self-monitoring trees,
// skipping nodes where the key is already active. The call matters after
// churn: rejoined nodes hold fresh protocol state and would otherwise
// only relay (never contribute) until enrolled.
func (c *Cluster) KickSelfMon() error {
	if !c.Opts.SelfMon.Enable {
		return nil
	}
	for _, attr := range obs.SelfMonAttrs {
		key := c.Space.HashString(attr)
		for i, d := range c.DAT {
			if !c.Chord[i].Running() || d.Active(key) {
				continue
			}
			if err := d.StartContinuous(key, c.Opts.SelfMon.Slot, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
