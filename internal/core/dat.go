package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DAT message types. The "dat." prefix lets metrics taps isolate
// aggregation traffic from Chord maintenance traffic. MsgUpdate and
// MsgDetach name the two kinds of element a MsgBatch (sendmachine.go)
// carries — no datagram travels under either: they label TreeSent's
// per-element accounting.
const (
	// MsgUpdate carries a subtree aggregate from a child to its parent.
	MsgUpdate = "dat.update"
	// MsgDetach tells a former parent to drop the sender's cached
	// subtree aggregate immediately (sent on parent switch, so the
	// subtree is not double-counted through both parents until the TTL
	// expires).
	MsgDetach = "dat.detach"
	// MsgQuery asks the root of a DAT for an on-demand aggregate.
	MsgQuery = "dat.query"
	// CollectType is the broadcast payload type that triggers an
	// on-demand collection epoch.
	CollectType = "dat.collect"
	// ResultType is the broadcast payload type carrying a root's
	// completed slot result down to every node (opt-in, see
	// NodeConfig.ShareResults).
	ResultType = "dat.result"
)

// DetachMsg asks the receiver to forget the sender as a child of the
// given tree.
type DetachMsg struct {
	Key    ident.ID
	Sender chord.NodeRef
}

// UpdateMsg is the child-to-parent aggregation message.
type UpdateMsg struct {
	Key    ident.ID
	Epoch  int64 // continuous: slot index; on-demand: collection epoch
	Agg    Aggregate
	Nodes  uint64 // number of distinct contributors folded in (diagnostic)
	Height int    // sender's subtree height (drives slot synchronization)
	Slot   int64  // slot duration in nanoseconds (lets relay nodes enroll)
	Sender chord.NodeRef
	Demand bool // true for on-demand collection traffic

	// Trace is the aggregation-round trace ID (obs.RoundTrace of the
	// key/epoch pair): every update in one round carries the same value,
	// so a leaf's contribution can be followed hop by hop to the root.
	Trace uint64
	// SentAt is the sender's clock reading (nanoseconds) at send time;
	// the receiver pairs it with its own delivery time in the hop span.
	SentAt int64

	// Seq orders a sender's on-demand flushes within one epoch so acked
	// retries whose ack (not request) was lost are not double-folded.
	// Zero on continuous updates, which are idempotent cache overwrites.
	Seq uint64
	// Handover marks an update redirected around an unreachable root:
	// the receiver assumes rootship for Key until the overlay catches up
	// (DESIGN.md §10).
	Handover bool
	// FailedRoot is the unreachable root's address on a handover update,
	// for the receiver's debug log: hearsay, it strikes nobody.
	FailedRoot transport.Addr
}

// QueryReq asks the receiving node (the DAT root) to run an on-demand
// aggregation and reply with the result.
type QueryReq struct {
	Key    ident.ID
	Window time.Duration // how long the root collects before answering
}

// QueryResp is the root's answer.
type QueryResp struct {
	Key   ident.ID
	Epoch int64
	Agg   Aggregate
	// Nodes is the number of distinct contributors folded into Agg.
	Nodes uint64
	// Coverage is Nodes over the root's network-size estimate, clamped
	// to [0,1] — the graceful-degradation signal: how much of the ring
	// this answer is believed to represent.
	Coverage float64
	// Degraded reports that some contribution travelled a repaired path
	// (parent failover or root handover) this epoch.
	Degraded bool
}

// collectMsg is the broadcast payload starting an on-demand epoch.
type collectMsg struct {
	Key   ident.ID
	Epoch int64
	Root  chord.NodeRef
}

// resultMsg is the broadcast payload disseminating a completed slot
// result.
type resultMsg struct {
	Key  ident.ID
	Slot int64
	Agg  Aggregate
}

// NodeConfig parameterizes a DAT node.
type NodeConfig struct {
	// Scheme selects parent selection: Basic or BalancedLocal. The zero
	// value is Basic, plain greedy finger routes; every layer that passes
	// a Scheme through (cluster, SimGrid, Peer) keeps this default. The
	// live protocol cannot use root-exact Balanced without a lookup per
	// tree, so Balanced runs as BalancedLocal, Algorithm 1 as published.
	Scheme Scheme
	// Local supplies this node's sample for a rendezvous key; return
	// ok=false if this node monitors nothing under that key. The slot tick
	// calls it — on the clock's timer loop, under the node's lock: it must
	// return promptly and not call back into the node.
	Local func(key ident.ID) (value float64, ok bool)
	// ChildTTLSlots is how many continuous slots a cached child aggregate
	// survives without refresh before being dropped (handles churn and
	// tree reshuffling). Default 3.
	ChildTTLSlots int
	// ShareResults makes the root broadcast each completed slot result
	// over the ring (n-1 messages per slot), so every node's LastResult
	// serves the freshest global value locally — the consumer-layer
	// dissemination pattern of SOMO/Willow the paper cites. Off by
	// default: it doubles per-slot traffic.
	ShareResults bool
	// HoldPerLevel is the paper's aggregation synchronization (§4): a
	// node at subtree height h sends its slot update h*HoldPerLevel after
	// the slot boundary, so children (lower h) report first and parents
	// fold fresh slot-t values rather than last-slot caches. Must exceed
	// the typical one-way latency. Default 10ms; negative disables the
	// staggering entirely (ablation: parents then relay cached values one
	// slot behind their children).
	HoldPerLevel time.Duration
	// Delivery tunes the delivery-assurance layer every update goes
	// through: acked sends with backoff, in-slot parent failover,
	// root handover (DESIGN.md §10). The zero value is the defaults.
	Delivery DeliveryConfig
	// Batch tunes the send machine coalescing acked updates/detaches
	// bound for the same parent into single datagrams (DESIGN.md §12).
	// The zero value is the defaults; MaxElems 1 sends one datagram per
	// message.
	Batch BatchConfig
	// Overload holds the avoid-as-DAT-parent thresholds every delivery
	// attempt is checked against (DESIGN.md §10). The zero value is the
	// defaults.
	Overload OverloadConfig
	// Obs receives aggregation telemetry: per-hop spans, round latency
	// and fan-in, update dispositions, cache expiry. The zero value
	// disables instrumentation (DESIGN.md §9).
	Obs obs.CoreHooks
	// Logger receives structured protocol logs. Nil means silent.
	Logger *slog.Logger
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Scheme == Balanced {
		// Root-exact selection needs a lookup per tree; the protocol uses
		// the local rule, which is what the paper's prototype runs.
		c.Scheme = BalancedLocal
	}
	if c.ChildTTLSlots <= 0 {
		c.ChildTTLSlots = 3
	}
	if c.HoldPerLevel == 0 {
		c.HoldPerLevel = 10 * time.Millisecond
	} else if c.HoldPerLevel < 0 {
		c.HoldPerLevel = 0 // synchronization disabled
	}
	c.Delivery = c.Delivery.withDefaults()
	c.Batch = c.Batch.withDefaults()
	c.Overload = c.Overload.withDefaults()
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// ErrNoLocalValue is returned by on-demand queries that found nothing.
var ErrNoLocalValue = errors.New("core: no values collected")

// epochCounter disambiguates on-demand epochs started within the same
// clock tick.
var epochCounter atomic.Uint64

// Node is the DAT layer of one process: it keeps the aggregation table
// (one entry per active rendezvous key, §4 Fig. 6), computes its parent
// per tree from the Chord node's live finger table, and implements both
// continuous and on-demand aggregation modes.
type Node struct {
	ch    *chord.Node
	ep    transport.Endpoint
	clock transport.Clock
	cfg   NodeConfig
	sm    *sendMachine

	// The node's own load, the two scalars the dat.load.* trees publish
	// (DESIGN.md §13): updates sent plus child updates accepted, and
	// estimated bytes sent. Bumped where the load arrives, outside every
	// lock; Load reads them.
	loadMsgs  atomic.Uint64
	loadBytes atomic.Uint64

	mu     sync.Mutex
	aggs   map[ident.ID]*aggEntry
	closed bool // set by Close: no slot timer is armed afterwards
}

// parentMemo is parentFrom's no-exclusion answer under routing version
// ver; the zero ver names no view.
type parentMemo struct {
	ver uint64
	pc  parentChoice
}

type childState struct {
	agg    Aggregate
	nodes  uint64
	height int
	seen   time.Duration // clock time of last refresh
}

// aggEntry is one row of the aggregation table, the TimerTask of its
// own slot tick, and the home of the one acked update its tree can have
// pending: a steady slot allocates no closure, timer or delivery.
type aggEntry struct {
	n   *Node
	key ident.ID

	// Continuous mode.
	slotDur    time.Duration
	onResult   func(slot int64, agg Aggregate)
	timer      transport.Timer // the armed slot tick
	children   map[transport.Addr]childState
	height     int            // subtree height: 0 for leaves, 1+max(child heights)
	lastParent transport.Addr // previous slot's parent, to detach on switch
	lastAgg    Aggregate
	lastSlot   int64
	haveLast   bool

	memo parentMemo // this tree's parent under the current routing view

	// Delivery-assurance state: the key's acked update (a new slot's
	// supersedes it in place), the monotone on-demand flush sequence, and
	// — after receiving a handover update — the deadline until which this
	// node acts as the key's root even though its own tables say otherwise
	// (the old root is dead; the ring has not elected us yet).
	deliv           delivery
	demandSeq       uint64
	forcedRootUntil time.Duration

	// On-demand epochs in flight at this node.
	epochs map[int64]*epochState
}

// epochState is one on-demand epoch at this node and the TimerTask of
// its one timer: a relay's flush debounce, or the root's collection
// window.
type epochState struct {
	e     *aggEntry
	epoch int64

	pending Aggregate
	nodes   uint64
	// applied records the highest Seq folded per sender, so an acked
	// retry whose previous attempt actually arrived (the ack, not the
	// request, was lost) is not double-counted.
	applied map[transport.Addr]uint64
	// flush is a relay's debounced flush (a fired handle is inert): each
	// arriving contribution re-arms it, so a node flushes only after its
	// inflow quiets down — leaves flush first, parents consolidate whole
	// subtrees into one upward message.
	flush transport.Timer
	// isRoot marks the root's collection, which answers req when the
	// query window closes.
	isRoot bool
	req    *transport.Request
}

// epochLocked returns epoch's state in e, adding an empty relay bucket
// if it has none. Caller holds n.mu.
func (e *aggEntry) epochLocked(epoch int64) *epochState {
	es := e.epochs[epoch]
	if es == nil {
		es = &epochState{e: e, epoch: epoch}
		e.epochs[epoch] = es
	}
	return es
}

// RunEvent implements transport.TimerTask: a relay's inflow has quieted,
// so its bucket goes one level up; or the root's window has closed, so
// the epoch ends and the query is answered.
func (es *epochState) RunEvent(int32) {
	e, n := es.e, es.e.n
	if !es.isRoot {
		n.flushDemand(e.key, es.epoch)
		return
	}
	est := n.ch.EstimatedNetworkSize()
	n.mu.Lock()
	delete(e.epochs, es.epoch)
	est = e.clampEstimateLocked(est)
	agg, nodes := es.pending, es.nodes
	n.mu.Unlock()
	if agg.Count == 0 {
		es.req.ReplyError(ErrNoLocalValue)
		return
	}
	es.req.Reply(QueryResp{
		Key: e.key, Epoch: es.epoch, Agg: agg, Nodes: nodes,
		Coverage: coverage(nodes, est),
		Degraded: agg.Degraded,
	})
}

// NewNode attaches a DAT layer to a Chord node. It registers the DAT
// message handlers and the collect broadcast upcall on the Chord node.
func NewNode(ch *chord.Node, ep transport.Endpoint, clock transport.Clock, cfg NodeConfig) *Node {
	n := &Node{
		ch:    ch,
		ep:    ep,
		clock: clock,
		cfg:   cfg.withDefaults(),
		aggs:  make(map[ident.ID]*aggEntry),
	}
	n.sm = newSendMachine(n, n.cfg.Batch)
	ch.Handle(MsgBatch, n.handleBatch)
	ch.Handle(MsgQuery, n.handleQuery)
	ch.OnBroadcast(CollectType, n.handleCollect)
	ch.OnBroadcast(ResultType, n.handleResultBroadcast)
	return n
}

// Close stops every tree (slot timers and pending deliveries, as
// StopContinuous does per key) and then drains the send machine,
// flushing any queued updates and stopping its deadline timers. No tick
// starts after Close, and a tick already running surfaces no result
// once it sees the node closed; only an onResult call already underway
// may finish after Close returns. Safe to call more than once.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	for _, key := range n.ActiveKeys() {
		n.StopContinuous(key)
	}
	n.sm.Close()
}

// Load returns this node's own load: msgs is value updates put on the
// wire plus child updates accepted (the paper's fig. 8 per-node figure),
// bytes the estimated payload bytes sent. Both are monotone.
func (n *Node) Load() (msgs, bytes uint64) { return n.loadMsgs.Load(), n.loadBytes.Load() }

// Chord returns the underlying overlay node.
func (n *Node) Chord() *chord.Node { return n.ch }

// Scheme returns the parent-selection scheme in use.
func (n *Node) Scheme() Scheme { return n.cfg.Scheme }

// ParentFor computes this node's current DAT parent for a rendezvous key
// from live overlay state. isRoot is true when this node believes it is
// successor(key). ok is false when the node cannot yet decide (e.g. its
// predecessor is unknown right after joining): callers should skip this
// round and retry after stabilization.
func (n *Node) ParentFor(key ident.ID) (parent chord.NodeRef, isRoot, ok bool) {
	rt := n.ch.Routing()
	n.mu.Lock()
	pc := n.parentLocked(n.aggs[key], key, rt)
	n.mu.Unlock()
	return pc.parent, pc.isRoot, pc.ok
}

// parentLocked is parentFrom(rt, key, nil) through the memo of key's
// entry e; a key this node runs no tree for (e nil) is computed afresh.
// The parent is a pure function of the routing view and two views with
// one Version are equal, so while the ring is quiet every tick, update
// guard and flush of a tree reuses one answer, and a routing change
// costs one recomputation per tree. Caller holds n.mu; rt was read
// before taking it (a view a concurrent caller finds stale just misses
// the memo).
func (n *Node) parentLocked(e *aggEntry, key ident.ID, rt *chord.Routing) parentChoice {
	if e == nil {
		return parentFrom(rt, n.cfg.Scheme, key, nil)
	}
	if m := &e.memo; m.ver != rt.Version {
		m.pc = parentFrom(rt, n.cfg.Scheme, key, nil)
		m.ver = rt.Version
	}
	return e.memo.pc
}

// --- continuous mode ---

// StartContinuous begins continuous aggregation for key with the given
// slot duration. Every ring member participates by calling this with the
// same key and slot duration; whichever node currently owns the key acts
// as root and receives onResult once per slot (onResult may be nil on
// non-root nodes — it fires only if this node is the root). Returns an
// error if the key is already active.
//
// onResult runs on the clock's timer loop (DESIGN.md §17), live as in
// the simulator: while it runs none of the node's other timers fire, so
// it must not block — hand long work to another goroutine.
//
// Slot synchronization (§4): sends are staggered by subtree height —
// leaves report right after the slot boundary, a node of height h waits
// h*HoldPerLevel so its children's slot-t values arrive before it sends
// its own. The root therefore surfaces slot t's data within
// O(height * HoldPerLevel) of the boundary, not with an O(height)-slot
// lag.
func (n *Node) StartContinuous(key ident.ID, slot time.Duration, onResult func(slot int64, agg Aggregate)) error {
	if slot <= 0 {
		return fmt.Errorf("core: non-positive slot duration %v", slot)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("core: node closed")
	}
	if _, exists := n.aggs[key]; exists {
		n.mu.Unlock()
		return fmt.Errorf("core: aggregate %v already active", key)
	}
	e := n.entryLocked(key)
	e.slotDur, e.onResult = slot, onResult
	n.mu.Unlock()
	n.scheduleTick(e)
	return nil
}

// entryLocked returns key's table entry, adding an empty one if it has
// none. Caller holds n.mu.
func (n *Node) entryLocked(key ident.ID) *aggEntry {
	e := n.aggs[key]
	if e == nil {
		e = &aggEntry{
			n:        n,
			key:      key,
			children: make(map[transport.Addr]childState),
			epochs:   make(map[int64]*epochState),
		}
		e.deliv.n, e.deliv.e, e.deliv.key = n, e, key
		n.aggs[key] = e
	}
	return e
}

// scheduleTick arms the next continuous send: at the next slot boundary
// plus the height-proportional hold.
func (n *Node) scheduleTick(e *aggEntry) {
	n.mu.Lock()
	if n.closed || n.aggs[e.key] != e { // stopped
		n.mu.Unlock()
		return
	}
	now := n.clock.Now()
	nextBoundary := (now/e.slotDur + 1) * e.slotDur
	hold := time.Duration(e.height) * n.cfg.HoldPerLevel
	e.timer = n.clock.AfterRun(nextBoundary+hold-now, e, 0)
	n.mu.Unlock()
}

// RunEvent implements transport.TimerTask: tick, then arm the next.
func (e *aggEntry) RunEvent(int32) {
	e.n.tickContinuous(e.key)
	e.n.scheduleTick(e)
}

// StopContinuous removes the aggregation table entry for key.
func (n *Node) StopContinuous(key ident.ID) {
	n.mu.Lock()
	e := n.aggs[key]
	if e == nil {
		n.mu.Unlock()
		return
	}
	delete(n.aggs, key)
	tick := e.timer
	n.mu.Unlock()
	e.deliv.cancel()
	tick.Stop()
}

// Active reports whether continuous aggregation for key is running on
// this node. Re-kick paths (cluster.KickSelfMon, harness rejoins) use it
// to make enrollment idempotent: StartContinuous rejects a key that is
// already active.
func (n *Node) Active(key ident.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.aggs[key]
	return ok
}

// LastResult returns the most recent root-computed aggregate for key, if
// this node has acted as the key's root.
func (n *Node) LastResult(key ident.ID) (slot int64, agg Aggregate, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.aggs[key]
	if e == nil || !e.haveLast {
		return 0, Aggregate{}, false
	}
	return e.lastSlot, e.lastAgg, true
}

// ChildInfo is an observer's view of one cached child subtree in a
// continuous aggregation, for invariant checking by test harnesses.
type ChildInfo struct {
	Addr   transport.Addr
	Nodes  uint64
	Height int
	Seen   time.Duration
}

// ChildrenInfo returns the child-subtree cache for key, sorted by address
// so output derived from it is deterministic. It returns nil when the key
// has no continuous aggregation on this node.
func (n *Node) ChildrenInfo(key ident.ID) []ChildInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.aggs[key]
	if e == nil || len(e.children) == 0 {
		return nil
	}
	out := make([]ChildInfo, 0, len(e.children))
	for addr, cs := range e.children {
		out = append(out, ChildInfo{Addr: addr, Nodes: cs.nodes, Height: cs.height, Seen: cs.seen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// tickContinuous runs once per slot (at boundary + height*hold): fold the
// local sample with the child subtree aggregates received this slot and
// push the result to the parent (or surface it if this node is the root).
func (n *Node) tickContinuous(key ident.ID) {
	rt := n.ch.Routing()
	n.mu.Lock()
	e := n.aggs[key]
	if e == nil {
		n.mu.Unlock()
		return
	}
	pc := n.parentLocked(e, key, rt)
	now := n.clock.Now()
	slot := int64(now / e.slotDur) // the boundary we are reporting for
	ttl := time.Duration(n.cfg.ChildTTLSlots) * e.slotDur

	var agg Aggregate
	var nodes uint64
	if n.cfg.Local != nil {
		if v, ok := n.cfg.Local(key); ok {
			agg.AddSample(v)
			nodes++
		}
	}
	height, fanIn, expired := 0, 0, 0
	for addr, cs := range e.children {
		if now-cs.seen > ttl {
			delete(e.children, addr) // stale child: departed or re-parented
			expired++
			continue
		}
		agg.Merge(cs.agg)
		nodes += cs.nodes
		fanIn++
		if cs.height+1 > height {
			height = cs.height + 1
		}
	}
	e.height = height
	slotDur := e.slotDur
	parent, isRoot, self := pc.parent, pc.isRoot, rt.Self
	// Root-handover bridge: a node that received a handover update acts
	// as the key's root until the ring elects a real successor(key) (or
	// the window lapses), even though its own tables still point at the
	// dead root's neighborhood.
	forced := pc.ok && !isRoot && now < e.forcedRootUntil
	isRoot = isRoot || forced
	var oldParent transport.Addr
	if pc.ok {
		oldParent = e.lastParent
		e.lastParent = parent.Addr
		if isRoot {
			e.lastParent = ""
		}
	}
	n.mu.Unlock()

	if expired > 0 {
		if h := n.cfg.Obs.ChildExpired; h != nil {
			h(expired)
		}
	}

	if !pc.ok {
		return // overlay not settled; try next slot
	}

	// roundDone reports this node's part of the round: latency is
	// measured from the slot boundary being reported to now on the
	// node's clock (the height-proportional hold plus scheduling drift).
	roundDone := func(root bool) {
		if h := n.cfg.Obs.RoundDone; h != nil {
			h(key, slot, root, fanIn, nodes, now-time.Duration(slot)*slotDur)
		}
	}

	// On a parent switch, detach from the former parent so the subtree is
	// not double-counted through two paths until the cache TTL expires,
	// which is also all a missed detach costs: nobody waits for it.
	if oldParent != "" && (isRoot || oldParent != parent.Addr) {
		n.sm.enqueue(oldParent, &BatchElem{Kind: batchKindDetach, Detach: DetachMsg{Key: key, Sender: self}}, sinkRef{})
		if !isRoot {
			n.debug("switched aggregation parent", key, "old", oldParent, "new", parent.Addr)
		}
	}

	if isRoot {
		if forced {
			agg.Degraded = true // serving in the dead root's stead
		}
		n.mu.Lock()
		if n.closed || n.aggs[key] != e { // stopped while this tick ran: surface nothing
			n.mu.Unlock()
			return
		}
		agg.Coverage = coverage(nodes, e.clampEstimateLocked(rt.EstimatedNetworkSize()))
		e.lastAgg, e.lastSlot, e.haveLast = agg, slot, true
		cb := e.onResult
		n.mu.Unlock()
		roundDone(true)
		if cb != nil {
			cb(slot, agg)
		}
		if n.cfg.ShareResults {
			if payload, err := wire.EncodePayload(resultMsg{Key: key, Slot: slot, Agg: agg}); err == nil {
				n.ch.Broadcast(ResultType, payload)
			}
		}
		return
	}
	roundDone(false)
	um := UpdateMsg{
		Key: key, Epoch: slot, Agg: agg, Nodes: nodes, Height: height,
		Slot: int64(slotDur), Sender: self,
		Trace: obs.RoundTrace(key, slot, false), SentAt: int64(n.clock.Now()),
	}
	n.deliverUpdate(e, parent, pc.keyRoot, &um)
}

// clampEstimateLocked bounds the density-based network-size estimate by
// the last full count delivered for this key (the node's own previous
// root result, or a ShareResults broadcast it cached). The gap estimate
// from successor-list density is unbiased but noisy at small n, and an
// overestimated denominator would mask a genuinely lost subtree behind
// estimator variance; the last delivered count is an exact record of
// what the tree recently reached, so coverage is measured against
// whichever bound is tighter. Caller must hold n.mu.
func (e *aggEntry) clampEstimateLocked(est uint64) uint64 {
	if e.haveLast && e.lastAgg.Count > 0 && e.lastAgg.Count < est {
		est = e.lastAgg.Count
	}
	return est
}

// coverage clamps nodes/estimate to [0,1]. A zero estimate (overlay not
// settled) reports full coverage rather than dividing by zero: with no
// size estimate there is nothing to degrade against.
func coverage(nodes, estimate uint64) float64 {
	if estimate == 0 || nodes >= estimate {
		return 1
	}
	return float64(nodes) / float64(estimate)
}

// debugOn reports whether the logger takes debug records. Debug sites
// test it before they build their arguments, so logging that is off
// renders no key and boxes no value.
func (n *Node) debugOn() bool { return n.cfg.Logger.Enabled(context.Background(), slog.LevelDebug) }

// debug logs a debug record about key's tree that names two peers.
func (n *Node) debug(msg string, key ident.ID, k1 string, a1 transport.Addr, k2 string, a2 transport.Addr) {
	if n.debugOn() {
		n.cfg.Logger.Debug(msg, "key", key.String(), k1, string(a1), k2, string(a2))
	}
}

// applyDetach drops a former child's cached aggregate.
func (n *Node) applyDetach(from transport.Addr, key ident.ID) UpdateAck {
	n.mu.Lock()
	if e := n.aggs[key]; e != nil {
		delete(e.children, from)
	}
	n.mu.Unlock()
	return UpdateAck{OK: true}
}

// applyUpdate stores a child's subtree aggregate (continuous) or folds
// an on-demand contribution into the epoch bucket, and returns the
// verdict for handleBatch to send back: OK acks confirm delivery, not-OK
// acks ("cycle", "no-slot", "closed") tell a live sender to route
// elsewhere without a failure-detector strike.
func (n *Node) applyUpdate(from transport.Addr, um *UpdateMsg) UpdateAck {
	rt := n.ch.Routing()
	// Record the hop span first: the message travelled regardless of
	// whether the update is accepted below.
	if h := n.cfg.Obs.Span; h != nil {
		h(obs.Span{
			Trace: um.Trace, Key: um.Key, Epoch: um.Epoch,
			From: from, To: rt.Self.Addr,
			Height: um.Height, Demand: um.Demand,
			Sent: time.Duration(um.SentAt), Recv: n.clock.Now(),
		})
	}
	if um.Demand {
		n.foldDemand(um, from)
		return UpdateAck{OK: true}
	}
	enrolled := false
	n.mu.Lock()
	e := n.aggs[um.Key]
	if e == nil || e.slotDur == 0 {
		// A node that never initialized this aggregate locally (e.g. it
		// joined the ring later) learns about it from the first child
		// update and enrolls: it must relay the subtree upward, or the
		// subtree would silently vanish from the global view. The slot
		// duration rides along in the update, and one below minRemoteSlot
		// is no slot. A closed node arms no slot timer, so it refuses: the
		// child fails over at once instead of being acknowledged into a
		// subtree that is never relayed.
		reason := ""
		if n.closed {
			reason = "closed"
		} else if time.Duration(um.Slot) < minRemoteSlot {
			reason = "no-slot"
		}
		if reason != "" {
			n.mu.Unlock()
			if h := n.cfg.Obs.UpdateRejected; h != nil {
				h(um.Key, reason)
			}
			return UpdateAck{Reason: reason}
		}
		e = n.entryLocked(um.Key)
		e.slotDur = time.Duration(um.Slot)
		enrolled = true
		n.mu.Unlock()
		n.scheduleTick(e)
		n.mu.Lock()
	}
	// Guard against transient 2-cycles during churn: if the sender is
	// currently our parent, adopting it as a child would double-count the
	// whole subtree.
	if pc := n.parentLocked(e, um.Key, rt); pc.ok && !pc.isRoot && pc.parent.Addr == from {
		n.mu.Unlock()
		if h := n.cfg.Obs.UpdateRejected; h != nil {
			h(um.Key, "cycle")
		}
		return UpdateAck{Reason: "cycle"}
	}
	e.children[from] = childState{agg: um.Agg, nodes: um.Nodes, height: um.Height, seen: n.clock.Now()}
	if um.Handover {
		// A child routed around its dead root and chose us from its
		// successor list: assume rootship for the key. The dead root's
		// children table rebuilds itself from updates like this one — DAT
		// membership is implicit, no state transfer needed. The window is
		// renewed per handover update and lapses once the ring has elected
		// a proper successor(key).
		e.forcedRootUntil = n.clock.Now() + handoverSlots*e.slotDur
	}
	n.mu.Unlock()
	if um.Handover {
		n.debug("assumed rootship via handover", um.Key, "failed", um.FailedRoot, "child", from)
	}
	n.loadMsgs.Add(1)
	if h := n.cfg.Obs.UpdateApplied; h != nil {
		h(um.Key, false)
	}
	if enrolled && n.debugOn() {
		n.cfg.Logger.Debug("enrolled in continuous aggregation", "key", um.Key.String(), "slot", time.Duration(um.Slot))
	}
	return UpdateAck{OK: true}
}

// --- on-demand mode ---

// Query resolves the root of key's DAT and asks it for an on-demand
// aggregate collected over the given window. Any node may call it. cb
// runs exactly once.
func (n *Node) Query(key ident.ID, window time.Duration, cb func(QueryResp, error)) {
	if window <= 0 {
		window = 500 * time.Millisecond
	}
	n.ch.Lookup(key, func(root chord.NodeRef, err error) {
		if err != nil {
			cb(QueryResp{}, fmt.Errorf("core: query root lookup: %w", err))
			return
		}
		n.ep.Call(root.Addr, MsgQuery, QueryReq{Key: key, Window: window}, func(payload any, err error) {
			if err != nil {
				cb(QueryResp{}, fmt.Errorf("core: query to root %v: %w", root, err))
				return
			}
			resp, ok := payload.(QueryResp)
			if !ok {
				cb(QueryResp{}, fmt.Errorf("core: bad query reply %T", payload))
				return
			}
			cb(resp, nil)
		})
	})
}

// handleQuery runs at the root: start a collection epoch, broadcast the
// collect request down the ring, gather updates for the window, reply.
func (n *Node) handleQuery(req *transport.Request) {
	qr, ok := req.Payload.(QueryReq)
	if !ok {
		req.ReplyError(fmt.Errorf("core: bad query payload %T", req.Payload))
		return
	}
	// Epoch ids must be unique even for queries landing at the same
	// (virtual) instant, so combine the clock with a process-wide counter.
	epoch := int64(n.clock.Now())<<16 | int64(epochCounter.Add(1)&0xffff)
	self := n.ch.Self()

	e := n.entry(qr.Key)
	n.mu.Lock()
	es := &epochState{e: e, epoch: epoch, isRoot: true, req: req}
	if n.cfg.Local != nil {
		if v, okv := n.cfg.Local(qr.Key); okv {
			es.pending.AddSample(v)
			es.nodes++
		}
	}
	e.epochs[epoch] = es
	n.mu.Unlock()

	payload, err := wire.EncodePayload(collectMsg{Key: qr.Key, Epoch: epoch, Root: self})
	if err != nil {
		req.ReplyError(err)
		return
	}
	n.ch.Broadcast(CollectType, payload)
	n.clock.AfterRun(qr.Window, es, 0)
}

// handleCollect runs on every node when a collect broadcast arrives:
// contribute the local sample into the epoch bucket and schedule a flush
// toward the parent.
func (n *Node) handleCollect(from chord.NodeRef, payload []byte) {
	cm, ok := decodeBlob[collectMsg](payload)
	if !ok {
		return
	}
	if cm.Root.Addr == n.ch.Self().Addr {
		return // the root already contributed locally in handleQuery
	}
	e := n.entry(cm.Key)
	n.mu.Lock()
	es := e.epochLocked(cm.Epoch)
	if n.cfg.Local != nil {
		if v, ok := n.cfg.Local(cm.Key); ok {
			es.pending.AddSample(v)
			es.nodes++
		}
	}
	n.armFlushLocked(es)
	n.mu.Unlock()
}

// demandDebounce is the on-demand flush debounce: a node sends its epoch
// bucket upward after this long without new contributions, so whole
// subtrees consolidate into single messages. It must exceed the typical
// one-way latency.
const demandDebounce = 50 * time.Millisecond

// minRemoteSlot is the shortest slot a child's update may enrol this
// node with. The slot timer runs on the clock loop every other timer of
// the peer shares, so one datagram claiming a 1 ns slot would pin it;
// a local StartContinuous may still ask for any positive slot.
const minRemoteSlot = time.Millisecond

// armFlushLocked (re-)schedules the debounced flush for an epoch bucket.
// Callers hold n.mu.
func (n *Node) armFlushLocked(es *epochState) {
	if es.isRoot {
		return
	}
	es.flush.Stop()
	es.flush = n.clock.AfterRun(demandDebounce, es, 0)
}

// foldDemand accumulates an on-demand child update and (re-)arms the
// flush timer. Acked retries are deduplicated per sender via Seq: when
// only the ack was lost, the retry must not fold the same bucket twice.
func (n *Node) foldDemand(um *UpdateMsg, from transport.Addr) {
	e := n.entry(um.Key)
	n.mu.Lock()
	es := e.epochLocked(um.Epoch)
	if um.Seq != 0 {
		if last, seen := es.applied[from]; seen && um.Seq <= last {
			n.armFlushLocked(es)
			n.mu.Unlock()
			return // duplicate of an already-folded flush: just re-ack
		}
		if es.applied == nil {
			es.applied = make(map[transport.Addr]uint64)
		}
		es.applied[from] = um.Seq
	}
	es.pending.Merge(um.Agg)
	es.nodes += um.Nodes
	n.armFlushLocked(es)
	n.mu.Unlock()
	n.loadMsgs.Add(1)
	if h := n.cfg.Obs.UpdateApplied; h != nil {
		h(um.Key, true)
	}
}

// flushDemand pushes the accumulated epoch bucket one level up the DAT.
func (n *Node) flushDemand(key ident.ID, epoch int64) {
	e := n.entry(key)
	rt := n.ch.Routing()
	n.mu.Lock()
	es := e.epochs[epoch]
	if es == nil || es.isRoot {
		n.mu.Unlock()
		return
	}
	agg, nodes := es.pending, es.nodes
	es.pending, es.nodes = Aggregate{}, 0
	e.demandSeq++
	seq := e.demandSeq
	pc := n.parentLocked(e, key, rt)
	n.mu.Unlock()
	if agg.Count == 0 {
		return
	}
	if !pc.ok || pc.isRoot {
		// isRoot should not happen for a non-root epoch holder unless the
		// ring churned; fold back into the bucket as root-side state.
		n.mu.Lock()
		if es2 := e.epochs[epoch]; es2 != nil {
			es2.pending.Merge(agg)
			es2.nodes += nodes
		}
		n.mu.Unlock()
		return
	}
	um := UpdateMsg{
		Key: key, Epoch: epoch, Agg: agg, Nodes: nodes, Sender: rt.Self, Demand: true, Seq: seq,
		Trace: obs.RoundTrace(key, epoch, true), SentAt: int64(n.clock.Now()),
	}
	n.deliverUpdate(nil, pc.parent, pc.keyRoot, &um)
}

// entry returns (creating if needed) the aggregation table entry for key.
// Entries created implicitly (by on-demand traffic) have no continuous
// ticker.
func (n *Node) entry(key ident.ID) *aggEntry {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.entryLocked(key)
}

// ActiveKeys returns the rendezvous keys present in the aggregation
// table (diagnostic).
func (n *Node) ActiveKeys() []ident.ID {
	n.mu.Lock()
	defer n.mu.Unlock()
	keys := make([]ident.ID, 0, len(n.aggs))
	for k := range n.aggs {
		keys = append(keys, k)
	}
	return keys
}

// handleResultBroadcast caches a disseminated slot result so local
// consumers read it from LastResult.
func (n *Node) handleResultBroadcast(from chord.NodeRef, payload []byte) {
	rm, ok := decodeBlob[resultMsg](payload)
	if !ok {
		return
	}
	e := n.entry(rm.Key)
	n.mu.Lock()
	if !e.haveLast || rm.Slot >= e.lastSlot {
		e.lastAgg, e.lastSlot, e.haveLast = rm.Agg, rm.Slot, true
	}
	n.mu.Unlock()
}

// decodeBlob reads a broadcast blob (collect/result): they ride inside
// BroadcastMsg.Payload as opaque bytes in the compact payload codec
// (DESIGN.md §11). ok is false for anything but a well-formed T.
func decodeBlob[T any](b []byte) (T, bool) {
	v, err := wire.DecodePayload(b)
	t, ok := v.(T)
	return t, err == nil && ok
}
