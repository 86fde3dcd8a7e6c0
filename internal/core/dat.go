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
	Height int    // sender's subtree height (sizes the parent's fallback wait)
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
	// tree reshuffling): one reported for slot t counts in reports up to
	// slot t+ChildTTLSlots-1. Default 3.
	ChildTTLSlots int
	// ShareResults makes the root broadcast each completed slot result
	// over the ring (n-1 messages per slot), so every node's LastResult
	// serves the freshest global value locally — the consumer-layer
	// dissemination pattern of SOMO/Willow the paper cites. A node keeps
	// the result of a tree it runs and drops any other. Off by default:
	// it doubles per-slot traffic.
	ShareResults bool
	// HoldPerLevel sizes the fallback of the paper's aggregation
	// synchronization (§4). Every node's slot boundaries sit on one
	// shared epoch; at a boundary a node reports at once if every child
	// it expects (a subtree still cached, see ChildTTLSlots) has
	// reported that slot, and otherwise as soon as the last one does —
	// or, for a child that never does, at the fallback deadline
	// boundary + min(Delivery.AckTimeout, slot/2) + h*HoldPerLevel, h
	// its subtree height, so a parent waits out its children's
	// deadlines. Parents therefore fold fresh slot-t values, and the
	// root's result follows the data. Default 10ms; negative waits for
	// nobody — every node reports at the boundary (ablation: parents
	// then relay cached values one slot behind their children).
	HoldPerLevel time.Duration
	// Delivery tunes the delivery-assurance layer every update goes
	// through: acked sends, re-sent once with their lost datagram,
	// in-slot parent failover, root handover (DESIGN.md §10). The zero
	// value is the defaults.
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

	mu       sync.Mutex
	aggs     map[ident.ID]*aggEntry  // the trees: started here, or enrolled by a child's update
	epochs   map[epochID]*epochState // the on-demand epochs in flight here
	flushSeq uint64                  // Seq of the last on-demand flush sent: a bucket made again never reuses one
	closed   bool                    // set by Close: no timer, row or bucket is made afterwards
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
	slot   int64         // the slot the child reported agg for
	seen   time.Duration // clock time of last refresh
	// expected: the parent waits for this child's report of the slot it
	// is collecting, and counts it in aggEntry.missing.
	expected bool
}

// What a tree's one timer is armed for, which is also its op.
const (
	armedNone     int32 = iota // a report is running
	armedBoundary              // report at the boundary of slot collecting, or at once past it
	armedDeadline              // the fallback deadline: some expected child is out
)

// aggEntry is one row of the aggregation table, the TimerTask of its
// own slot timer, and the home of the one acked update its tree can have
// pending: a steady slot allocates no closure, timer or delivery.
type aggEntry struct {
	n   *Node
	key ident.ID

	slotDur  time.Duration
	onResult func(slot int64, agg Aggregate)
	local    bool // a StartContinuous here made the row, or adopted it from enrolment
	// timer is the tree's one timer, armed for its next report: at the
	// slot boundary, or at the fallback deadline while an expected child
	// is missing, until the last one's report moves it back to the
	// boundary (due at once, once passed).
	timer      transport.Timer
	armed      int32 // what timer is armed for
	collecting int64 // the slot the next report is for
	missing    int   // expected children that have not reported collecting
	children   map[transport.Addr]childState
	height     int            // subtree height: 0 for leaves, 1+max(child heights)
	lastParent transport.Addr // the parent that last acked this tree's update, to detach on switch
	lastAgg    Aggregate
	lastSlot   int64
	haveLast   bool

	memo parentMemo // this tree's parent under the current routing view

	// Delivery-assurance state: the key's acked update (a new slot's
	// supersedes it in place), and — after receiving a handover update —
	// the deadline until which this node acts as the key's root even
	// though its own tables say otherwise (the old root is dead; the ring
	// has not elected us yet).
	deliv           delivery
	forcedRootUntil time.Duration
}

// epochID names one on-demand epoch of one key.
type epochID struct {
	key   ident.ID
	epoch int64
}

// epochState is one on-demand epoch at this node (§2.3) and the
// TimerTask of its one timer: the root's query window; a relay's flush
// debounce, then its expiry, once no retry of what it folded or sent can
// reach it. Each arm bumps gen, passed as the op: a stale firing is inert.
type epochState struct {
	n  *Node
	id epochID

	pending Aggregate
	nodes   uint64
	// applied records the highest Seq folded per sender, so an acked
	// retry whose previous attempt actually arrived (the ack, not the
	// request, was lost) is not double-counted.
	applied map[transport.Addr]uint64
	timer   transport.Timer
	gen     uint32
	// flushDue: the relay's timer is the flush debounce. Each arriving
	// contribution re-arms it, so a node flushes only after its inflow
	// quiets down — leaves flush first, parents consolidate whole
	// subtrees into one upward message.
	flushDue bool
	req      *transport.Request // the root's query; nil at a relay
	deliv    delivery           // a relay's acked flush
}

// epochLocked returns id's bucket, adding an empty relay bucket if there
// is none. Caller holds n.mu, and the node is open.
func (n *Node) epochLocked(id epochID) *epochState {
	es := n.epochs[id]
	if es == nil {
		es = &epochState{n: n, id: id}
		es.deliv.n, es.deliv.key = n, id.key
		n.epochs[id] = es
	}
	return es
}

// armLocked (re-)arms es's one timer d from now. Caller holds n.mu.
func (es *epochState) armLocked(d time.Duration) {
	es.timer.Stop()
	es.gen++
	es.timer = es.n.clock.AfterRun(d, es, int32(es.gen))
}

// foldLocked adds a contribution to es; at a relay it (re-)arms the
// flush debounce. Caller holds n.mu.
func (es *epochState) foldLocked(agg Aggregate, nodes uint64) {
	es.pending.Merge(agg)
	es.nodes += nodes
	if es.req == nil {
		es.flushDue = true
		es.armLocked(demandDebounce)
	}
}

// epochLife is how long a relay's bucket outlives its last flush: every
// attempt of one delivery, on every candidate, each bounded by AckTimeout.
func (n *Node) epochLife() time.Duration {
	return deliveryAttempts * maxCandidates * n.cfg.Delivery.AckTimeout
}

// RunEvent implements transport.TimerTask: the root's window has closed,
// so the query is answered; a relay's inflow has quieted, so its bucket
// goes one level up; or no retry can reach the bucket any more.
func (es *epochState) RunEvent(op int32) {
	n, key := es.n, es.id.key
	busy := es.deliv.busy()
	rt := n.ch.Routing()
	n.mu.Lock()
	if uint32(op) != es.gen || n.epochs[es.id] != es {
		n.mu.Unlock() // re-armed, or drained by Close
		return
	}
	switch {
	case es.req != nil:
		delete(n.epochs, es.id)
		est := rt.EstimatedNetworkSize()
		if e := n.aggs[key]; e != nil {
			est = e.clampEstimateLocked(est)
		}
		agg, nodes := es.pending, es.nodes
		n.mu.Unlock()
		if agg.Count == 0 {
			es.req.ReplyError(ErrNoLocalValue)
			return
		}
		agg.Coverage = coverage(nodes, est)
		es.req.Reply(QueryResp{
			Key: key, Epoch: es.id.epoch, Agg: agg, Nodes: nodes,
			Coverage: agg.Coverage,
			Degraded: agg.Degraded,
		})
		return
	case !es.flushDue:
		delete(n.epochs, es.id)
		n.mu.Unlock()
		return
	case busy:
		// The last flush is still under way, and a new one would
		// supersede it: wait for it.
		es.armLocked(demandDebounce)
		n.mu.Unlock()
		return
	}
	es.flushDue = false
	es.armLocked(n.epochLife())
	pc := n.parentLocked(n.aggs[key], key, rt)
	if es.pending.Count == 0 || !pc.ok || pc.isRoot {
		// Nothing to send, or no parent to send it to (the ring churned
		// this relay into rootship): the bucket keeps it, and a later
		// contribution takes it along.
		n.mu.Unlock()
		return
	}
	agg, nodes := es.pending, es.nodes
	es.pending, es.nodes = Aggregate{}, 0
	n.flushSeq++
	um := UpdateMsg{
		Key: key, Epoch: es.id.epoch, Agg: agg, Nodes: nodes, Sender: rt.Self, Demand: true, Seq: n.flushSeq,
		Trace: obs.RoundTrace(key, es.id.epoch, true), SentAt: int64(n.clock.Now()),
	}
	n.mu.Unlock()
	n.deliverUpdate(&es.deliv, pc.parent, pc.keyRoot, &um)
}

// NewNode attaches a DAT layer to a Chord node. It registers the DAT
// message handlers and the collect broadcast upcall on the Chord node.
func NewNode(ch *chord.Node, ep transport.Endpoint, clock transport.Clock, cfg NodeConfig) *Node {
	n := &Node{
		ch:     ch,
		ep:     ep,
		clock:  clock,
		cfg:    cfg.withDefaults(),
		aggs:   make(map[ident.ID]*aggEntry),
		epochs: make(map[epochID]*epochState),
	}
	n.sm = newSendMachine(n, n.cfg.Batch)
	ch.Handle(MsgBatch, n.handleBatch)
	ch.Handle(MsgQuery, n.handleQuery)
	ch.OnBroadcast(CollectType, n.handleCollect)
	ch.OnBroadcast(ResultType, n.handleResultBroadcast)
	return n
}

// Close stops every tree (slot timers and pending deliveries, as
// StopContinuous does per key) and every epoch, leaving a query it
// collects to its caller's deadline; then it drains the send machine.
// No tick starts after Close, and a tick already running surfaces no
// result once it sees the node closed; only an onResult call already
// underway may finish after Close returns. Safe to call more than once.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	for id, es := range n.epochs {
		es.timer.Stop()
		es.deliv.cancel()
		delete(n.epochs, id)
	}
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
// non-root nodes — it fires only if this node is the root). A row a
// child's update enrolled is adopted, cached children and all; a second
// local start, or one on a closed node, is an error.
//
// onResult runs on the clock's timer loop (DESIGN.md §17), live as in
// the simulator: while it runs none of the node's other timers fire, so
// it must not block — hand long work to another goroutine.
//
// Slot synchronization (§4): slot boundaries sit on the clock's shared
// epoch, so every node's slot t starts at t*slot. Leaves report at the
// boundary; a parent reports the moment every child it expects has
// reported slot t (see NodeConfig.HoldPerLevel for the fallback). The
// root therefore surfaces slot t's data one tree-deep chain of
// deliveries after the boundary, not with an O(height)-slot lag.
func (n *Node) StartContinuous(key ident.ID, slot time.Duration, onResult func(slot int64, agg Aggregate)) error {
	if slot <= 0 {
		return fmt.Errorf("core: non-positive slot duration %v", slot)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("core: node closed")
	}
	e := n.aggs[key]
	if e == nil {
		e = n.entryLocked(key)
	} else if e.local {
		n.mu.Unlock()
		return fmt.Errorf("core: aggregate %v already active", key)
	}
	// A row a child's update enrolled on another slot re-arms on ours,
	// unless its timer has fired: the report it runs arms the next one.
	rearm := e.slotDur == 0 || e.slotDur != slot && e.timer.Stop()
	e.slotDur, e.local, e.onResult = slot, true, onResult
	if rearm {
		n.startLocked(e)
	}
	n.mu.Unlock()
	return nil
}

// entryLocked adds an empty row for key to the table. Caller holds n.mu.
func (n *Node) entryLocked(key ident.ID) *aggEntry {
	e := &aggEntry{n: n, key: key, children: make(map[transport.Addr]childState)}
	e.deliv.n, e.deliv.e, e.deliv.key = n, e, key
	n.aggs[key] = e
	return e
}

// armLocked points e's timer at its next report of slot collecting: the
// slot boundary on the shared epoch if no expected child is missing,
// else the fallback deadline. Caller holds n.mu, and e is live.
func (n *Node) armLocked(e *aggEntry, now time.Duration) {
	at := time.Duration(e.collecting) * e.slotDur
	e.armed = armedBoundary
	if e.missing > 0 {
		at += min(n.cfg.Delivery.AckTimeout, e.slotDur/2) + time.Duration(e.height)*n.cfg.HoldPerLevel
		e.armed = armedDeadline
	}
	e.timer = n.clock.AfterRun(at-now, e, e.armed)
}

// startLocked arms a new tree's first report, at the next boundary: it
// expects no child yet. Caller holds n.mu.
func (n *Node) startLocked(e *aggEntry) {
	now := n.clock.Now()
	e.collecting = int64(now/e.slotDur) + 1
	n.armLocked(e, now)
}

// cachedFor reports whether a child's cached subtree still counts in
// e's report of slot: it survives ChildTTLSlots slots without refresh,
// counted by the slots it was reported for, and as long again on the
// clock for a child whose slot reads ahead of ours.
func (n *Node) cachedFor(e *aggEntry, cs childState, slot int64, now time.Duration) bool {
	ttl := int64(n.cfg.ChildTTLSlots)
	return slot-cs.slot < ttl && now-cs.seen <= time.Duration(ttl)*e.slotDur
}

// expects reports whether e waits for cs's report of slot collecting:
// cs is still cached then and has not reported that slot or a later one
// (a child whose clock runs ahead reports early, and that report
// counts). With HoldPerLevel negative it expects nobody.
func (n *Node) expects(e *aggEntry, cs childState, now time.Duration) bool {
	return n.cfg.HoldPerLevel >= 0 && cs.slot < e.collecting && n.cachedFor(e, cs, e.collecting, now)
}

// childChangedLocked accounts a child's report or detach — old its
// cached state before, cs after (zero when gone) — in e.missing, and
// moves e's timer when that crosses zero: the last expected report
// swaps the fallback deadline for the boundary, due at once once it has
// passed, so the report runs on the clock loop like every report. It
// returns the replaced timer for the caller to stop outside n.mu.
func (n *Node) childChangedLocked(e *aggEntry, old, cs childState) (stop transport.Timer) {
	if old.expected == cs.expected {
		return transport.Timer{}
	}
	if cs.expected {
		e.missing++
	} else {
		e.missing--
	}
	if e.armed == armedNone || (e.missing > 0) == (e.armed == armedDeadline) {
		return transport.Timer{} // a report is running, or the timer is right
	}
	stop = e.timer
	n.armLocked(e, n.clock.Now())
	return stop
}

// RunEvent implements transport.TimerTask: report slot collecting. Live,
// a deadline can fire while the last expected report replaces it;
// whichever runs second finds its op no longer armed and does nothing.
func (e *aggEntry) RunEvent(op int32) {
	n := e.n
	n.mu.Lock()
	if n.closed || n.aggs[e.key] != e || op != e.armed {
		n.mu.Unlock() // stopped, or replaced
		return
	}
	e.armed = armedNone
	slot := e.collecting
	n.mu.Unlock()
	n.tickContinuous(e, slot)
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
// this node, started here or enrolled by a child's update. Re-kick paths
// (cluster.KickSelfMon, harness rejoins) use it to make enrollment
// idempotent.
func (n *Node) Active(key ident.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.aggs[key]
	return ok
}

// LastResult returns the most recent root result of key's tree on this
// node: its own as the root, or a ShareResults broadcast's.
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

// tickContinuous reports slot once: fold the local sample with the
// cached child subtree aggregates and push the result to the parent (or
// surface it if this node is the root). It arms the next report first.
func (n *Node) tickContinuous(e *aggEntry, slot int64) {
	key := e.key
	rt := n.ch.Routing()
	n.mu.Lock()
	if n.aggs[key] != e {
		n.mu.Unlock()
		return
	}
	pc := n.parentLocked(e, key, rt)
	now := n.clock.Now()
	var agg Aggregate
	var nodes uint64
	if n.cfg.Local != nil {
		if v, ok := n.cfg.Local(key); ok {
			agg.AddSample(v)
			nodes++
		}
	}
	e.collecting = int64(now/e.slotDur) + 1
	height, fanIn, expired, missing := 0, 0, 0, 0
	for addr, cs := range e.children {
		if !n.cachedFor(e, cs, slot, now) {
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
		if expect := n.expects(e, cs, now); expect != cs.expected {
			cs.expected = expect
			e.children[addr] = cs
		}
		if cs.expected {
			missing++
		}
	}
	e.height, e.missing = height, missing
	n.armLocked(e, now)
	slotDur := e.slotDur
	parent, isRoot, self := pc.parent, pc.isRoot, rt.Self
	// Root-handover bridge: a node that received a handover update acts
	// as the key's root until the ring elects a real successor(key) (or
	// the window lapses), even though its own tables still point at the
	// dead root's neighborhood.
	forced := pc.ok && !isRoot && now < e.forcedRootUntil
	isRoot = isRoot || forced
	var oldParent transport.Addr
	if pc.ok && isRoot {
		oldParent, e.lastParent = e.lastParent, ""
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
	// node's clock (the wait for its children plus scheduling drift).
	roundDone := func(root bool) {
		if h := n.cfg.Obs.RoundDone; h != nil {
			h(key, slot, root, fanIn, nodes, now-time.Duration(slot)*slotDur)
		}
	}

	if isRoot {
		// A root has nothing in flight upward, and its former parent
		// drops the subtree now (see ackedBy).
		e.deliv.cancel()
		if oldParent != "" {
			n.sm.enqueue(oldParent, &BatchElem{Kind: batchKindDetach, Detach: DetachMsg{Key: key, Sender: self}}, sinkRef{})
		}
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
	n.deliverUpdate(&e.deliv, parent, pc.keyRoot, &um)
}

// ackedBy records that parent acknowledged e's update. On a parent
// switch it detaches the former parent, so the subtree is not
// double-counted through two paths until the cache TTL expires — which
// is also all a missed detach costs: nobody waits for it. The detach
// waits for the new parent's ack, so a switch to a parent that turns
// out dead (a routing entry resurrected by a neighbour's stale
// pointer, say) never leaves the subtree counted nowhere.
func (n *Node) ackedBy(e *aggEntry, parent transport.Addr) {
	n.mu.Lock()
	old := e.lastParent
	if n.aggs[e.key] != e || old == parent {
		n.mu.Unlock()
		return
	}
	e.lastParent = parent
	n.mu.Unlock()
	if old != "" {
		n.sm.enqueue(old, &BatchElem{Kind: batchKindDetach, Detach: DetachMsg{Key: e.key, Sender: n.ch.Self()}}, sinkRef{})
		n.debug("switched aggregation parent", e.key, "old", old, "new", parent)
	}
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

// applyDetach drops a former child's cached aggregate: a waiting tree
// no longer expects it.
func (n *Node) applyDetach(from transport.Addr, key ident.ID) UpdateAck {
	var stop transport.Timer
	n.mu.Lock()
	if e := n.aggs[key]; e != nil {
		stop = n.childChangedLocked(e, e.children[from], childState{})
		delete(e.children, from)
	}
	n.mu.Unlock()
	stop.Stop()
	return UpdateAck{OK: true}
}

// applyUpdate stores a child's subtree aggregate (continuous) or folds
// an on-demand contribution into its epoch's bucket, and returns the
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
		return n.foldDemand(um, from)
	}
	enrolled := false
	n.mu.Lock()
	e := n.aggs[um.Key]
	if e == nil {
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
		n.startLocked(e)
		enrolled = true
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
	old, had := e.children[from]
	if had && um.Epoch < old.slot {
		// A datagram reordered, or a retry, behind the child's newer
		// report: acknowledged, and the newer value stays cached.
		n.mu.Unlock()
		return UpdateAck{OK: true}
	}
	now := n.clock.Now()
	cs := childState{agg: um.Agg, nodes: um.Nodes, height: um.Height, slot: um.Epoch, seen: now}
	cs.expected = n.expects(e, cs, now) // still, if this reports a slot before collecting
	stop := n.childChangedLocked(e, old, cs)
	e.children[from] = cs
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
	stop.Stop()
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
// runs exactly once. The request is one datagram whose deadline is the
// window plus AckTimeout, the time the root's answer may take to come
// back once the window has closed.
func (n *Node) Query(key ident.ID, window time.Duration, cb func(QueryResp, error)) {
	if window <= 0 {
		window = 500 * time.Millisecond
	}
	n.ch.Lookup(key, func(root chord.NodeRef, err error) {
		if err != nil {
			cb(QueryResp{}, fmt.Errorf("core: query root lookup: %w", err))
			return
		}
		n.ep.CallWithin(root.Addr, MsgQuery, QueryReq{Key: key, Window: window}, window+n.cfg.Delivery.AckTimeout, func(payload any, err error) {
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
	payload, err := wire.EncodePayload(collectMsg{Key: qr.Key, Epoch: epoch, Root: n.ch.Self()})
	if err != nil {
		req.ReplyError(err)
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		req.ReplyError(errors.New("core: node closed"))
		return
	}
	es := n.epochLocked(epochID{qr.Key, epoch})
	es.req = req
	es.foldLocked(n.sampleLocked(qr.Key))
	es.armLocked(qr.Window)
	n.mu.Unlock()
	n.ch.Broadcast(CollectType, payload)
}

// handleCollect runs on every node when a collect broadcast arrives:
// contribute the local sample into the epoch bucket and schedule a flush
// toward the parent.
func (n *Node) handleCollect(from chord.NodeRef, payload []byte) {
	cm, ok := decodeBlob[collectMsg](payload)
	if !ok || cm.Root.Addr == n.ch.Self().Addr {
		return // the root already contributed locally in handleQuery
	}
	n.mu.Lock()
	if !n.closed {
		n.epochLocked(epochID{cm.Key, cm.Epoch}).foldLocked(n.sampleLocked(cm.Key))
	}
	n.mu.Unlock()
}

// sampleLocked is this node's own sample for key as a contribution, empty
// if it has none. Caller holds n.mu.
func (n *Node) sampleLocked(key ident.ID) (agg Aggregate, nodes uint64) {
	if n.cfg.Local != nil {
		if v, ok := n.cfg.Local(key); ok {
			agg.AddSample(v)
			nodes = 1
		}
	}
	return agg, nodes
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

// foldDemand accumulates an on-demand child update into its epoch's
// bucket, once per sender's Seq: when only the ack was lost, the retry
// must not fold the same flush twice. A closed node refuses it.
func (n *Node) foldDemand(um *UpdateMsg, from transport.Addr) UpdateAck {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return UpdateAck{Reason: "closed"}
	}
	es := n.epochLocked(epochID{um.Key, um.Epoch})
	if um.Seq != 0 {
		if last, seen := es.applied[from]; seen && um.Seq <= last {
			n.mu.Unlock()
			return UpdateAck{OK: true} // duplicate of an already-folded flush: just re-ack
		}
		if es.applied == nil {
			es.applied = make(map[transport.Addr]uint64)
		}
		es.applied[from] = um.Seq
	}
	es.foldLocked(um.Agg, um.Nodes)
	n.mu.Unlock()
	n.loadMsgs.Add(1)
	if h := n.cfg.Obs.UpdateApplied; h != nil {
		h(um.Key, true)
	}
	return UpdateAck{OK: true}
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
// consumers read it from LastResult. It refreshes a tree this node runs
// and drops the result of any other.
func (n *Node) handleResultBroadcast(from chord.NodeRef, payload []byte) {
	rm, ok := decodeBlob[resultMsg](payload)
	if !ok {
		return
	}
	n.mu.Lock()
	if e := n.aggs[rm.Key]; e != nil && (!e.haveLast || rm.Slot >= e.lastSlot) {
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
