package chord

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Config parameterizes a protocol node. The zero value gets sensible
// defaults from withDefaults; experiments typically only set Space and
// the maintenance intervals (short for simulated time, longer for UDP).
type Config struct {
	// Space is the identifier space. Required.
	Space ident.Space
	// SuccessorListLen is the replication factor of the successor list
	// used to survive neighbor failures. Default 4.
	SuccessorListLen int
	// StabilizeEvery is the base period of the successor stabilization
	// loop (§4: "finger stabilization"): a quiet ring stretches it up to
	// maxStretch times, and any change snaps it back (pace.go). Default
	// 300ms.
	StabilizeEvery time.Duration
	// FixFingersEvery is the base period of the finger repair loop,
	// paced like StabilizeEvery; each round refreshes fingersPerRound
	// entries. Default 500ms.
	FixFingersEvery time.Duration
	// PingEvery is the predecessor liveness check period: a predecessor
	// that called this node within it is not pinged. Default 1s.
	PingEvery time.Duration
	// Obs receives protocol telemetry: lookup hop counts, stabilization
	// rounds, join latency, and failure-detector events. The zero value
	// disables instrumentation (DESIGN.md §9).
	Obs obs.ChordHooks
	// Logger receives structured protocol logs. Nil means silent.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.SuccessorListLen <= 0 {
		c.SuccessorListLen = 4
	}
	if c.StabilizeEvery <= 0 {
		c.StabilizeEvery = 300 * time.Millisecond
	}
	if c.FixFingersEvery <= 0 {
		c.FixFingersEvery = 500 * time.Millisecond
	}
	if c.PingEvery <= 0 {
		c.PingEvery = time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Lookup and join errors.
var (
	ErrLookupFailed = errors.New("chord: lookup failed")
	ErrNotRunning   = errors.New("chord: node not running")
	// ErrStaleIncarnation means a join-time lookup resolved this node's
	// identifier to its own address: the ring still carries a previous
	// incarnation that the failure detector has not evicted yet. Joining
	// now would make the node adopt itself as successor and come up as a
	// lone ring while the real one routes around its arc — a permanent
	// split. Callers must retry after a failure-detection period.
	ErrStaleIncarnation = errors.New("chord: ring still resolves our identifier to a previous incarnation")
	// ErrIDTaken means a join-time lookup resolved this node's identifier
	// to another live node that already holds it: two nodes with one
	// identifier would own one arc. A probing joiner retries with a new
	// probe.
	ErrIDTaken = errors.New("chord: identifier already held by another node")
)

// Node is a live Chord protocol node. It owns its transport endpoint's
// inbound handler; upper layers (the DAT layer) register their message
// types via Handle and their broadcast upcalls via OnBroadcast, mirroring
// the paper's route/broadcast/upcall interface (§4).
//
// All exported methods are safe for concurrent use. Completion callbacks
// run on transport goroutines (or inline on the simulator event loop) —
// they must not block.
type Node struct {
	cfg   Config
	space ident.Space
	ep    transport.Endpoint
	clock transport.Clock

	mu sync.Mutex
	// rt is the routing state itself, not a cache of it: self, pred,
	// successor list (non-empty while running) and fingers live in the
	// published view and change only by clone-modify-swap through the
	// mutators in routing.go. view is the same pointer published for
	// readers that hold no lock (Routing): the mutators store both.
	rt          *Routing
	view        atomic.Pointer[Routing]
	succScratch []NodeRef // stabilize builds its candidate list here
	nextFix     int
	running     bool
	stab, fix   *pacer // the paced loops while running (pace.go)
	stopPing    func()
	rng         *rand.Rand // probe draws, seeded from the first identifier
	handlers    map[string]transport.Handler
	upcalls     map[string]func(from NodeRef, payload []byte)
	onPred      func(old, new NodeRef)
	health      health // every peer's health record (health.go)
	// heardFrom last called this node (a stabilize GetState or a notify)
	// at heardAt, as its predecessor then: checkPredecessor skips the ping
	// while that is fresher than PingEvery and heardFrom is still the
	// predecessor (DESIGN.md §16).
	heardFrom transport.Addr
	heardAt   time.Duration
}

// New creates a node bound to the endpoint with the given identifier.
// The node installs itself as the endpoint's handler immediately but
// stays passive until Create or Join.
func New(ep transport.Endpoint, clock transport.Clock, id ident.ID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	if cfg.Space.Bits() == 0 {
		panic("chord: Config.Space is required")
	}
	self := NodeRef{ID: id, Addr: ep.Addr()}
	n := &Node{
		cfg:   cfg,
		space: cfg.Space,
		ep:    ep,
		clock: clock,
		rt: &Routing{
			Version: 1,
			Self:    self,
			Fingers: make([]NodeRef, cfg.Space.Bits()),
			Gap:     cfg.Space.Size(),
			space:   cfg.Space,
			state:   StateResp{Self: self}, // no neighbours: nothing else to derive
		},
		health:   health{peers: make(map[transport.Addr]*peerHealth)},
		rng:      rand.New(rand.NewSource(int64(id))),
		handlers: make(map[string]transport.Handler),
		upcalls:  make(map[string]func(NodeRef, []byte)),
	}
	n.view.Store(n.rt) //datlint:ignore routever the first view: nobody has seen the node yet
	ep.Handle(n.dispatch)
	return n
}

// Self returns this node's reference.
func (n *Node) Self() NodeRef { return n.Routing().Self }

// Space returns the identifier space.
func (n *Node) Space() ident.Space { return n.space }

// StabilizeEvery returns the stabilization period the node runs at:
// Config.StabilizeEvery, or its default.
func (n *Node) StabilizeEvery() time.Duration { return n.cfg.StabilizeEvery }

// Running reports whether the node participates in a ring.
func (n *Node) Running() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.running
}

// Successor returns the current successor (self when alone).
func (n *Node) Successor() NodeRef { return n.Routing().Successor() }

// Predecessor returns the current predecessor (zero if unknown).
func (n *Node) Predecessor() NodeRef { return n.Routing().Pred }

// EstimatedNetworkSize estimates n from the gap estimate.
func (n *Node) EstimatedNetworkSize() uint64 { return n.Routing().EstimatedNetworkSize() }

// Handle registers an application-level handler for a message type.
// Upper layers must register before traffic arrives.
func (n *Node) Handle(typ string, h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[typ] = h
}

// OnBroadcast registers an upcall for application broadcasts of the
// given payload type.
func (n *Node) OnBroadcast(payloadType string, fn func(from NodeRef, payload []byte)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.upcalls[payloadType] = fn
}

// OnPredecessorChange registers a hook invoked (outside the node's lock,
// on the transport goroutine) whenever the predecessor pointer changes.
// Storage layers use it to hand the arriving predecessor the part of the
// key arc it now owns.
func (n *Node) OnPredecessorChange(fn func(old, new NodeRef)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onPred = fn
}

// adoptPredLocked updates the predecessor and returns the hook invocation
// to run after the lock is released (nil if unchanged or no hook).
func (n *Node) adoptPredLocked(p NodeRef) func() {
	old := n.rt.Pred
	if !n.setPredLocked(p) || n.onPred == nil {
		return nil
	}
	fn := n.onPred
	return func() { fn(old, p) }
}

// Create bootstraps a new ring with this node as its only member and
// starts the maintenance loops.
func (n *Node) Create() {
	n.mu.Lock()
	n.setNeighborsLocked(NodeRef{}, nil, nil)
	n.running = true
	n.mu.Unlock()
	n.cfg.Logger.Info("created ring", "id", n.Self().ID.String())
	n.startMaintenance()
}

// SeedState initializes the node's neighbor state directly from a known
// ring snapshot and starts the maintenance loops. Large-scale experiments
// use it to skip the O(n log n) protocol join phase when they only study
// converged-ring behavior (as the paper's §5 measurements do);
// stabilization keeps running and will repair the seeded state if it is
// stale.
func (n *Node) SeedState(pred NodeRef, succs, fingers []NodeRef) {
	n.mu.Lock()
	n.setNeighborsLocked(pred, succs, fingers)
	n.running = true
	n.mu.Unlock()
	n.startMaintenance()
}

// Join joins the ring known to bootstrap: it looks up the successor of
// this node's identifier and adopts it, then lets stabilization weave in
// the rest. cb receives nil on success.
func (n *Node) Join(bootstrap transport.Addr, cb func(error)) {
	start := n.clock.Now()
	done := func(err error) {
		if h := n.cfg.Obs.JoinDone; h != nil {
			h(n.clock.Now()-start, err)
		}
		if err != nil {
			n.cfg.Logger.Debug("join attempt failed", "bootstrap", string(bootstrap), "err", err)
		} else {
			n.cfg.Logger.Info("joined ring", "bootstrap", string(bootstrap), "id", n.Self().ID.String(), "took", n.clock.Now()-start)
		}
		cb(err)
	}
	n.lookupVia(bootstrap, n.Self().ID, func(succ NodeRef, err error) {
		if err != nil {
			done(fmt.Errorf("chord: join via %s: %w", bootstrap, err))
			return
		}
		if succ.Addr == n.Self().Addr {
			// A ghost of our previous incarnation is still in the ring's
			// tables and answered for us. Coming up alone here would split
			// the overlay permanently (the live ring routes around our arc
			// and never notifies a node it believes it already has), so
			// refuse and let the caller retry once suspicion evicts the
			// ghost.
			done(fmt.Errorf("chord: join via %s: %w", bootstrap, ErrStaleIncarnation))
			return
		}
		if succ.ID == n.Self().ID {
			done(fmt.Errorf("chord: join via %s: %s holds %v: %w", bootstrap, succ.Addr, succ.ID, ErrIDTaken))
			return
		}
		// Verify the successor is actually alive and adopt its successor
		// list in the same exchange. Until the first stabilize round a
		// joiner's whole ring knowledge is this list; entering with a
		// single entry — one that moreover came from another node's
		// possibly stale tables — means one dead successor strands the
		// joiner alone (removeDeadLocked empties the list and a lone node never
		// hears from the ring again). Failing the join instead lets the
		// caller retry against a live ring.
		n.ep.Call(succ.Addr, MsgGetState, GetStateReq{}, func(payload any, err error) {
			if err != nil {
				done(fmt.Errorf("chord: join via %s: successor %s: %w", bootstrap, succ.Addr, err))
				return
			}
			resp, ok := payload.(StateResp)
			if !ok {
				done(fmt.Errorf("chord: join via %s: successor %s: bad state reply %T", bootstrap, succ.Addr, payload))
				return
			}
			n.mu.Lock()
			list := []NodeRef{succ}
			for _, s := range resp.Successors {
				if len(list) >= n.cfg.SuccessorListLen {
					break
				}
				if s.IsZero() || s.Addr == n.rt.Self.Addr {
					continue
				}
				dup := false
				for _, have := range list {
					if have.Addr == s.Addr {
						dup = true
						break
					}
				}
				if !dup {
					list = append(list, s)
				}
			}
			n.setNeighborsLocked(NodeRef{}, list, nil)
			n.running = true
			n.mu.Unlock()
			n.startMaintenance()
			// Kick stabilization immediately so the ring converges without
			// waiting a full period.
			n.stabilize()
			done(nil)
		})
	})
}

// JoinProbed performs the identifier-probing join (Adler et al., §4):
// it routes a probe to the successor of a random identifier, asks it to
// split the largest interval it can see among itself and its fingers,
// adopts the returned identifier, and then joins normally. cb receives
// the adopted identifier; ErrIDTaken means a concurrent joiner took it
// first, and a retry draws a new probe.
func (n *Node) JoinProbed(bootstrap transport.Addr, cb func(ident.ID, error)) {
	probe := n.space.Wrap(n.randUint64())
	n.lookupVia(bootstrap, probe, func(owner NodeRef, err error) {
		if err != nil {
			cb(0, fmt.Errorf("chord: probing join: %w", err))
			return
		}
		n.ep.Call(owner.Addr, MsgProbeSplit, ProbeSplitReq{}, func(payload any, err error) {
			if err != nil {
				cb(0, fmt.Errorf("chord: probe split at %s: %w", owner.Addr, err))
				return
			}
			resp, ok := payload.(ProbeSplitResp)
			if !ok {
				cb(0, fmt.Errorf("chord: probe split: bad reply %T", payload))
				return
			}
			n.mu.Lock()
			n.setSelfIDLocked(resp.AssignedID)
			n.mu.Unlock()
			n.Join(bootstrap, func(err error) { cb(resp.AssignedID, err) })
		})
	})
}

func (n *Node) randUint64() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Uint64()
}

// startMaintenance launches the paced stabilize and fix-fingers loops
// and the predecessor check.
func (n *Node) startMaintenance() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stab != nil {
		return // already running
	}
	sweep := (int(n.space.Bits()) + fingersPerRound - 1) / fingersPerRound
	n.stab = n.newPacer(n.cfg.StabilizeEvery, 1, n.stabilize)
	n.fix = n.newPacer(n.cfg.FixFingersEvery, sweep, n.fixFingers)
	n.stopPing = n.clock.Every(n.cfg.PingEvery, n.cfg.PingEvery/5, n.checkPredecessor)
}

// Stop halts the node. If graceful, it first tells its neighbors how to
// link around it, modeling a clean departure; otherwise it simply goes
// silent, modeling a crash. The endpoint itself is left open for the
// owner to close.
func (n *Node) Stop(graceful bool) {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	if n.stab != nil {
		n.stab.stopLocked()
		n.fix.stopLocked()
		n.stab, n.fix = nil, nil
	}
	stopPing := n.stopPing
	n.stopPing = nil
	rt := n.rt
	n.mu.Unlock()
	pred, succ := rt.Pred, NodeRef{}
	if len(rt.Succs) > 0 {
		succ = rt.Succs[0]
	}
	leave := LeaveReq{Departing: rt.Self, Predecessor: rt.Pred}
	leave.Successors = append(leave.Successors, rt.Succs...)
	selfAddr := rt.Self.Addr

	if stopPing != nil {
		stopPing()
	}
	if graceful {
		if !succ.IsZero() && succ.Addr != selfAddr {
			n.Send(succ.Addr, MsgLeave, leave)
		}
		if !pred.IsZero() && pred.Addr != selfAddr {
			n.Send(pred.Addr, MsgLeave, leave)
		}
	}
}

// --- message dispatch ---

func (n *Node) dispatch(req *transport.Request) {
	if !n.Running() {
		// A recycled address must not masquerade as its dead incarnation.
		// Before Join completes this node has no ring state: answering
		// pings would keep the ghost looking alive forever (so suspicion
		// never evicts it and our own join loops on ErrStaleIncarnation),
		// and answering lookup steps from an empty successor list would
		// claim arcs we do not own. An error reply feeds the caller's
		// failure detector instead; one-way messages are dropped.
		req.ReplyError(ErrNotRunning)
		return
	}
	switch req.Type {
	case MsgStep:
		n.handleStep(req)
	case MsgGetState:
		n.handleGetState(req)
	case MsgNotify:
		n.handleNotify(req)
	case MsgPing:
		req.Reply(PingResp{Self: n.Self()})
	case MsgProbeSplit:
		n.handleProbeSplit(req)
	case MsgLeave:
		n.handleLeave(req)
	case MsgBroadcast:
		n.handleBroadcast(req)
	default:
		n.mu.Lock()
		h := n.handlers[req.Type]
		n.mu.Unlock()
		if h == nil {
			req.ReplyError(fmt.Errorf("chord: no handler for %q", req.Type))
			return
		}
		h(req)
	}
}

// localStep computes one lookup step from this node's state: either the
// final successor of key, or a strictly closer node to ask next. A node
// answers for the arc it owns, (pred, self], once it knows pred.
func (n *Node) localStep(key ident.ID) StepResp {
	rt := n.Routing()
	self, succ, pred := rt.Self, rt.Successor(), rt.Pred
	if succ.Addr == self.Addr {
		return StepResp{Done: true, Next: self} // alone
	}
	if !pred.IsZero() && pred.ID != self.ID && n.space.InHalfOpen(key, pred.ID, self.ID) {
		return StepResp{Done: true, Next: self}
	}
	if n.space.InHalfOpen(key, self.ID, succ.ID) {
		return StepResp{Done: true, Next: succ}
	}
	if best := rt.closestPreceding(key); !best.IsZero() {
		return StepResp{Next: best}
	}
	return StepResp{Next: succ}
}

func (n *Node) handleStep(req *transport.Request) {
	sr, ok := req.Payload.(StepReq)
	if !ok {
		req.ReplyError(fmt.Errorf("chord: bad step payload %T", req.Payload))
		return
	}
	req.Reply(n.localStep(sr.Key))
}

// handleGetState answers with the reply the view derived when it was
// published: a struct copy, whose slices every reply under this Version
// shares. A GetState from the predecessor also spares its next ping.
func (n *Node) handleGetState(req *transport.Request) {
	n.mu.Lock()
	n.heardLocked(req.From)
	n.mu.Unlock()
	req.Reply(n.Routing().state)
}

// handleNotify adopts the candidate as predecessor if it is closer than
// the current one. A notify is also the change notice (DESIGN.md §16):
// a node whose predecessor changes sends one to the old predecessor,
// whose successor it is, and a notify from the node's own successor
// means "stabilize now".
func (n *Node) handleNotify(req *transport.Request) {
	nr, ok := req.Payload.(NotifyReq)
	if !ok || nr.Candidate.IsZero() {
		req.Reply(AckResp{})
		return
	}
	n.mu.Lock()
	var fire func()
	var notice NodeRef
	cand, self := nr.Candidate, n.rt.Self
	if cand.Addr != self.Addr {
		if pred := n.rt.Pred; pred.IsZero() || n.space.Between(cand.ID, pred.ID, self.ID) {
			fire = n.adoptPredLocked(cand)
			if !pred.IsZero() && pred.Addr != self.Addr {
				notice = pred
			}
		}
		succs := n.rt.Succs
		if len(succs) > 0 && succs[0].Addr == cand.Addr && n.stab != nil {
			n.stab.nowLocked()
			n.fix.snapLocked()
		}
		// A lone node learns its first peer through notify: adopt it as
		// successor too so the two-node ring closes.
		if len(succs) == 1 && succs[0].Addr == self.Addr {
			n.setSuccsLocked(cand)
		}
	}
	n.heardLocked(req.From)
	n.mu.Unlock()
	if fire != nil {
		fire()
	}
	if !notice.IsZero() {
		n.Send(notice.Addr, MsgNotify, NotifyReq{Candidate: self})
	}
	req.Reply(AckResp{})
}

// heardLocked notes a call from the predecessor: first-hand evidence
// that it is alive, which makes its next ping redundant.
func (n *Node) heardLocked(from transport.Addr) {
	if pred := n.rt.Pred; !pred.IsZero() && pred.Addr == from {
		n.heardFrom, n.heardAt = from, n.clock.Now()
	}
}

func (n *Node) handleLeave(req *transport.Request) {
	lr, ok := req.Payload.(LeaveReq)
	if !ok {
		return
	}
	n.mu.Lock()
	var fire func()
	self := n.rt.Self
	if pred := n.rt.Pred; !pred.IsZero() && pred.Addr == lr.Departing.Addr {
		repl := lr.Predecessor
		if !repl.IsZero() && repl.Addr == self.Addr {
			repl = NodeRef{}
		}
		fire = n.adoptPredLocked(repl)
	}
	if succs := n.rt.Succs; len(succs) > 0 && succs[0].Addr == lr.Departing.Addr {
		// Splice in the departing node's successors, skipping it and us.
		var repl []NodeRef
		for _, s := range lr.Successors {
			if s.Addr != lr.Departing.Addr && s.Addr != self.Addr {
				repl = append(repl, s)
			}
		}
		if len(repl) == 0 {
			repl = []NodeRef{self}
		}
		n.setSuccsLocked(repl...)
	}
	n.removeDeadLocked(lr.Departing.Addr)
	n.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// handleProbeSplit serves the identifier-probing join: it queries the
// live predecessor of each candidate (itself, its fingers, its
// successor) and splits the largest interval inside its middle half, at
// an offset hashed from the requester's address — joiners answered
// concurrently see the same largest interval, and a stateless midpoint
// would hand them all one identifier.
func (n *Node) handleProbeSplit(req *transport.Request) {
	rt := n.Routing()
	from := req.From
	type cand struct {
		ref  NodeRef
		pred NodeRef // known locally only for self
	}
	cands := []cand{{ref: rt.Self, pred: rt.Pred}}
	seen := map[transport.Addr]bool{rt.Self.Addr: true}
	for _, f := range rt.Fingers {
		if !f.IsZero() && !seen[f.Addr] {
			seen[f.Addr] = true
			cands = append(cands, cand{ref: f})
		}
	}
	for _, s := range rt.Succs {
		if !s.IsZero() && !seen[s.Addr] {
			seen[s.Addr] = true
			cands = append(cands, cand{ref: s})
		}
	}
	space := n.space
	self := rt.Self

	// Gather each candidate's predecessor; local state answers for self,
	// remote GetState for the rest. The join-like barrier counts down as
	// answers (or errors) arrive.
	type gapInfo struct {
		ref NodeRef
		gap uint64
	}
	var gmu sync.Mutex
	gaps := make([]gapInfo, 0, len(cands))
	pending := len(cands)
	finish := func() {
		best := gapInfo{}
		for _, g := range gaps {
			if g.gap > best.gap || (g.gap == best.gap && ident.Less(g.ref.ID, best.ref.ID)) {
				best = g
			}
		}
		if best.ref.IsZero() || best.gap < 2 {
			// Degenerate ring; assign a random free-ish point.
			req.Reply(ProbeSplitResp{AssignedID: space.Wrap(n.randUint64())})
			return
		}
		h := fnv.New64a()
		h.Write([]byte(from))
		off := best.gap/2 - best.gap/4 + h.Sum64()%(best.gap/2) // in [1, gap)
		req.Reply(ProbeSplitResp{AssignedID: space.Sub(best.ref.ID, best.gap-off)})
	}
	record := func(ref NodeRef, pred NodeRef, ok bool) {
		gmu.Lock()
		defer gmu.Unlock()
		// An unknown predecessor is skipped rather than guessed.
		if ok && !pred.IsZero() && pred.Addr != ref.Addr {
			gaps = append(gaps, gapInfo{ref: ref, gap: space.Dist(pred.ID, ref.ID)})
		}
		pending--
		if pending == 0 {
			finish()
		}
	}
	for _, c := range cands {
		c := c
		if c.ref.Addr == self.Addr {
			record(c.ref, c.pred, true)
			continue
		}
		n.ep.Call(c.ref.Addr, MsgGetState, GetStateReq{}, func(payload any, err error) {
			if err != nil {
				record(c.ref, NodeRef{}, false)
				return
			}
			resp, ok := payload.(StateResp)
			if !ok {
				record(c.ref, NodeRef{}, false)
				return
			}
			record(c.ref, resp.Predecessor, true)
		})
	}
}

// --- lookups ---

// Lookup resolves successor(key) iteratively from this node. cb runs
// exactly once.
func (n *Node) Lookup(key ident.ID, cb func(NodeRef, error)) {
	n.startLookup(lookup{key: key, cb: cb})
}

// lookup is one iterative lookup: a record whose step callback is bound
// once and whose hop and retry state lives in fields, where a closure
// per hop would capture the same six values afresh at every hop. At
// most one Step call is in flight per lookup, so the fields need no
// lock.
type lookup struct {
	n   *Node
	key ident.ID
	// The answer goes to cb; with cb nil it is finger entry finger's new
	// value (fixFingers, which would otherwise allocate a closure per
	// finger just to remember the index).
	cb     func(NodeRef, error)
	finger int
	// holder marks the Step in flight as the one fixFingers sends the
	// finger's current holder: only a final answer is taken from it.
	holder bool

	at      NodeRef // the node whose Step answer is awaited
	hops    int     // completed remote Step exchanges of this attempt
	retries int
	req     any                    // StepReq{key}, boxed once
	onStep  transport.ResponseFunc // l.handleStep, bound once
}

// startLookup runs l from this node's own tables. A key this node can
// answer itself costs no record. A finger refresh (l.holder) asks the
// finger's holder first: a holder that still owns the key answers in
// one hop.
func (n *Node) startLookup(l lookup) {
	l.n = n
	if !n.Running() {
		l.finish(NodeRef{}, ErrNotRunning)
		return
	}
	step := n.localStep(l.key)
	if step.Done {
		l.finish(step.Next, nil)
		return
	}
	if l.holder {
		if rt := n.Routing(); !rt.Fingers[l.finger].IsZero() && rt.Fingers[l.finger].Addr != rt.Self.Addr {
			l.start(rt.Fingers[l.finger])
			return
		}
		l.holder = false
	}
	l.start(step.Next)
}

// lookupRetries is how many times a lookup restarts from this node's
// own tables after hitting a dead node.
const lookupRetries = 3

// maxLookupHops bounds one iterative lookup: twice the O(log n) worst
// case of a converged ring, plus slack for tables under repair.
func maxLookupHops(space ident.Space) int { return 2*int(space.Bits()) + 8 }

// lookupVia starts an iterative lookup at an arbitrary address (used
// before this node is part of the ring).
func (n *Node) lookupVia(start transport.Addr, key ident.ID, cb func(NodeRef, error)) {
	lookup{n: n, key: key, cb: cb}.start(NodeRef{Addr: start})
}

// start asks the lookup's first remote node. Binding the step callback
// takes l's address, which moves this copy of the record to the heap:
// the one the rest of the lookup runs on.
func (l lookup) start(at NodeRef) {
	l.retries = lookupRetries
	l.req = StepReq{Key: l.key}
	l.onStep = l.handleStep
	l.ask(at)
}

// finish is the single terminal path of every lookup: it reports the
// outcome to the Obs hook (hops counts completed remote Step exchanges;
// retried attempts report only the final attempt's hops) and then hands
// the answer over.
func (l *lookup) finish(ref NodeRef, err error) {
	n := l.n
	if h := n.cfg.Obs.LookupDone; h != nil {
		h(l.hops, err)
	}
	if l.cb != nil {
		l.cb(ref, err)
		return
	}
	if err != nil {
		return // transient; a later fixFingers round retries
	}
	n.mu.Lock()
	if n.running {
		n.setFingerLocked(l.finger, ref)
	}
	n.mu.Unlock()
}

// ask sends the lookup's next Step to at.
func (l *lookup) ask(at NodeRef) {
	n := l.n
	if limit := maxLookupHops(n.cfg.Space); l.hops > limit {
		l.finish(NodeRef{}, fmt.Errorf("%w: hop limit %d exceeded for key %v", ErrLookupFailed, limit, l.key))
		return
	}
	l.at = at
	n.ep.Call(at.Addr, MsgStep, l.req, l.onStep)
}

func (l *lookup) handleStep(payload any, err error) {
	n, at := l.n, l.at
	if err != nil {
		n.report(at.Addr, ChordFailed, err)
		if l.holder {
			l.holder = false // the holder's Step is not one of the retries
		} else {
			l.retries--
		}
		if l.retries >= 0 && n.Running() {
			l.restart()
			return
		}
		l.finish(NodeRef{}, fmt.Errorf("%w: %v unreachable: %v", ErrLookupFailed, at.Addr, err))
		return
	}
	n.report(at.Addr, ChordOK, nil)
	l.hops++
	resp, ok := payload.(StepResp)
	switch {
	case !ok:
		l.finish(NodeRef{}, fmt.Errorf("%w: bad step reply %T", ErrLookupFailed, payload))
	case resp.Done:
		l.finish(resp.Next, nil)
	case l.holder:
		// The holder no longer owns the key: look it up as any key.
		l.holder = false
		l.restart()
	case resp.Next.IsZero() || resp.Next.Addr == at.Addr:
		l.finish(NodeRef{}, fmt.Errorf("%w: no progress at %v for key %v", ErrLookupFailed, at, l.key))
	default:
		l.ask(resp.Next)
	}
}

// restart runs the lookup again from this node's own tables.
func (l *lookup) restart() {
	l.hops = 0
	if step := l.n.localStep(l.key); step.Done {
		l.finish(step.Next, nil)
	} else {
		l.ask(step.Next)
	}
}

// --- maintenance ---

// stabilize runs one round of successor stabilization: verify the
// successor's predecessor, adopt a closer successor if one appeared,
// refresh the successor list, and notify the successor about us unless
// it already names us its predecessor. A successor list that changed is
// pushed one hop back: the predecessor, whose list is built from ours,
// gets a change notice.
func (n *Node) stabilize() {
	n.mu.Lock()
	rt := n.rt
	if !n.running || len(rt.Succs) == 0 {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	succ, self, pred := rt.Succs[0], rt.Self, rt.Pred

	if h := n.cfg.Obs.StabilizeRound; h != nil {
		h()
	}

	if succ.Addr == self.Addr {
		// Alone. If someone notified us, adopt them to close a 2-ring.
		if !pred.IsZero() && pred.Addr != self.Addr {
			n.mu.Lock()
			n.setSuccsLocked(pred)
			n.mu.Unlock()
		}
		return
	}

	n.ep.Call(succ.Addr, MsgGetState, GetStateReq{}, func(payload any, err error) {
		if err != nil {
			n.report(succ.Addr, ChordFailed, err)
			return
		}
		n.report(succ.Addr, ChordOK, nil)
		resp, ok := payload.(StateResp)
		if !ok {
			return
		}
		n.mu.Lock()
		cur, selfRef := n.rt.Succs, n.rt.Self
		if len(cur) == 0 || cur[0].Addr != succ.Addr {
			n.mu.Unlock()
			return // successor changed underneath us; next round handles it
		}
		newSucc := succ
		x := resp.Predecessor
		if !x.IsZero() && x.Addr != selfRef.Addr && n.space.Between(x.ID, selfRef.ID, succ.ID) {
			newSucc = x
		}
		// Rebuild the successor list: newSucc first, then the verified old
		// successor and its successors as fallbacks. Keeping succ in the
		// list is essential: x comes from succ's possibly stale predecessor
		// pointer, and if x turns out dead the node must fall back to succ,
		// not collapse to believing it is alone (a lone node declares
		// itself root of every aggregation tree).
		//
		// Build into node-owned scratch: a quiet ring rebuilds the same
		// list every round, setSuccsLocked then keeps the published view
		// (and its Version), and the round allocates nothing.
		list := append(n.succScratch[:0], newSucc)
		appendRef := func(s NodeRef) {
			if len(list) >= n.cfg.SuccessorListLen || s.IsZero() || s.Addr == selfRef.Addr {
				return
			}
			for _, have := range list {
				if have.Addr == s.Addr {
					return
				}
			}
			list = append(list, s)
		}
		appendRef(succ)
		for _, s := range resp.Successors {
			appendRef(s)
		}
		n.succScratch = list
		changed := n.setSuccsLocked(list...)
		pred := n.rt.Pred
		n.mu.Unlock()
		notify := newSucc.Addr != succ.Addr || x.Addr != selfRef.Addr
		if notify {
			n.Send(newSucc.Addr, MsgNotify, NotifyReq{Candidate: selfRef})
		}
		if changed && !pred.IsZero() && pred.Addr != selfRef.Addr && !(notify && pred.Addr == newSucc.Addr) {
			n.Send(pred.Addr, MsgNotify, NotifyReq{Candidate: selfRef})
		}
	})
}

// fixFingers refreshes the next fingersPerRound finger entries by
// looking up their interval starts, each first at its current holder.
func (n *Node) fixFingers() {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	bits := int(n.space.Bits())
	first := n.nextFix
	n.nextFix = (n.nextFix + fingersPerRound) % bits
	self := n.rt.Self
	n.mu.Unlock()

	// Walk the same window the retired idxs slice used to hold; the
	// cursor math above replaces a per-round allocation.
	for i := 0; i < fingersPerRound; i++ {
		j := (first + i) % bits
		n.startLookup(lookup{key: n.space.FingerStart(self.ID, uint(j)), finger: j, holder: true})
	}
}

// checkPredecessor clears a dead predecessor so a live candidate can
// replace it at the next notify. A predecessor that called this node
// within the last PingEvery is alive by first-hand evidence and is not
// pinged.
func (n *Node) checkPredecessor() {
	n.mu.Lock()
	rt := n.rt
	running := n.running
	heard := n.heardFrom == rt.Pred.Addr && n.clock.Now()-n.heardAt < n.cfg.PingEvery
	n.mu.Unlock()
	pred := rt.Pred
	if !running || pred.IsZero() || pred.Addr == rt.Self.Addr || heard {
		return
	}
	n.ep.Call(pred.Addr, MsgPing, PingReq{}, func(_ any, err error) {
		if err == nil {
			n.report(pred.Addr, ChordOK, nil)
			return
		}
		// The eviction verdict clears the predecessor via
		// removeDeadLocked only at the second strike: one lost ping on a
		// lossy network must not blank the predecessor, or this node may
		// transiently believe it owns someone else's arc — and a false
		// root silently swallows aggregation subtrees.
		n.report(pred.Addr, ChordFailed, err)
	})
}

// Send fires a best-effort datagram for any layer and reports an error
// to the peer's health record. Must not be called with n.mu held: an
// eviction takes it.
func (n *Node) Send(to transport.Addr, typ string, payload any) error {
	err := n.ep.Send(to, typ, payload)
	if err != nil {
		n.report(to, SendFailed, err)
	}
	return err
}
