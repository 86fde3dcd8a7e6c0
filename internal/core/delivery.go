package core

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
)

// This file is the delivery-assurance layer for DAT updates
// (DESIGN.md §10). Fire-and-forget updates lose a whole subtree for the
// rest of the slot when the parent has crashed, and lose the round
// entirely when the root has; here MsgUpdate/MsgDetach become
// acknowledged exchanges with per-attempt timeouts, jittered exponential
// backoff, in-slot parent failover under the §3.4 finger-limiting
// constraint, and root handover via the successor list.

// UpdateAck acknowledges an UpdateMsg or DetachMsg. OK=false reports a
// live receiver that refused the update ("cycle" or "no-slot"): the
// sender routes around it without feeding the failure detector —
// refusal proves liveness.
type UpdateAck struct {
	OK     bool
	Reason string
}

// handoverSlots is how many slots a node holds assumed rootship after
// receiving a handover update. It must bridge the gap until the ring
// elects it (or another node) successor(key) naturally — predecessor
// eviction takes up to two failure-detector ping rounds — and must
// expire within the datcheck settle quiesce (7 slots) so a converged
// ring has exactly one root again before invariants run.
const handoverSlots = 6

// DeliveryConfig tunes the delivery-assurance layer.
type DeliveryConfig struct {
	// Disable reverts MsgUpdate/MsgDetach to fire-and-forget datagrams
	// (the pre-failover protocol). Used by ablations and by the e2e test
	// proving the layer, not luck, closes the crash gap.
	Disable bool
	// AckTimeout bounds one delivery attempt: an unacknowledged update
	// counts as failed after this long and the candidate earns a
	// failure-detector strike. Keep it well below the slot duration so
	// failover completes in-slot. Default 150ms.
	AckTimeout time.Duration
	// Attempts is how many times one candidate parent is tried before
	// failing over to the next candidate. Default 2.
	Attempts int
	// MaxCandidates bounds how many distinct parents one pending
	// aggregate is offered to before giving up (the next slot retries
	// from scratch anyway). Default 3.
	MaxCandidates int
	// Backoff is the base delay of the jittered exponential backoff
	// between attempts to the same candidate. Default 25ms.
	Backoff time.Duration
}

func (c DeliveryConfig) withDefaults() DeliveryConfig {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 150 * time.Millisecond
	}
	if c.Attempts <= 0 {
		c.Attempts = 2
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	return c
}

// jitterHash derives the deterministic jitter source for one attempt.
// No RNG is drawn, so enabling the delivery layer cannot perturb a
// simulation's event randomness: datcheck traces stay byte-identical
// per seed.
func jitterHash(addr transport.Addr, key ident.ID, epoch int64, attempt int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(key))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(epoch))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(attempt))
	h.Write(b[:])
	return h.Sum64()
}

// backoffDelay is base * 2^(attempt-1) plus deterministic jitter in
// [0, delay/2): gaps grow strictly (2^k > 1.5 * 2^(k-1)) while nodes
// that failed in the same slot de-phase from each other.
func backoffDelay(base time.Duration, attempt int, h uint64) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	} else if shift > 5 {
		shift = 5
	}
	d := base << shift
	if half := uint64(d / 2); half > 0 {
		d += time.Duration(h % half)
	}
	return d
}

// parentChoice is parentFrom's answer. keyRoot reports that the chosen
// parent is believed to be successor(key) — the tree root — which is
// what arms root handover when that parent fails too. ok is false when
// the view cannot decide yet (e.g. the predecessor is unknown right
// after joining).
type parentChoice struct {
	parent  chord.NodeRef
	isRoot  bool
	keyRoot bool
	ok      bool
}

// parentFrom picks this node's DAT parent for key from one routing
// view, skipping the candidates in excluded (found unreachable or
// refusing; nil for none). It is a pure function of its arguments —
// nothing is maintained per tree (§2.3) — which is what lets
// parentLocked memoise the no-exclusion answer per routing version.
func parentFrom(rt *chord.Routing, scheme Scheme, key ident.ID, excluded map[transport.Addr]bool) parentChoice {
	self, pred, space := rt.Self, rt.Pred, rt.Space()

	if rt.Successor().Addr == self.Addr {
		return parentChoice{parent: self, isRoot: true, ok: true} // alone: we are every tree's root
	}
	if pred.IsZero() {
		// Without a predecessor we cannot rule out being the root, and
		// guessing wrong would loop aggregates around the ring.
		return parentChoice{}
	}
	if space.InHalfOpen(key, pred.ID, self.ID) {
		return parentChoice{parent: self, isRoot: true, ok: true}
	}
	// Key owned by the nearest live successor: that successor is the
	// root. Under exclusion this walk is the root-handover rule — when
	// successor(key) is unreachable, the next live successor-list entry
	// (the node the ring will elect successor(key) once the failure
	// detector completes) stands in.
	for _, s := range rt.Succs {
		if s.IsZero() || s.Addr == self.Addr || excluded[s.Addr] {
			continue
		}
		if space.InHalfOpen(key, self.ID, s.ID) {
			return parentChoice{parent: s, keyRoot: true, ok: true}
		}
		break // the nearest live successor does not own key: use fingers
	}

	maxJ := uint(len(rt.Fingers) - 1)
	if scheme == BalancedLocal || scheme == Balanced {
		x := space.Dist(self.ID, key)
		g := ident.FingerLimit(x, rt.Gap)
		if g < maxJ {
			maxJ = g
		}
	}
	var best chord.NodeRef
	var bestRemaining uint64
	for _, f := range rt.Fingers[:maxJ+1] {
		if f.IsZero() || f.Addr == self.Addr || excluded[f.Addr] {
			continue
		}
		if !space.InHalfOpen(f.ID, self.ID, key) {
			continue
		}
		remaining := space.Dist(f.ID, key)
		if best.IsZero() || remaining < bestRemaining {
			best, bestRemaining = f, remaining
		}
	}
	if !best.IsZero() {
		return parentChoice{parent: best, ok: true}
	}
	// Successor fallback: the nearest live non-excluded successor always
	// makes progress toward key.
	for _, s := range rt.Succs {
		if s.IsZero() || s.Addr == self.Addr || excluded[s.Addr] {
			continue
		}
		return parentChoice{parent: s, keyRoot: space.InHalfOpen(key, self.ID, s.ID), ok: true}
	}
	return parentChoice{}
}

// delivery tracks one pending acked update through retries, parent
// failover and root handover. All transport and hook work happens
// outside both d.mu and Node.mu (the locksafe copy-out discipline);
// stale timer and ack callbacks are fenced by gen, which is bumped
// whenever an event for the current attempt is consumed.
type delivery struct {
	n      *Node
	e      *aggEntry // continuous entry; nil for on-demand flushes
	key    ident.ID
	demand bool

	mu          sync.Mutex
	msg         UpdateMsg
	done        bool
	gen         uint64
	cancelTimer func()
	cur         chord.NodeRef
	curKeyRoot  bool // current candidate is believed successor(key)
	attempt     int  // attempts on the current candidate
	total       int  // attempts across all candidates
	cands       int  // distinct candidates tried
	// excluded holds the candidates given up on; nil until the first one
	// is. Only fail writes it, and fail calls for one delivery never
	// overlap (each consumes the single event in flight), so parentFrom
	// reads it without a copy.
	excluded map[transport.Addr]bool
	start    time.Duration
}

// deliverUpdate starts the acked delivery of msg toward parent. For
// continuous traffic it supersedes the key's previous pending delivery:
// a new slot's aggregate makes the old one moot.
func (n *Node) deliverUpdate(e *aggEntry, parent chord.NodeRef, parentIsKeyRoot bool, msg UpdateMsg, demand bool) {
	d := &delivery{
		n: n, e: e, key: msg.Key, msg: msg, demand: demand,
		cur: parent, curKeyRoot: parentIsKeyRoot,
		cands: 1,
		start: n.clock.Now(),
	}
	if !demand && e != nil {
		n.mu.Lock()
		old := e.pending
		e.pending = d
		n.mu.Unlock()
		if old != nil {
			old.cancel()
		}
	}
	d.sendAttempt()
}

// cancel abandons the delivery without firing completion hooks (a newer
// slot superseded it).
func (d *delivery) cancel() {
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	d.done = true
	stop := d.cancelTimer
	d.cancelTimer = nil
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// sendAttempt fires one attempt at the current candidate: arm the ack
// timeout, then put the update on the wire.
func (d *delivery) sendAttempt() {
	n := d.n
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	d.attempt++
	d.total++
	d.gen++
	gen := d.gen
	to := d.cur.Addr
	msg := d.msg
	retry := d.total > 1
	d.mu.Unlock()

	// An open circuit breaker fails fast into the failover path instead
	// of burning the retry budget on a peer already known unresponsive.
	// refused=true semantics: no extra failure-detector strike, advance
	// straight to the next candidate (bounded by MaxCandidates).
	// breakerAllows admits exactly one probe once the cooldown elapses.
	if !n.breakerAllows(to) {
		d.fail(to, true)
		return
	}

	if retry {
		if h := n.cfg.Obs.UpdateRetried; h != nil {
			h(d.key)
		}
	}
	msg.SentAt = int64(n.clock.Now())
	stop := n.clock.AfterFunc(n.cfg.Delivery.AckTimeout, func() { d.onTimeout(gen) })
	d.mu.Lock()
	if d.done || d.gen != gen {
		d.mu.Unlock()
		stop()
		return
	}
	d.cancelTimer = stop
	d.mu.Unlock()
	n.batchCall(to, MsgUpdate, msg, func(payload any, err error) { d.onAck(gen, to, payload, err) })
}

// onTimeout handles an expired ack timer: the candidate earns a
// failure-detector strike (each failed attempt is one strike, so a dead
// parent is evicted from the routing tables within one retry budget).
func (d *delivery) onTimeout(gen uint64) {
	d.mu.Lock()
	if d.done || d.gen != gen {
		d.mu.Unlock()
		return
	}
	d.gen++ // consume the event: a late ack for this attempt is stale now
	d.cancelTimer = nil
	to := d.cur.Addr
	d.mu.Unlock()
	d.n.ch.Suspect(to)
	d.n.breakerFailure(to, true)
	d.fail(to, false)
}

// onAck handles the Call callback for one attempt.
func (d *delivery) onAck(gen uint64, to transport.Addr, payload any, err error) {
	d.mu.Lock()
	if d.done || d.gen != gen {
		d.mu.Unlock()
		return
	}
	d.gen++ // consume the event: the pending timeout for this attempt is stale
	stop := d.cancelTimer
	d.cancelTimer = nil
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
	if err != nil {
		if isAdmissionErr(err) {
			// The overload layer refused the send locally: degrade now
			// instead of retrying into the overload — the typed error is
			// a statement about this node's queues, not about the peer.
			d.degrade(overloadReason(err))
			d.finish(false)
			return
		}
		d.n.ch.Suspect(to)
		d.n.breakerFailure(to, true)
		d.fail(to, false)
		return
	}
	if ack, isAck := payload.(UpdateAck); isAck && !ack.OK {
		d.n.breakerFailure(to, false)
		d.fail(to, true) // live but refusing: route around without a strike
		return
	}
	d.n.breakerSuccess(to)
	d.finish(true)
}

// degrade marks the delivery's tree so its next aggregate travels
// Degraded: a shed update never silently narrows a count.
func (d *delivery) degrade(reason string) {
	if d.e == nil {
		return
	}
	n := d.n
	n.mu.Lock()
	if n.aggs[d.key] == d.e {
		d.e.shedDegraded = true
		d.e.shedReason = reason
	}
	n.mu.Unlock()
}

// overloadReason renders a typed admission error for logs and the
// shed-reason bookkeeping.
func overloadReason(err error) string {
	switch {
	case errors.Is(err, ErrBreakerOpen):
		return "breaker"
	case errors.Is(err, ErrSendClosed):
		return "closed"
	default:
		return "overload"
	}
}

// resend fires the next attempt after a backoff delay.
func (d *delivery) resend(gen uint64) {
	d.mu.Lock()
	if d.done || d.gen != gen {
		d.mu.Unlock()
		return
	}
	d.cancelTimer = nil
	d.mu.Unlock()
	d.sendAttempt()
}

// fail advances the state machine after a failed (or refused) attempt:
// retry the same candidate under backoff, or fail over to the next
// candidate under the finger-limiting constraint, or give up.
func (d *delivery) fail(to transport.Addr, refused bool) {
	n := d.n
	cfg := n.cfg.Delivery
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	if !refused && d.attempt < cfg.Attempts {
		gen := d.gen
		attempt := d.attempt
		epoch := d.msg.Epoch
		d.mu.Unlock()
		delay := backoffDelay(cfg.Backoff, attempt, jitterHash(n.ep.Addr(), d.key, epoch, attempt))
		stop := n.clock.AfterFunc(delay, func() { d.resend(gen) })
		d.mu.Lock()
		if d.done || d.gen != gen {
			d.mu.Unlock()
			stop()
			return
		}
		d.cancelTimer = stop
		d.mu.Unlock()
		return
	}
	// Candidate exhausted (or refused outright): fail over.
	if d.excluded == nil {
		d.excluded = make(map[transport.Addr]bool, cfg.MaxCandidates)
	}
	d.excluded[to] = true
	wasKeyRoot := d.curKeyRoot
	d.attempt = 0
	d.cands++
	give := d.cands > cfg.MaxCandidates
	d.mu.Unlock()
	if give {
		d.finish(false)
		return
	}
	rt := n.ch.Routing()
	pc := parentFrom(rt, n.cfg.Scheme, d.key, d.excluded)
	parent, keyRoot := pc.parent, pc.keyRoot
	if !pc.ok || pc.isRoot {
		// No remaining candidate, or the ring churned us into rootship
		// mid-delivery; the next slot's tick sorts it out.
		d.finish(false)
		return
	}
	handover := !d.demand && wasKeyRoot && keyRoot
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	d.cur = parent
	d.curKeyRoot = keyRoot
	d.msg.Agg.Degraded = true
	if handover {
		d.msg.Handover = true
		d.msg.FailedRoot = to
	}
	d.mu.Unlock()
	if handover {
		if h := n.cfg.Obs.RootHandover; h != nil {
			h()
		}
		n.cfg.Logger.Debug("root handover", "key", d.key.String(), "failed", string(to), "standby", string(parent.Addr))
	} else {
		if h := n.cfg.Obs.ParentFailover; h != nil {
			h()
		}
		n.cfg.Logger.Debug("parent failover", "key", d.key.String(), "failed", string(to), "new", string(parent.Addr))
	}
	if !d.demand && d.e != nil {
		// Keep the detach/2-cycle bookkeeping coherent: the pending
		// aggregate now travels via the new parent, and the failed
		// candidate — if it was merely slow, not dead — must not keep our
		// subtree in its child cache while it also travels the new path.
		n.mu.Lock()
		if n.aggs[d.key] == d.e {
			d.e.lastParent = parent.Addr
		}
		n.mu.Unlock()
		// An open breaker is positive evidence the candidate is not
		// acking: a detach datagram at it every failover flap is exactly
		// the wasted traffic fail-fast exists to stop, and its child
		// cache forgets us by TTL regardless.
		if !n.breakerOpenNow(to) {
			n.send(to, MsgDetach, DetachMsg{Key: d.key, Sender: rt.Self})
		}
	}
	d.sendAttempt()
}

// finish completes the delivery and fires the completion hook.
func (d *delivery) finish(ok bool) {
	n := d.n
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	d.done = true
	stop := d.cancelTimer
	d.cancelTimer = nil
	attempts := d.total
	latency := n.clock.Now() - d.start
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
	if d.e != nil {
		n.mu.Lock()
		if d.e.pending == d {
			d.e.pending = nil
		}
		n.mu.Unlock()
	}
	if h := n.cfg.Obs.DeliveryDone; h != nil {
		h(ok, attempts, latency)
	}
	if !ok {
		n.cfg.Logger.Debug("update delivery gave up", "key", d.key.String(), "attempts", attempts)
	}
}

// deliverDetach sends an acked detach with a bounded retry budget. A
// dead former parent forgets us via the child TTL anyway, so there is
// no failover here — just enough persistence to beat one lost datagram,
// with errors feeding the failure detector like any other failed ack.
func (n *Node) deliverDetach(to transport.Addr, dm DetachMsg) {
	if n.cfg.Delivery.Disable {
		n.send(to, MsgDetach, dm)
		return
	}
	cfg := n.cfg.Delivery
	attempt := 0
	var try func()
	try = func() {
		attempt++
		a := attempt
		n.batchCall(to, MsgDetach, dm, func(_ any, err error) {
			if err == nil {
				return
			}
			if isAdmissionErr(err) {
				return // local admission refusal: no peer evidence, no retry
			}
			n.ch.Suspect(to)
			n.breakerFailure(to, true)
			if a >= cfg.Attempts {
				return
			}
			n.clock.AfterFunc(backoffDelay(cfg.Backoff, a, jitterHash(n.ep.Addr(), dm.Key, int64(a), a)), try)
		})
	}
	try()
}
