package core

import (
	"errors"
	"sync"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
)

// This file is the delivery-assurance layer for DAT updates
// (DESIGN.md §10). Fire-and-forget updates lose a whole subtree for the
// rest of the slot when the parent has crashed, and lose the round
// entirely when the root has; here updates and detaches become
// acknowledged exchanges with per-attempt timeouts, jittered exponential
// backoff, in-slot parent failover under the §3.4 finger-limiting
// constraint, and root handover via the successor list.

// UpdateAck acknowledges an UpdateMsg or DetachMsg. OK=false reports a
// live receiver that refused the update ("cycle" or "no-slot"): the
// sender routes around it without a ring strike — refusal proves
// liveness — though refusals count toward avoiding it as DAT parent.
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

// deliveryAttempts is how many times one candidate parent is tried
// before failing over to the next candidate; deliveryBackoff is the
// base delay of the jittered exponential backoff between those attempts.
const (
	deliveryAttempts = 2
	deliveryBackoff  = 25 * time.Millisecond
)

// DeliveryConfig tunes the delivery-assurance layer.
type DeliveryConfig struct {
	// AckTimeout bounds one delivery attempt: a datagram unanswered this
	// long after its first enqueue fails every element it carries and
	// costs its destination one failure (DESIGN.md §10). Keep it well
	// below the slot duration so failover completes in-slot. Default 150ms.
	AckTimeout time.Duration
	// MaxCandidates bounds how many distinct parents one pending
	// aggregate is offered to before giving up (the next slot retries
	// from scratch anyway). Default 3.
	MaxCandidates int
}

func (c DeliveryConfig) withDefaults() DeliveryConfig {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 150 * time.Millisecond
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 3
	}
	return c
}

// The jitter sources of this package are FNV-1a hashes (hash/fnv's
// New64a, written out so that hashing allocates nothing) of who, whom
// and a counter. No RNG is drawn, so enabling the delivery layer, the
// send machine or the avoid verdict cannot perturb a simulation's event
// randomness: datcheck traces stay byte-identical per seed.
const fnvOffset, fnvPrime uint64 = 14695981039346656037, 1099511628211

func fnvAddr(h uint64, a transport.Addr) uint64 {
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * fnvPrime
	}
	return h
}

// fnvUint64 hashes x's eight bytes, least significant first.
func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ x>>i&0xff) * fnvPrime
	}
	return h
}

// jitterHash derives the jitter source for one delivery attempt.
func jitterHash(addr transport.Addr, key ident.ID, epoch int64, attempt int) uint64 {
	return fnvUint64(fnvUint64(fnvUint64(fnvAddr(fnvOffset, addr), uint64(key)), uint64(epoch)), uint64(attempt))
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

	if len(rt.Succs) == 0 {
		// Neither created nor joined yet: Successor() answers Self for an
		// empty list, which must not read as "alone".
		return parentChoice{}
	}
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
// outside both d.mu and Node.mu (the locksafe copy-out discipline).
// gen is the fence: it moves when an attempt is sent or answered and
// when the delivery starts over, and every continuation — verdict,
// backoff, the steps of fail — owns the generation it was started under
// and stops at the first lock under which that is no longer current. A
// tree's continuous delivery lives in its aggEntry and is reused slot
// after slot with gen kept monotone, so slot t's verdict arriving after
// slot t+1 took the record over is just stale.
type delivery struct {
	n   *Node
	e   *aggEntry // continuous entry (d is e.deliv); nil for on-demand flushes
	key ident.ID

	mu         sync.Mutex
	msg        UpdateMsg
	done       bool
	gen        uint64
	timer      transport.Timer // the backoff before the next attempt
	cur        chord.NodeRef
	curKeyRoot bool // current candidate is believed successor(key)
	attempt    int  // attempts on the current candidate
	total      int  // attempts across all candidates
	cands      int  // distinct candidates tried
	// excluded holds the candidates given up on; nil until the first.
	// Only fail writes it, and one delivery's fail calls never overlap
	// (each owns the single event in flight): parentFrom reads it uncopied.
	excluded map[transport.Addr]bool
	start    time.Duration
}

// deliverUpdate starts the acked delivery of msg toward parent: on e's
// own record for continuous traffic — a new slot's aggregate makes the
// pending one moot — and on a fresh one for an on-demand flush (e nil).
func (n *Node) deliverUpdate(e *aggEntry, parent chord.NodeRef, parentIsKeyRoot bool, msg *UpdateMsg) {
	var d *delivery
	if e != nil {
		d = &e.deliv
	} else {
		d = &delivery{n: n, key: msg.Key}
	}
	d.mu.Lock()
	stop := d.timer
	d.timer = transport.Timer{}
	d.gen++
	g := d.gen
	d.msg, d.done = *msg, false
	d.cur, d.curKeyRoot = parent, parentIsKeyRoot
	d.attempt, d.total, d.cands, d.excluded = 0, 0, 1, nil
	d.start = n.clock.Now()
	d.mu.Unlock()
	stop.Stop()
	d.sendAttempt(g)
}

// cancel abandons the delivery, completion hooks unfired: its tree stopped.
func (d *delivery) cancel() {
	d.mu.Lock()
	d.done = true
	stop := d.timer
	d.timer = transport.Timer{}
	d.mu.Unlock()
	stop.Stop()
}

// sendAttempt hands one attempt at the current candidate to the send
// machine, whose datagram answers it.
func (d *delivery) sendAttempt(g uint64) {
	n := d.n
	d.mu.Lock()
	if d.done || d.gen != g {
		d.mu.Unlock()
		return
	}
	d.attempt++
	d.total++
	d.gen++
	g = d.gen
	to := d.cur.Addr
	el := BatchElem{Kind: batchKindUpdate, Update: d.msg}
	retry := d.total > 1
	d.mu.Unlock()

	// A peer the health record avoids fails fast into the failover path
	// instead of burning the retry budget on it: as if refused — no
	// strike, straight to the next candidate. The record admits one
	// probe per cooldown.
	if !n.mayCarry(to) {
		d.fail(g, to, true)
		return
	}

	if h := n.cfg.Obs.UpdateRetried; retry && h != nil {
		h(d.key)
	}
	el.Update.SentAt = int64(n.clock.Now())
	n.sm.enqueue(to, &el, sinkRef{d, g})
}

// RunEvent implements transport.TimerTask: the backoff armed under
// generation op (its low 32 bits) is over.
func (d *delivery) RunEvent(op int32) {
	d.mu.Lock()
	g := d.gen
	d.mu.Unlock()
	if uint32(g) == uint32(op) {
		d.sendAttempt(g)
	}
}

// onAck implements ackSink: the verdict on the attempt queued under g —
// transport.ErrTimeout once its datagram's ack deadline passed. The
// datagram has already told the peer-health record (sendmachine.go);
// here the verdict only moves the delivery on, and a late one is stale.
func (d *delivery) onAck(g uint64, ack UpdateAck, err error) {
	d.mu.Lock()
	if d.done || d.gen != g {
		d.mu.Unlock()
		return
	}
	d.gen++
	g, to := d.gen, d.cur.Addr
	d.mu.Unlock()
	switch {
	case errors.Is(err, ErrSendClosed):
		// Refused locally, by a node shutting down: a statement about
		// this node, not about the peer — no retry.
		d.finish(g, false)
	case err != nil:
		d.fail(g, to, false)
	case !ack.OK:
		d.fail(g, to, true) // live but refusing: route around it at once
	default:
		d.finish(g, true)
	}
}

// fail advances the state machine after a failed (or refused) attempt:
// retry the same candidate under backoff, or fail over to the next
// candidate under the finger-limiting constraint, or give up.
func (d *delivery) fail(g uint64, to transport.Addr, refused bool) {
	n := d.n
	cfg := n.cfg.Delivery
	d.mu.Lock()
	if d.done || d.gen != g {
		d.mu.Unlock()
		return
	}
	if !refused && d.attempt < deliveryAttempts {
		attempt := d.attempt
		epoch := d.msg.Epoch
		d.mu.Unlock()
		delay := backoffDelay(deliveryBackoff, attempt, jitterHash(n.ep.Addr(), d.key, epoch, attempt))
		t := n.clock.AfterRun(delay, d, int32(g))
		d.mu.Lock()
		if d.done || d.gen != g {
			d.mu.Unlock()
			t.Stop()
			return
		}
		d.timer = t
		d.mu.Unlock()
		return
	}
	// Candidate exhausted (or refused outright): fail over.
	if d.excluded == nil {
		d.excluded = make(map[transport.Addr]bool, cfg.MaxCandidates)
	}
	d.excluded[to] = true
	excluded := d.excluded
	wasKeyRoot := d.curKeyRoot
	d.attempt = 0
	d.cands++
	give := d.cands > cfg.MaxCandidates
	d.mu.Unlock()
	if give {
		d.finish(g, false)
		return
	}
	rt := n.ch.Routing()
	pc := parentFrom(rt, n.cfg.Scheme, d.key, excluded)
	parent, keyRoot := pc.parent, pc.keyRoot
	if !pc.ok || pc.isRoot {
		// No remaining candidate, or the ring churned us into rootship
		// mid-delivery; the next slot's tick sorts it out.
		d.finish(g, false)
		return
	}
	handover := d.e != nil && wasKeyRoot && keyRoot
	d.mu.Lock()
	if d.done || d.gen != g {
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
	hook, what, role := n.cfg.Obs.ParentFailover, "parent failover", "new"
	if handover {
		hook, what, role = n.cfg.Obs.RootHandover, "root handover", "standby"
	}
	if hook != nil {
		hook()
	}
	n.debug(what, d.key, "failed", to, role, parent.Addr)
	if d.e != nil {
		// Keep the detach/2-cycle bookkeeping coherent: the pending
		// aggregate now travels via the new parent, and the failed
		// candidate — if it was merely slow, not dead — must not keep our
		// subtree in its child cache while it also travels the new path.
		n.mu.Lock()
		if n.aggs[d.key] == d.e {
			d.e.lastParent = parent.Addr
		}
		n.mu.Unlock()
		// A peer avoided as DAT parent is not acking: a detach at it every
		// failover flap is the wasted traffic fail-fast exists to stop,
		// and its child cache forgets us by TTL regardless.
		if ok, _ := n.ch.MayCarryDAT(to, false); ok {
			n.sm.enqueue(to, &BatchElem{Kind: batchKindDetach, Detach: DetachMsg{Key: d.key, Sender: rt.Self}}, sinkRef{})
		}
	}
	d.sendAttempt(g)
}

// finish completes the delivery and fires the completion hook.
func (d *delivery) finish(g uint64, ok bool) {
	n := d.n
	d.mu.Lock()
	if d.done || d.gen != g {
		d.mu.Unlock()
		return
	}
	d.done = true
	stop := d.timer
	d.timer = transport.Timer{}
	attempts := d.total
	latency := n.clock.Now() - d.start
	d.mu.Unlock()
	stop.Stop()
	if h := n.cfg.Obs.DeliveryDone; h != nil {
		h(ok, attempts, latency)
	}
	if !ok && n.debugOn() {
		n.cfg.Logger.Debug("update delivery gave up", "key", d.key, "attempts", attempts)
	}
}
