package core

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
)

// This file is the delivery-assurance layer for DAT updates
// (DESIGN.md §10). Fire-and-forget updates lose a whole subtree for the
// rest of the slot when the parent has crashed, and lose the round
// entirely when the root has; here updates become acknowledged
// exchanges answered by their datagram's verdict, re-sent at once with
// the rest of a lost datagram, failed over in-slot under the §3.4
// finger-limiting constraint, and handed over to a standby root via the
// successor list.

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
// before failing over to the next candidate; maxCandidates bounds how
// many distinct parents one pending aggregate is offered to before
// giving up (the next slot retries from scratch anyway).
const (
	deliveryAttempts = 2
	maxCandidates    = 3
)

// DeliveryConfig tunes the delivery-assurance layer.
type DeliveryConfig struct {
	// AckTimeout bounds one delivery attempt: a datagram unanswered this
	// long after its first enqueue fails every element it carries and
	// costs its destination one failure (DESIGN.md §10). Keep it well
	// below the slot duration so failover completes in-slot. It also
	// bounds how long a parent waits for an expected child's report
	// (NodeConfig.HoldPerLevel). Default 150ms.
	AckTimeout time.Duration
}

func (c DeliveryConfig) withDefaults() DeliveryConfig {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 150 * time.Millisecond
	}
	return c
}

// The jitter sources of this package are FNV-1a hashes (hash/fnv's
// New64a, written out so that hashing allocates nothing) of who, whom
// and a counter. No RNG is drawn, so enabling the send machine or the
// avoid verdict cannot perturb a simulation's event randomness: datcheck
// traces stay byte-identical per seed.
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
// refusing; empty for none). It is a pure function of its arguments —
// nothing is maintained per tree (§2.3) — which is what lets
// parentLocked memoise the no-exclusion answer per routing version.
func parentFrom(rt *chord.Routing, scheme Scheme, key ident.ID, excluded []transport.Addr) parentChoice {
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
		if s.IsZero() || s.Addr == self.Addr || slices.Contains(excluded, s.Addr) {
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
		if f.IsZero() || f.Addr == self.Addr || slices.Contains(excluded, f.Addr) {
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
		if s.IsZero() || s.Addr == self.Addr || slices.Contains(excluded, s.Addr) {
			continue
		}
		return parentChoice{parent: s, keyRoot: space.InHalfOpen(key, self.ID, s.ID), ok: true}
	}
	return parentChoice{}
}

// delivery tracks one pending acked update through retries, parent
// failover and root handover. It owns no timer: every attempt is
// answered by the verdict on the datagram that carried it, and a retry
// is re-enqueued inside that verdict. All transport and hook work
// happens outside both d.mu and Node.mu (the locksafe copy-out
// discipline). gen is the fence: it moves when an attempt is sent or
// answered and when the delivery starts over, and every continuation —
// verdict, the steps of fail — owns the generation it was started under
// and stops at the first lock under which that is no longer current. A
// tree's delivery lives in its aggEntry (an epoch's, in its bucket) and
// is reused slot after slot with gen kept monotone, so slot t's verdict
// arriving after slot t+1 took the record over is just stale.
type delivery struct {
	n *Node
	e *aggEntry // the tree (d is e.deliv); nil for an epoch's flush

	mu    sync.Mutex
	key   ident.ID // under mu: a row reused for another key rewrites it
	msg   UpdateMsg
	gen   uint64
	cur   chord.NodeRef
	start time.Duration // when the first attempt was sent
	// tried[:cands-1] are the candidates given up on.
	tried      [maxCandidates]transport.Addr
	done       bool
	curKeyRoot bool  // current candidate is believed successor(key)
	attempt    uint8 // attempts on the current candidate
	total      uint8 // attempts across all candidates
	cands      uint8 // distinct candidates tried
}

// deliverUpdate starts the acked delivery of msg toward parent on d, the
// record of msg's tree or epoch: a new slot's aggregate makes the
// pending one moot.
func (n *Node) deliverUpdate(d *delivery, parent chord.NodeRef, parentIsKeyRoot bool, msg *UpdateMsg) {
	d.sendAttempt(d.begin(parent, parentIsKeyRoot, msg))
}

// begin takes d over for msg toward parent and returns the generation
// its first attempt is sent under (sendAttempt). A slot tick begins its
// delivery holding Node.mu, so a row stopped before the attempt leaves
// it inert.
func (d *delivery) begin(parent chord.NodeRef, parentIsKeyRoot bool, msg *UpdateMsg) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++
	d.msg, d.done = *msg, false
	d.cur, d.curKeyRoot = parent, parentIsKeyRoot
	d.attempt, d.total, d.cands = 0, 0, 1
	return d.gen
}

// cancel abandons the delivery, completion hooks unfired: its tree stopped.
func (d *delivery) cancel() {
	d.mu.Lock()
	d.done = true
	d.mu.Unlock()
}

// busy reports whether a delivery started on d is still under way.
func (d *delivery) busy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen != 0 && !d.done
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
	to, key := d.cur.Addr, d.key
	el := BatchElem{Kind: batchKindUpdate, Update: d.msg}
	el.Update.SentAt = int64(n.clock.Now())
	retry := d.total > 1
	if !retry {
		d.start = time.Duration(el.Update.SentAt)
	}
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
		h(key)
	}
	n.sm.enqueue(to, &el, sinkRef{d, g})
}

// current implements ackSink: the attempt queued under g is still the
// one the delivery waits on.
func (d *delivery) current(g uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.done && d.gen == g
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
// re-send to the same candidate at once, or fail over to the next
// candidate under the finger-limiting constraint, or give up. A lost
// datagram fails all its elements in one verdict loop, so their
// re-sends, and their failovers to a common next candidate, fill one
// fresh queue and leave as one datagram.
func (d *delivery) fail(g uint64, to transport.Addr, refused bool) {
	n := d.n
	d.mu.Lock()
	if d.done || d.gen != g {
		d.mu.Unlock()
		return
	}
	if !refused && d.attempt < deliveryAttempts {
		d.mu.Unlock()
		d.sendAttempt(g)
		return
	}
	// Candidate exhausted (or refused outright): fail over.
	key := d.key
	d.tried[d.cands-1] = to
	tried, k := d.tried, d.cands // tried[:k]: every candidate given up on
	wasKeyRoot := d.curKeyRoot
	d.attempt = 0
	d.cands++
	d.mu.Unlock()
	if k == maxCandidates {
		d.finish(g, false)
		return
	}
	rt := n.ch.Routing()
	pc := parentFrom(rt, n.cfg.Scheme, key, tried[:k])
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
	n.debug(what, key, "failed", to, role, parent.Addr)
	if d.e != nil {
		// The failed candidate — if it was merely slow, not dead — must
		// not keep our subtree in its child cache while it also travels
		// the new path. The parent that last acked is detached by the
		// new parent's ack instead (ackedBy). A peer avoided as DAT
		// parent is not acking: a detach at it every failover flap is the
		// wasted traffic fail-fast exists to stop, and its child cache
		// forgets us by TTL regardless.
		n.mu.Lock()
		acked := d.e.lastParent
		n.mu.Unlock()
		if ok, _ := n.ch.MayCarryDAT(to, false); ok && to != acked {
			n.sm.enqueue(to, &BatchElem{Kind: batchKindDetach, Detach: DetachMsg{Key: key, Sender: rt.Self}}, sinkRef{})
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
	attempts, key := d.total, d.key
	latency := n.clock.Now() - d.start
	to := d.cur.Addr
	d.mu.Unlock()
	if ok && d.e != nil {
		n.ackedBy(d.e, to)
	}
	if h := n.cfg.Obs.DeliveryDone; h != nil {
		h(ok, int(attempts), latency)
	}
	if !ok && n.debugOn() {
		n.cfg.Logger.Debug("update delivery gave up", "key", key, "attempts", attempts)
	}
}
