package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/chord"
	"repro/internal/transport"
)

// This file is the batched update transport — the "send machine"
// (DESIGN.md §12). The acked delivery layer (delivery.go) emits one
// datagram per child-update per tree per slot; with T concurrent trees
// a node sends O(T) datagrams per slot even though most of them share
// the same O(log n) parents. The send machine queues pending updates
// and detaches per destination, sends everything bound for the same
// parent as one BatchMsg envelope — the only wire form either takes —
// and piggybacks the per-element UpdateAcks on the single BatchAck
// reply, so the datagrams/slot cost collapses from O(T) toward O(log n).
// The datagram is the unit of the ack deadline and of peer-health
// evidence: one lost datagram is one failure (DESIGN.md §10).
//
// Determinism: flush deadlines are jittered like the retry backoff, by
// delivery.go's draw-free hash, so batching consumes no RNG either.

// MsgBatch carries the updates/detaches of one flush, all bound for one
// destination; the reply is a BatchAck with one UpdateAck per element.
const MsgBatch = "dat.batch"

// BatchElem kinds. Wire-format constants — never renumber.
const (
	batchKindUpdate byte = 1
	batchKindDetach byte = 2
)

// BatchElem is one queued message inside a BatchMsg. Kind selects which
// payload field is live; both fields always travel (a zero DetachMsg
// costs a handful of bytes) so the codec stays a fixed-shape product
// type rather than a tagged union the wire package's reflective gob
// oracle cannot walk.
type BatchElem struct {
	Kind   byte
	Update UpdateMsg
	Detach DetachMsg
}

// BatchMsg is the coalesced envelope: every element was bound for the
// same destination and is dispatched there in queue (FIFO) order.
type BatchMsg struct {
	Elems []BatchElem
}

// BatchAck acknowledges a BatchMsg: Acks[i] is the receiver's verdict
// on Elems[i] ("cycle"/"no-slot" refusals route around without a
// failure-detector strike).
type BatchAck struct {
	Acks []UpdateAck
}

// BatchConfig tunes the send machine.
type BatchConfig struct {
	// MaxBytes flushes the queue once its estimated encoded size
	// reaches this many bytes; keep it under the path MTU so one flush
	// stays one datagram. Default 1200.
	MaxBytes int
	// MaxDelay bounds how long the first queued element may wait for
	// company before the queue is flushed anyway. Keep it below
	// HoldPerLevel so parents still fold fresh child values, and well
	// below the delivery AckTimeout. Default 5ms.
	MaxDelay time.Duration
	// MaxElems flushes the queue once it holds this many elements; 1
	// sends every update/detach as its own one-element datagram, the
	// unbatched protocol. Default 32.
	MaxElems int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1200
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5 * time.Millisecond
	}
	if c.MaxElems <= 0 {
		c.MaxElems = 32
	}
	return c
}

// elemEstimate is a cheap upper-ish bound on one element's encoded
// size. It only steers the MaxBytes flush trigger — the real encoding
// happens once per flush in the codec — so a constant plus the variable
// string fields is accurate enough.
func elemEstimate(el *BatchElem) int {
	switch el.Kind {
	case batchKindUpdate:
		return 72 + len(el.Update.Sender.Addr) + len(el.Update.FailedRoot)
	case batchKindDetach:
		return 16 + len(el.Detach.Sender.Addr)
	}
	return 8
}

// frameOverhead estimates the per-datagram bytes a coalesced element
// avoids: the wire envelope header (magic, version, kind, seq, type,
// from) plus the UDP/IP headers. Feeds the bytes-saved telemetry only.
const frameOverhead = 48

// ackSink receives the verdict on one element handed to the send
// machine: the receiver's UpdateAck, or the error that befell its
// datagram — transport.ErrTimeout at its ack deadline, ErrSendClosed
// too: a refused element is always answered. Elements are queued as
// (sink, gen) pairs, not closures: gen is the token the element was
// queued with, the sink's fence against a verdict that outlived the
// attempt it answers.
type ackSink interface {
	onAck(gen uint64, ack UpdateAck, err error)
}

type sinkRef struct {
	sink ackSink // nil: nobody waits for the verdict
	gen  uint64
}

func (r sinkRef) fire(ack UpdateAck, err error) {
	if r.sink != nil {
		r.sink.onAck(r.gen, ack, err)
	}
}

// sendMachine queues outbound acked calls per destination and flushes
// them as coalesced batches. All transport and hook work happens
// outside sm.mu (the locksafe copy-out discipline); deadline timers are
// fenced by a per-record generation so a flush triggered by size races
// cleanly with its own deadline, and a reply with its ack deadline.
type sendMachine struct {
	n   *Node
	cfg BatchConfig

	mu     sync.Mutex
	queues map[transport.Addr]*destQueue
	// free holds records for reuse: a queue taken off the map is its
	// datagram's flight record until the reply, then comes back here
	// with its sink slice. Only the element slice is
	// made per fill (elemHint long, like the last): the transport, and
	// an in-process receiver, go on reading it after the flush.
	free     []*destQueue
	records  []*destQueue // every record made: where Close finds the flights
	elemHint int
	// seqs is the per-destination timer-arming counter feeding the
	// deadline jitter. It lives outside destQueue so queue GC (idle
	// entries are deleted once drained) cannot reset the jitter
	// sequence: the delays a destination sees are identical whether or
	// not its queue was collected in between.
	seqs map[transport.Addr]uint64
	// genSeq issues queue generations. Drawing them from one monotone
	// counter keeps deadline timers fenced across GC and reuse: a timer
	// armed against one fill of a record can never match a later one.
	genSeq uint64
	closed bool

	// Queue accounting (guarded by mu; OverloadStats reads it). Nothing
	// polices totalBytes: every queue is flushed on reaching a batch
	// threshold, so bytes at rest stay below peers x MaxBytes (DESIGN.md
	// §14).
	totalBytes int    // sum of queue byte estimates
	hiWater    int    // max totalBytes ever left at rest
	rejected   uint64 // enqueues refused with ErrSendClosed
}

// destQueue is one destination's pending elements — and the TimerTask
// of their flush deadline — then the flight record of their datagram
// and the TimerTask of its ack deadline.
type destQueue struct {
	n     *Node
	to    transport.Addr
	elems []BatchElem
	sinks []sinkRef
	bytes int
	gen   uint64 // from sm.genSeq; stale deadline timers no-op
	// firstAt is when the head element was queued: queue-age telemetry,
	// and where the flight's ack deadline is counted from.
	firstAt time.Duration
	timer   transport.Timer // the flush deadline, then the ack deadline
	armed   bool            // queued: timer is set; in flight: the datagram has an ack deadline
	// In flight, under sm.mu: the reply or the ack deadline, whichever
	// sets answered, answers the sinks; holds counts the Call and a
	// deadline still answering, and the last one out recycles q.
	answered bool
	holds    int
	reply    transport.ResponseFunc // q.onReply, bound once per record
}

func newSendMachine(n *Node, cfg BatchConfig) *sendMachine {
	return &sendMachine{
		n: n, cfg: cfg.withDefaults(),
		queues: make(map[transport.Addr]*destQueue),
		seqs:   make(map[transport.Addr]uint64),
	}
}

// enqueue is the one road onto the wire for an update or detach
// (DESIGN.md §12): a closed machine refuses the element with
// ErrSendClosed; otherwise it is appended to its destination's queue,
// which is flushed at once if a size trigger tripped, else its deadline
// timer is armed. Peer health is asked before: every update comes from
// delivery.sendAttempt, which has just asked the record; a detach has
// no sink, as nobody waits for it.
func (sm *sendMachine) enqueue(to transport.Addr, el *BatchElem, ref sinkRef) {
	n := sm.n
	est := elemEstimate(el)
	now := n.clock.Now()

	sm.mu.Lock()
	if sm.closed {
		sm.rejected++
		sm.mu.Unlock()
		// Typed rejection instead of racing the drained machine back onto
		// the wire; the sink is still answered.
		ref.fire(UpdateAck{}, ErrSendClosed)
		return
	}

	q := sm.queues[to]
	if q == nil {
		if k := len(sm.free); k > 0 {
			q, sm.free = sm.free[k-1], sm.free[:k-1]
		} else {
			q = &destQueue{n: n}
			q.reply = q.onReply
			sm.records = append(sm.records, q)
		}
		sm.genSeq++
		q.to, q.gen, q.firstAt = to, sm.genSeq, now
		if sm.elemHint > 1 {
			q.elems = make([]BatchElem, 0, sm.elemHint)
		}
		sm.queues[to] = q
	}
	q.elems = append(q.elems, *el)
	q.sinks = append(q.sinks, ref)
	q.bytes += est
	sm.totalBytes += est

	var reason string
	switch {
	case len(q.elems) >= sm.cfg.MaxElems:
		reason = "elems"
	case q.bytes >= sm.cfg.MaxBytes:
		reason = "bytes"
	}
	if reason != "" {
		stop := sm.takeLocked(q)
		sm.mu.Unlock()
		stop.Stop()
		sm.flush(q, reason)
		return
	}
	// Hi-water is bytes at rest: what a flush takes in the same call
	// never waited in memory.
	if sm.totalBytes > sm.hiWater {
		sm.hiWater = sm.totalBytes
	}
	armed, gen := q.armed, q.gen
	if !armed {
		sm.seqs[to]++
	}
	seq := sm.seqs[to]
	sm.mu.Unlock()
	if armed {
		return // deadline already armed for this queue
	}

	t := n.clock.AfterRun(sm.deadline(to, seq), q, int32(gen))
	sm.mu.Lock()
	if sm.closed || sm.queues[to] != q || q.gen != gen {
		sm.mu.Unlock()
		t.Stop() // the queue flushed (or drained) while we armed the timer
		return
	}
	q.timer, q.armed = t, true
	sm.mu.Unlock()
}

// deadline derives the flush delay for one queue fill: MaxDelay minus a
// deterministic jitter in [0, MaxDelay/4), so co-located nodes whose
// slots tick in lockstep de-phase their flushes without drawing from
// any RNG.
func (sm *sendMachine) deadline(to transport.Addr, seq uint64) time.Duration {
	d := sm.cfg.MaxDelay
	quarter := uint64(d / 4)
	if quarter == 0 {
		return d
	}
	return d - time.Duration(fnvUint64(fnvAddr(fnvAddr(fnvOffset, sm.n.ep.Addr()), to), seq)%quarter)
}

// RunEvent implements transport.TimerTask: the deadline armed under
// generation op (its low 32 bits) expired. A queued record is flushed.
// A flight nobody answered yet times out: every element fails with
// transport.ErrTimeout, the datagram with one failure. Any other timer
// is stale — taking a queue, and each later fill, draws a new generation.
func (q *destQueue) RunEvent(op int32) {
	sm := q.n.sm
	sm.mu.Lock()
	switch {
	case uint32(q.gen) != uint32(op):
		sm.mu.Unlock()
	case sm.queues[q.to] == q:
		sm.takeLocked(q)
		sm.mu.Unlock()
		sm.flush(q, "deadline")
	case q.armed && !q.answered:
		q.answered, q.timer = true, transport.Timer{}
		q.holds++
		sm.mu.Unlock()
		q.answer(nil, transport.ErrTimeout)
		sm.release(q)
	default:
		sm.mu.Unlock()
	}
}

// takeLocked takes the queue off the map — idle destinations hold no
// memory under churny membership — and gives it a fresh generation, so
// timers armed against this fill can never fire against a later one.
// The caller owns q from here: it flushes it (q becomes the datagram's
// flight record) or recycles it, and stops the returned deadline timer
// outside the lock. Callers hold sm.mu.
func (sm *sendMachine) takeLocked(q *destQueue) (stop transport.Timer) {
	stop = q.timer
	q.timer, q.armed = transport.Timer{}, false
	sm.elemHint = len(q.elems)
	sm.totalBytes -= q.bytes
	q.bytes = 0
	sm.genSeq++
	q.gen = sm.genSeq
	delete(sm.queues, q.to)
	return stop
}

// release drops one hold on a flight record; the last one recycles it.
func (sm *sendMachine) release(q *destQueue) {
	sm.mu.Lock()
	if q.holds--; q.holds == 0 {
		clear(q.sinks)
		q.elems, q.sinks, q.armed = nil, q.sinks[:0], false
		sm.free = append(sm.free, q)
	}
	sm.mu.Unlock()
}

// flush puts one taken queue's worth of traffic on the wire as one
// BatchMsg, however many elements it holds; the reply — or the ack
// deadline, counted from the head element's enqueue — answers the
// per-element sinks in order. Only a datagram some sink waits on has a
// deadline and is evidence; a flush at Close arms none.
func (sm *sendMachine) flush(q *destQueue, reason string) {
	n := sm.n
	elems := q.elems // never empty: a queue exists from its first element
	q.elems = nil    // given away: the transport may re-read it until the reply
	if h := n.cfg.Obs.BatchFlush; h != nil {
		h(reason, len(elems), (len(elems)-1)*frameOverhead)
	}
	// Every element on the wire counts into the node's own load
	// (DESIGN.md §13) and its tree's TreeSent hook; a retry counts again.
	for i := range elems {
		el := &elems[i]
		key, typ, est := el.Update.Key, MsgUpdate, elemEstimate(el)
		if el.Kind == batchKindDetach {
			key, typ = el.Detach.Key, MsgDetach
		} else {
			n.loadMsgs.Add(1)
		}
		n.loadBytes.Add(uint64(est))
		if h := n.cfg.Obs.TreeSent; h != nil {
			h(key, typ, est)
		}
	}
	sm.mu.Lock()
	q.answered, q.holds = false, 1
	q.armed = !sm.closed && slices.ContainsFunc(q.sinks, func(r sinkRef) bool { return r.sink != nil })
	armed, gen := q.armed, q.gen
	sm.mu.Unlock()
	if armed {
		t := n.clock.AfterRun(q.firstAt+n.cfg.Delivery.AckTimeout-n.clock.Now(), q, int32(gen))
		sm.mu.Lock()
		if q.answered || !q.armed { // a deadline already past, or Close
			defer t.Stop()
		} else {
			q.timer = t
		}
		sm.mu.Unlock()
	}
	n.ep.Call(q.to, MsgBatch, BatchMsg{Elems: elems}, q.reply)
}

// onReply is the Call callback of the datagram q carries: unless its
// ack deadline answered first, it answers the sinks.
func (q *destQueue) onReply(payload any, err error) {
	sm := q.n.sm
	sm.mu.Lock()
	mine, stop := !q.answered, q.timer
	q.answered, q.timer = true, transport.Timer{}
	sm.mu.Unlock()
	stop.Stop()
	if mine {
		q.answer(payload, err)
	}
	sm.release(q)
}

// answer gives every sink its element's verdict. A failed datagram — or
// a reply that is not a BatchAck with one ack per element — fails every
// element alike. A datagram with an ack deadline is first one piece of
// evidence about its destination: failed without a well-formed reply,
// acked when any element was, refused when every element was.
func (q *destQueue) answer(payload any, err error) {
	ba, ok := payload.(BatchAck)
	if err == nil && (!ok || len(ba.Acks) != len(q.sinks)) {
		err = fmt.Errorf("core: bad batch ack %T (%d acks for %d elems)", payload, len(ba.Acks), len(q.sinks))
	}
	if q.armed {
		ev := chord.DATFailed
		if err == nil {
			ev = chord.DATRefused
			if slices.ContainsFunc(ba.Acks, func(a UpdateAck) bool { return a.OK }) {
				ev = chord.DATAcked
			}
		}
		q.n.reportDAT(q.to, ev, err)
	}
	for i, ref := range q.sinks {
		if err != nil {
			ref.fire(UpdateAck{}, err)
		} else {
			ref.fire(ba.Acks[i], nil)
		}
	}
}

// Close drains every queue (flushing pending traffic immediately) and
// stops all deadline timers, the ack deadlines of flights already on the
// wire included: from here only replies answer, and they are no
// evidence. Later enqueues are refused with ErrSendClosed, so their
// sinks are still answered instead of racing shutdown onto the wire. The
// destinations are flushed in sorted order so shutdown traffic is
// deterministic.
func (sm *sendMachine) Close() {
	sm.mu.Lock()
	if sm.closed {
		sm.mu.Unlock()
		return
	}
	sm.closed = true
	all := make([]*destQueue, 0, len(sm.queues))
	var stops []transport.Timer
	for _, q := range sm.queues {
		all = append(all, q)
		stops = append(stops, sm.takeLocked(q))
	}
	for _, q := range sm.records {
		if q.armed && !q.answered { // a flight: taken queues are not armed
			stops, q.timer, q.armed = append(stops, q.timer), transport.Timer{}, false
		}
	}
	sm.mu.Unlock()
	for _, t := range stops {
		t.Stop()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].to < all[j].to })
	for _, q := range all {
		sm.flush(q, "drain")
	}
}

// handleBatch is the one door for child updates and detaches: it
// applies each element of the envelope in order and returns the verdicts
// as one BatchAck.
func (n *Node) handleBatch(req *transport.Request) {
	bm, ok := req.Payload.(BatchMsg)
	if !ok {
		req.ReplyError(fmt.Errorf("core: bad batch payload %T", req.Payload))
		return
	}
	acks := make([]UpdateAck, len(bm.Elems))
	for i := range bm.Elems {
		switch el := &bm.Elems[i]; el.Kind {
		case batchKindUpdate:
			acks[i] = n.applyUpdate(req.From, &el.Update)
		case batchKindDetach:
			acks[i] = n.applyDetach(req.From, el.Detach.Key)
		default:
			acks[i] = UpdateAck{Reason: "bad-elem"}
		}
	}
	req.Reply(BatchAck{Acks: acks})
}
