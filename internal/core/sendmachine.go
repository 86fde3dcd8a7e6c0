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
// evidence: one lost datagram is one failure (DESIGN.md §10). The
// deadline itself is the transport's: each flush is one CallWithin that
// carries the time its head element has left.
//
// Determinism: flush deadlines are jittered by delivery.go's draw-free
// hash, so batching consumes no RNG.

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
	// company before the queue is flushed anyway. Every level of a tree
	// adds it to the root's latency, since a parent reports only once
	// its children's updates arrive; and it counts against the delivery
	// AckTimeout, which also bounds that wait. Default 5ms.
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
// once the machine is closed: a refused element is always answered.
// Elements are queued as (sink, gen) pairs, not closures: gen is the
// token the element was queued with, the sink's fence against a verdict
// that outlived the attempt it answers.
type ackSink interface {
	onAck(gen uint64, ack UpdateAck, err error)
	// current reports whether gen is still the token the sink waits on:
	// an element whose sink moved on (its tree stopped, or a new slot
	// took the record over) is dropped at flush.
	current(gen uint64) bool
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

// stale reports whether a sink waits on the element and has moved on
// from it. A detach has no sink and is never stale.
func (r sinkRef) stale() bool { return r.sink != nil && !r.sink.current(r.gen) }

// sendMachine queues outbound acked calls per destination and flushes
// them as coalesced batches. All transport and hook work happens
// outside sm.mu (the locksafe copy-out discipline); flush deadlines are
// fenced by a per-record generation so a flush triggered by size races
// cleanly with its own deadline.
type sendMachine struct {
	n   *Node
	cfg BatchConfig

	mu     sync.Mutex
	queues map[transport.Addr]*destQueue
	// free holds up to maxFree records for reuse: a queue taken off the
	// map is its datagram's flight record until the transport answers
	// the Call, then comes back here with its sink slice. A flush hands
	// the transport an exact-size copy of the elements — the transport,
	// and an in-process receiver, go on reading it after the reply — and
	// puts the queue's element slice in bufs for the next fill, so a
	// flight holds none; a slice grown past keepElems goes to the
	// transport whole instead.
	free []*destQueue
	bufs [][]BatchElem
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

// destQueue is one destination's pending elements and the TimerTask of
// their flush deadline, then the flight record of their datagram: the
// Call's callback, answered exactly once by the transport. A flight
// owns no timer.
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
	timer   transport.Timer        // the flush deadline
	armed   bool                   // timer is set
	reply   transport.ResponseFunc // q.onReply, bound once per record
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
		}
		if k := len(sm.bufs); k > 0 {
			q.elems, sm.bufs = sm.bufs[k-1], sm.bufs[:k-1]
		} else {
			q.elems = make([]BatchElem, 0, min(sm.cfg.MaxElems, keepElems))
		}
		sm.genSeq++
		q.to, q.gen, q.firstAt = to, sm.genSeq, n.clock.Now()
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

// RunEvent implements transport.TimerTask: the flush deadline armed
// under generation op (its low 32 bits) expired, and the queue is
// flushed. A timer whose queue was taken is stale — taking a queue, and
// each later fill, draws a new generation.
func (q *destQueue) RunEvent(op int32) {
	sm := q.n.sm
	sm.mu.Lock()
	if uint32(q.gen) != uint32(op) || sm.queues[q.to] != q {
		sm.mu.Unlock()
		return
	}
	sm.takeLocked(q)
	sm.mu.Unlock()
	sm.flush(q, "deadline")
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
	sm.totalBytes -= q.bytes
	q.bytes = 0
	sm.genSeq++
	q.gen = sm.genSeq
	delete(sm.queues, q.to)
	return stop
}

// flush puts one taken queue's worth of traffic on the wire as one
// BatchMsg, however many elements it holds, as one CallWithin whose
// deadline is the ack deadline: AckTimeout counted from the head
// element's enqueue. The transport's one answer — the reply, or
// transport.ErrTimeout at that instant — answers the per-element sinks
// in order. Elements whose sinks moved on while they waited are dropped
// first, and a queue left empty sends nothing.
func (sm *sendMachine) flush(q *destQueue, reason string) {
	n := sm.n
	keep := 0
	for i, ref := range q.sinks {
		if !ref.stale() {
			q.elems[keep], q.sinks[keep] = q.elems[i], ref
			keep++
		}
	}
	clear(q.elems[keep:])
	clear(q.sinks[keep:])
	q.elems, q.sinks = q.elems[:keep], q.sinks[:keep]
	if keep == 0 {
		sm.putBuf(q)
		sm.recycle(q)
		return
	}
	elems := q.elems
	if cap(elems) <= keepElems {
		elems = slices.Clone(elems)
	}
	sm.putBuf(q) // a larger slice is the transport's now
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
	n.ep.CallWithin(q.to, MsgBatch, BatchMsg{Elems: elems}, q.firstAt+n.cfg.Delivery.AckTimeout-n.clock.Now(), q.reply)
}

// onReply is the Call callback of the datagram q carries: it gives every
// sink its element's verdict, then recycles q. A failed datagram — or a
// reply that is not a BatchAck with one ack per element — fails every
// element alike. After Close every answer is ErrSendClosed and no
// evidence. Before, a datagram some sink waits on is first one piece of
// evidence about its destination: failed without a well-formed reply,
// acked when any element was, refused when every element was.
func (q *destQueue) onReply(payload any, err error) {
	sm := q.n.sm
	sm.mu.Lock()
	closed := sm.closed
	sm.mu.Unlock()
	ba, ok := payload.(BatchAck)
	switch {
	case closed:
		err = ErrSendClosed
	case err == nil && (!ok || len(ba.Acks) != len(q.sinks)):
		err = fmt.Errorf("core: bad batch ack %T (%d acks for %d elems)", payload, len(ba.Acks), len(q.sinks))
	}
	if !closed && slices.ContainsFunc(q.sinks, func(r sinkRef) bool { return r.sink != nil }) {
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
	sm.recycle(q)
}

// What the machine keeps for reuse: up to maxFree records, and up to
// maxBufs element slices of at most keepElems, so a burst of flights
// or one large fill does not stay allocated for the node's lifetime.
const (
	maxFree   = 16
	maxBufs   = 3
	keepElems = 16
)

// putBuf takes q's element slice for the next fill, or leaves it to
// whoever holds it.
func (sm *sendMachine) putBuf(q *destQueue) {
	buf := q.elems
	q.elems = nil
	if cap(buf) > keepElems {
		return
	}
	clear(buf)
	sm.mu.Lock()
	if len(sm.bufs) < maxBufs {
		sm.bufs = append(sm.bufs, buf[:0])
	}
	sm.mu.Unlock()
}

// recycle returns a flight record, or a queue that had nothing left to
// send, to the free list.
func (sm *sendMachine) recycle(q *destQueue) {
	clear(q.sinks)
	q.sinks = q.sinks[:0]
	sm.mu.Lock()
	if len(sm.free) < maxFree {
		sm.free = append(sm.free, q)
	}
	sm.mu.Unlock()
}

// Close drains every queue (flushing pending traffic immediately) and
// stops their flush deadlines. The transport still answers every
// datagram on the wire, the drained ones included, but from here each
// answer reaches its sinks as ErrSendClosed and is no evidence. Later
// enqueues are refused with ErrSendClosed, so their sinks are still
// answered instead of racing shutdown onto the wire. The destinations
// are flushed in sorted order so shutdown traffic is deterministic.
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
