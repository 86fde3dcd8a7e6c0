package core

import (
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
)

// Test-only exports for the delivery-assurance internals.

func BackoffDelayForTest(base time.Duration, attempt int, h uint64) time.Duration {
	return backoffDelay(base, attempt, h)
}

func JitterHashForTest(addr transport.Addr, key ident.ID, epoch int64, attempt int) uint64 {
	return jitterHash(addr, key, epoch, attempt)
}

// ParentForExcluding is the un-memoised parentFrom on the node's current
// routing view.
func (n *Node) ParentForExcluding(key ident.ID, excluded map[transport.Addr]bool) (parent chord.NodeRef, isRoot, parentIsKeyRoot, ok bool) {
	pc := parentFrom(n.ch.Routing(), n.cfg.Scheme, key, excluded)
	return pc.parent, pc.isRoot, pc.keyRoot, pc.ok
}

// HandleUpdateForTest hands the node um as a one-element MsgBatch from
// from, the only way an update arrives, and returns its verdict; ok is
// false unless the reply was a BatchAck of exactly one ack.
func (n *Node) HandleUpdateForTest(from transport.Addr, um UpdateMsg) (ack UpdateAck, ok bool) {
	bm := BatchMsg{Elems: []BatchElem{{Kind: batchKindUpdate, Update: um}}}
	n.handleBatch(transport.NewRequest(from, MsgBatch, bm, func(payload any, err error) {
		if ba, isAck := payload.(BatchAck); err == nil && isAck && len(ba.Acks) == 1 {
			ack, ok = ba.Acks[0], true
		}
	}))
	return ack, ok
}

// funcSink adapts the closure-shaped callbacks the send-machine tests
// are written with to the typed ack sink.
type funcSink func(any, error)

func (f funcSink) onAck(_ uint64, ack UpdateAck, err error) {
	if err != nil {
		f(nil, err)
	} else {
		f(ack, nil)
	}
}

// batchCall is the tests' door to the send machine; a nil cb queues the
// element with nobody waiting for its verdict.
func (n *Node) batchCall(to transport.Addr, _ string, payload any, cb func(any, error)) {
	var ref sinkRef
	if cb != nil {
		ref.sink = funcSink(cb)
	}
	switch p := payload.(type) {
	case UpdateMsg:
		n.sm.enqueue(to, &BatchElem{Kind: batchKindUpdate, Update: p}, ref)
	case DetachMsg:
		n.sm.enqueue(to, &BatchElem{Kind: batchKindDetach, Detach: p}, ref)
	default:
		panic("batchCall: not an update or detach")
	}
}

// FlightDeadlinesForTest counts the datagrams on the wire whose ack
// deadline is still pending.
func (n *Node) FlightDeadlinesForTest() int {
	sm := n.sm
	sm.mu.Lock()
	defer sm.mu.Unlock()
	k := 0
	for _, q := range sm.records {
		if q.armed && !q.answered && sm.queues[q.to] != q {
			k++
		}
	}
	return k
}
