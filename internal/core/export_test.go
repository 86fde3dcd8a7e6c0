package core

import (
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
)

// Test-only exports for the delivery-assurance internals.

// ParentForExcluding is the un-memoised parentFrom on the node's current
// routing view.
func (n *Node) ParentForExcluding(key ident.ID, excluded []transport.Addr) (parent chord.NodeRef, isRoot, parentIsKeyRoot, ok bool) {
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

// HandleDetachForTest hands the node a one-element MsgBatch carrying
// from's detach for key, as a parent switch sends it.
func (n *Node) HandleDetachForTest(from transport.Addr, key ident.ID) {
	bm := BatchMsg{Elems: []BatchElem{{Kind: batchKindDetach, Detach: DetachMsg{Key: key, Sender: chord.NodeRef{Addr: from}}}}}
	n.handleBatch(transport.NewRequest(from, MsgBatch, bm, func(any, error) {}))
}

// funcSink adapts the closure-shaped callbacks the send-machine tests
// are written with to the typed ack sink.
type funcSink func(any, error)

func (funcSink) current(uint64) bool { return true }

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

// EpochBucketsForTest is how many on-demand epochs the node holds.
func (n *Node) EpochBucketsForTest() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.epochs)
}

// EpochLifeForTest is how long a relay's bucket outlives its last flush.
func (n *Node) EpochLifeForTest() time.Duration { return n.epochLife() }
