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

func (n *Node) HandleUpdateForTest(req *transport.Request) { n.handleUpdate(req) }
