// Package chord (under the routever fixture tree, so the path matches
// the analyzer's idea of the chord package) pins routever's behavior:
// routing state is written only by designated …Locked mutators; every
// other write — to the node's view pointer, to a view's fields, to an
// element of its slices — is flagged; a derived field is written by
// publishLocked alone.
package chord

import (
	"sync"
	"sync/atomic"
)

type NodeRef struct {
	ID   uint64
	Addr string
}

// Routing mirrors the real immutable routing view.
type Routing struct {
	Version uint64
	Self    NodeRef
	Pred    NodeRef
	Succs   []NodeRef
	Fingers []NodeRef
	Gap     uint64

	// hops is computed from the fields above when a view is published.
	//
	//datlint:routever-derived
	hops []NodeRef
}

type Node struct {
	mu      sync.Mutex
	rt      *Routing
	view    atomic.Pointer[Routing] // rt, published for lock-free readers
	running bool
	scratch []NodeRef
}

// New builds the first view with a composite literal: not a write.
func New(self NodeRef, bits int) *Node {
	return &Node{rt: &Routing{Version: 1, Self: self, Fingers: make([]NodeRef, bits)}}
}

// publishLocked is the designated swap.
//
//datlint:routever-mutator
func (n *Node) publishLocked(next *Routing) {
	next.Version = n.rt.Version + 1
	next.hops = append(append([]NodeRef(nil), next.Fingers...), next.Succs...)
	n.rt = next
	n.view.Store(next)
}

// setSuccsLocked may write the content, but not what is derived from
// it: publishLocked would overwrite it, and until then two functions
// say what hops means.
//
//datlint:routever-mutator
func (n *Node) setSuccsLocked(list []NodeRef) {
	next := *n.rt
	next.Succs = list
	next.hops = list       // want `write to derived field chord.Routing.hops outside publishLocked`
	next.hops[0] = list[0] // want `write to derived field chord.Routing.hops outside publishLocked`
	n.publishLocked(&next)
}

// BadLazyHops fills a derived field on first use: a write to a
// published view, and a second definition of the field.
func (n *Node) BadLazyHops() []NodeRef {
	if n.rt.hops == nil {
		n.rt.hops = n.rt.Succs // want `write to derived field chord.Routing.hops outside publishLocked`
	}
	return n.rt.hops
}

// setFingerLocked clones, edits the private copy, publishes.
//
//datlint:routever-mutator
func (n *Node) setFingerLocked(j int, ref NodeRef) {
	if n.rt.Fingers[j] == ref {
		return
	}
	next := *n.rt
	next.Fingers = append([]NodeRef(nil), n.rt.Fingers...)
	next.Fingers[j] = ref
	n.publishLocked(&next)
}

// Routing hands the view out; reading is always fine, lock or no lock.
func (n *Node) Routing() *Routing { return n.view.Load() }

// GoodReads walks a view and edits unrelated node state.
func (n *Node) GoodReads() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.running = true
	n.scratch = append(n.scratch[:0], n.rt.Succs...) // copying out of a view
	total := 0
	for _, f := range n.rt.Fingers {
		total += int(f.ID)
	}
	return total
}

// BadInPlaceFinger is the bug the discipline exists for: the content
// changes under an unchanged Version.
func (n *Node) BadInPlaceFinger(j int, ref NodeRef) {
	n.mu.Lock()
	n.rt.Fingers[j] = ref // want `write to chord.Routing.Fingers outside a routing mutator`
	n.mu.Unlock()
}

// BadFieldWrites covers plain fields, nested fields and ++.
func (n *Node) BadFieldWrites(p NodeRef) {
	n.rt.Pred = p    // want `write to chord.Routing.Pred outside a routing mutator`
	n.rt.Self.ID = 7 // want `write to chord.Routing.Self outside a routing mutator`
	n.rt.Version++   // want `write to chord.Routing.Version outside a routing mutator`
	(*n.rt).Gap = 1  // want `write to chord.Routing.Gap outside a routing mutator`
	n.rt.Succs = nil // want `write to chord.Routing.Succs outside a routing mutator`
}

// BadSwap replaces the view without going through the mutators, so
// Version does not move.
func (n *Node) BadSwap(next *Routing) {
	n.rt = next // want `assignment to chord.Node.rt outside a routing mutator`
}

// BadPublish hands lock-free readers a view the mutators never saw, by
// every door the atomic pointer has.
func (n *Node) BadPublish(next *Routing) {
	n.view.Store(next)                   // want `Store on chord.Node.view outside a routing mutator`
	old := n.view.Swap(next)             // want `Swap on chord.Node.view outside a routing mutator`
	_ = n.view.CompareAndSwap(old, next) // want `CompareAndSwap on chord.Node.view outside a routing mutator`
}

// BadBuiltins write through a view's backing arrays.
func (n *Node) BadBuiltins(refs []NodeRef) {
	copy(n.rt.Fingers, refs)                    // want `write to chord.Routing.Fingers outside a routing mutator`
	n.scratch = append(n.rt.Succs[:0], refs...) // want `write to chord.Routing.Succs outside a routing mutator`
}

// BadLocalCopy edits a private copy outside a mutator: harmless by
// itself, but the only reason to do it is to publish it.
func (n *Node) BadLocalCopy(p NodeRef) Routing {
	next := *n.rt
	next.Pred = p // want `write to chord.Routing.Pred outside a routing mutator`
	return next
}

// BadClosure writes from a callback declared inside a non-mutator.
func (n *Node) BadClosure(j int) func(NodeRef) {
	return func(ref NodeRef) {
		n.rt.Fingers[j] = ref // want `write to chord.Routing.Fingers outside a routing mutator`
	}
}

// setPred is marked a mutator but does not carry the lock in its name.
//
//datlint:routever-mutator
func (n *Node) setPred(p NodeRef) { // want `routing mutator setPred must be a …Locked function`
	next := *n.rt
	next.Pred = p // want `write to chord.Routing.Pred outside a routing mutator`
	n.rt = &next  // want `assignment to chord.Node.rt outside a routing mutator`
}

// SuppressedWrite shows the escape hatch.
func (n *Node) SuppressedWrite() {
	n.rt.Gap = 2 //datlint:ignore routever fixture: demonstrates the pragma
}
