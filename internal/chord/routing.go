package chord

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/ident"
	"repro/internal/transport"
)

// Routing is one immutable, versioned view of a node's routing state —
// everything next-hop and DAT parent selection depend on. A published
// *Routing is never written again: mutators build a modified copy and
// swap the node's pointer (copy-on-write), so a reader holding a view
// sees one consistent table for as long as it likes, and two views
// with equal Version have equal content (DESIGN.md §16).
type Routing struct {
	// Version increases by one each time the content changes, and only
	// then: maintenance rounds that rewrite identical values keep it.
	// It starts at 1, so the zero Version never names a view.
	Version uint64
	Self    NodeRef
	Pred    NodeRef   // zero when unknown
	Succs   []NodeRef // Succs[0] is the successor; empty before Create/Join
	Fingers []NodeRef // indexed by finger number j; zero entries are unresolved
	// Gap estimates d0, the mean distance between adjacent nodes, from
	// the successor-list density (the whole ring when the node is alone).
	// The balanced DAT parent rule consumes it.
	Gap uint64

	space ident.Space

	// Derived once per view, by publishLocked and nowhere else (routever
	// enforces it): pure functions of the content above that every
	// message would otherwise recompute. They are derived eagerly — a
	// publish is rare, and a lazily filled field would need a lock or
	// would be lost by the mutators' `next := *cur`.

	// state is the reply a GetState is answered with: its Successors
	// aliases Succs and its Fingers is the distinct-finger list, so every
	// reply under one Version shares them. Receivers must not write
	// through either (DESIGN.md §16).
	//
	//datlint:routever-derived
	state StateResp
	// hops is the next-hop table closestPreceding searches.
	//
	//datlint:routever-derived
	hops []hop
}

// hop is one next-hop candidate: a known node other than self and how
// far clockwise of self it sits.
type hop struct {
	dist uint64
	ref  NodeRef
}

// Successor returns the view's successor (Self when the list is empty).
func (rt *Routing) Successor() NodeRef {
	if len(rt.Succs) == 0 {
		return rt.Self
	}
	return rt.Succs[0]
}

// Space returns the identifier space the view's IDs live in.
func (rt *Routing) Space() ident.Space { return rt.space }

// EstimatedNetworkSize estimates n from the gap estimate.
func (rt *Routing) EstimatedNetworkSize() uint64 {
	size := rt.space.Size() / rt.Gap
	if size == 0 {
		size = 1
	}
	return size
}

// Routing returns the node's current routing view. The result is shared
// and must not be modified. It is one atomic pointer load: no lock is
// taken and nothing is allocated, so the update path may read the view
// several times per message. A quiet node returns the same pointer every
// call.
func (n *Node) Routing() *Routing { return n.view.Load() }

// The mutators below are the only code allowed to write routing state
// (datlint's routever analyzer enforces it). Each compares before it
// clones, so Version moves only on a real change.

// publishLocked installs next, a modified private copy of the current
// view, as the node's routing state, publishes it to lock-free readers,
// and snaps the paced maintenance loops back to their base periods.
//
//datlint:routever-mutator
func (n *Node) publishLocked(next *Routing) {
	next.Version = n.rt.Version + 1
	next.Gap = estimateGap(n.space, next.Self, next.Succs)
	// Built in stack scratch (which append outgrows into the heap on a
	// wider table) and cloned to size: a view keeps only the distinct
	// entries, not room for Bits of them.
	var fingerBuf [48]NodeRef
	var hopBuf [48]hop
	next.state = StateResp{
		Self:        next.Self,
		Predecessor: next.Pred,
		Successors:  next.Succs,
		Fingers:     slices.Clone(distinctFingers(fingerBuf[:0], next.Fingers)),
	}
	next.hops = slices.Clone(nextHops(hopBuf[:0], next))
	n.rt = next
	n.view.Store(next)
	n.snapLocked()
}

// distinctFingers appends to dst the resolved entries of fingers, one
// per address, in table order. Duplicates are found by a linear scan
// over the output: at most Bits entries.
func distinctFingers(dst, fingers []NodeRef) []NodeRef {
	for _, f := range fingers {
		if !f.IsZero() && !hasAddr(dst, f.Addr) {
			dst = append(dst, f)
		}
	}
	return dst
}

// nextHops appends to dst the view's next-hop table: every finger and
// successor that is not self, one entry per identifier, ordered by
// clockwise distance from self. When two entries carry one identifier
// the first in table order (fingers, then successors) stays. An entry
// at distance zero — self's identifier at another address — lies in no
// interval (self, key) and is left out.
func nextHops(dst []hop, rt *Routing) []hop {
	for _, refs := range [2][]NodeRef{rt.Fingers, rt.Succs} {
		for _, ref := range refs {
			d := rt.space.Dist(rt.Self.ID, ref.ID)
			if ref.IsZero() || ref.Addr == rt.Self.Addr || d == 0 {
				continue
			}
			i, found := slices.BinarySearchFunc(dst, d, func(h hop, d uint64) int { return cmp.Compare(h.dist, d) })
			if !found {
				dst = slices.Insert(dst, i, hop{dist: d, ref: ref})
			}
		}
	}
	return dst
}

// closestPreceding returns the known node in (self, key) closest to
// key, among the fingers and the successor list. Zero if none.
func (rt *Routing) closestPreceding(key ident.ID) NodeRef {
	hops := rt.hops
	// The hops short of key are a prefix of the table; the last of them
	// is the closest. key == Self.ID makes (self, key) the whole ring.
	i := len(hops)
	if limit := rt.space.Dist(rt.Self.ID, key); limit != 0 {
		i = sort.Search(len(hops), func(i int) bool { return hops[i].dist >= limit })
	}
	if i == 0 {
		return NodeRef{}
	}
	return hops[i-1].ref
}

func estimateGap(space ident.Space, self NodeRef, succs []NodeRef) uint64 {
	last := NodeRef{}
	count := 0
	for _, s := range succs {
		if s.Addr == self.Addr {
			continue
		}
		last = s
		count++
	}
	if count == 0 {
		return space.Size()
	}
	g := space.Dist(self.ID, last.ID) / uint64(count)
	if g == 0 {
		g = 1
	}
	return g
}

//datlint:routever-mutator
func (n *Node) setSelfIDLocked(id ident.ID) {
	if n.rt.Self.ID == id {
		return
	}
	next := *n.rt
	next.Self.ID = id
	n.publishLocked(&next)
}

// setPredLocked replaces the predecessor and reports whether it changed.
//
//datlint:routever-mutator
func (n *Node) setPredLocked(p NodeRef) bool {
	if n.rt.Pred == p {
		return false
	}
	next := *n.rt
	next.Pred = p
	n.publishLocked(&next)
	return true
}

// setSuccsLocked replaces the successor list with a copy of list, which
// may be caller-owned scratch, and reports whether it changed.
//
//datlint:routever-mutator
func (n *Node) setSuccsLocked(list ...NodeRef) bool {
	if slices.Equal(n.rt.Succs, list) {
		return false
	}
	next := *n.rt
	next.Succs = slices.Clone(list)
	n.publishLocked(&next)
	return true
}

//datlint:routever-mutator
func (n *Node) setFingerLocked(j int, ref NodeRef) {
	if n.rt.Fingers[j] == ref {
		return
	}
	next := *n.rt
	next.Fingers = slices.Clone(n.rt.Fingers)
	next.Fingers[j] = ref
	n.publishLocked(&next)
}

// setNeighborsLocked installs a whole neighbor state in one step
// (Create, Join, SeedState), copying its arguments. An empty successor
// list means alone; a finger table of the wrong length (nil: keep)
// leaves the fingers as they are.
//
//datlint:routever-mutator
func (n *Node) setNeighborsLocked(pred NodeRef, succs, fingers []NodeRef) {
	cur := n.rt
	if len(succs) == 0 {
		succs = []NodeRef{cur.Self}
	}
	if len(fingers) != len(cur.Fingers) {
		fingers = cur.Fingers
	}
	if pred == cur.Pred && slices.Equal(succs, cur.Succs) && slices.Equal(fingers, cur.Fingers) {
		return
	}
	next := *cur
	next.Pred, next.Succs, next.Fingers = pred, slices.Clone(succs), slices.Clone(fingers)
	n.publishLocked(&next)
}

// removeDeadLocked drops addr from every table: its fingers go back to
// unresolved, a matching predecessor to unknown (no OnPredecessorChange
// upcall: nobody arrived), and the successor list closes over it — down
// to self alone while running. On a ring whose last fix-fingers sweep
// was quiet the eviction is news, and the next fix-fingers round starts
// at the lowest finger it cleared; on a ring in flux the sweep repairs
// at its own pace, so a peer evicted and re-learned over and over costs
// no extra lookups.
//
//datlint:routever-mutator
func (n *Node) removeDeadLocked(addr transport.Addr) {
	cur := n.rt
	pred, succs, fingers := cur.Pred, cur.Succs, cur.Fingers
	changed := false
	if !pred.IsZero() && pred.Addr == addr {
		pred, changed = NodeRef{}, true
	}
	if hasAddr(succs, addr) {
		succs = make([]NodeRef, 0, len(cur.Succs)-1)
		for _, s := range cur.Succs {
			if s.Addr != addr {
				succs = append(succs, s)
			}
		}
		changed = true
	}
	if len(succs) == 0 && n.running {
		succs, changed = []NodeRef{cur.Self}, true
	}
	if hasAddr(fingers, addr) {
		fingers = slices.Clone(cur.Fingers)
		for j := len(fingers) - 1; j >= 0; j-- {
			if fingers[j].Addr == addr {
				fingers[j] = NodeRef{}
				if n.fix != nil && n.fix.quiet {
					n.nextFix = j
				}
			}
		}
		changed = true
	}
	if !changed {
		return
	}
	next := *cur
	next.Pred, next.Succs, next.Fingers = pred, succs, fingers
	n.publishLocked(&next)
}

func hasAddr(refs []NodeRef, addr transport.Addr) bool {
	for _, r := range refs {
		if r.Addr == addr {
			return true
		}
	}
	return false
}
