package maan

import (
	"slices"
	"sort"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
)

// maxOwnerArcs bounds the owner-arc table. A ring larger than this
// keeps the widest arcs, which answer the most keys.
const maxOwnerArcs = 256

// ownerArc is what one finished lookup proved: Lookup(lo) returned
// owner, so no node sat in [lo, owner.ID) and owner was successor(k)
// for every k in the ring interval [lo, owner.ID].
type ownerArc struct {
	owner chord.NodeRef
	lo    ident.ID
}

// arcTable holds, per owner, the widest interval a lookup has proved,
// sorted by owner ID. Arcs are pairwise disjoint: a proof that puts a
// node inside another owner's arc cuts that arc back. Nothing here
// expires — a stale arc is found out by the node it names (handleRange)
// or by a timeout, and dropped then. The Service's mutex guards it.
type arcTable struct {
	space ident.Space
	arcs  []ownerArc
}

func (t *arcTable) width(a ownerArc) uint64 { return t.space.Dist(a.lo, a.owner.ID) }

// search returns the index of the first arc whose owner's identifier is
// id or larger, len(t.arcs) if there is none.
func (t *arcTable) search(id ident.ID) int {
	return sort.Search(len(t.arcs), func(i int) bool { return !ident.Less(t.arcs[i].owner.ID, id) })
}

// find returns the owner whose arc contains key.
func (t *arcTable) find(key ident.ID) (chord.NodeRef, bool) {
	if len(t.arcs) == 0 {
		return chord.NodeRef{}, false
	}
	// The only arc that can contain key belongs to the first owner at
	// or clockwise after it.
	i := t.search(key)
	if i == len(t.arcs) {
		i = 0
	}
	a := t.arcs[i]
	if t.space.Dist(key, a.owner.ID) > t.width(a) {
		return chord.NodeRef{}, false
	}
	return a.owner, true
}

// learn records that Lookup(key) returned owner.
func (t *arcTable) learn(key ident.ID, owner chord.NodeRef) {
	proved := ownerArc{owner: owner, lo: key}
	reach := t.width(proved)
	kept := t.arcs[:0]
	for _, a := range t.arcs {
		switch {
		case a.owner.ID == owner.ID:
			if a.owner.Addr == owner.Addr && t.width(a) > reach {
				proved.lo = a.lo
			}
			continue // re-inserted below
		case t.space.Dist(key, a.owner.ID) < reach:
			continue // a node in [key, owner.ID): the lookup proved it gone
		case t.space.Dist(owner.ID, a.owner.ID) <= t.width(a):
			a.lo = t.space.Add(owner.ID, 1) // owner sits inside a's arc
		}
		kept = append(kept, a)
	}
	t.arcs = kept
	if len(t.arcs) == maxOwnerArcs {
		narrowest := 0
		for i, a := range t.arcs {
			if t.width(a) < t.width(t.arcs[narrowest]) {
				narrowest = i
			}
		}
		if t.width(proved) <= t.width(t.arcs[narrowest]) {
			return
		}
		t.arcs = slices.Delete(t.arcs, narrowest, narrowest+1)
	}
	t.arcs = slices.Insert(t.arcs, t.search(owner.ID), proved)
}

// drop forgets what was proved about the node at addr.
func (t *arcTable) drop(addr transport.Addr) {
	t.arcs = slices.DeleteFunc(t.arcs, func(a ownerArc) bool { return a.owner.Addr == addr })
}
