// Package core is a consumer of the routever fixture's chord package:
// the exported slices of a view are just as writable from here, and
// just as forbidden.
package core

import "routever/chord"

// GoodParent only reads the view.
func GoodParent(rt *chord.Routing, key uint64) chord.NodeRef {
	best := rt.Self
	for _, f := range rt.Fingers {
		if f.ID <= key && f.ID > best.ID {
			best = f
		}
	}
	return best
}

// BadScrub "cleans" a view it was handed.
func BadScrub(rt *chord.Routing, dead string) {
	for j, f := range rt.Fingers {
		if f.Addr == dead {
			rt.Fingers[j] = chord.NodeRef{} // want `write to chord.Routing.Fingers outside a routing mutator`
		}
	}
	rt.Pred = chord.NodeRef{} // want `write to chord.Routing.Pred outside a routing mutator`
}

// badLocked cannot be designated from outside chord.
//
//datlint:routever-mutator
func badLocked(rt *chord.Routing) { // want `marked a routing mutator outside package chord`
	rt.Gap = 1 // want `write to chord.Routing.Gap outside a routing mutator`
}
