package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/ident"
)

// WriteDebug renders this node's live view of its aggregation state:
// overlay neighbors, then one block per active rendezvous key with the
// node's role, subtree height, cached children, and last root result.
// It is the node-local counterpart of the global Tree renderings below
// (a live node cannot see the whole DAT), served at /debug/dat by the
// observability layer.
func (n *Node) WriteDebug(w io.Writer) {
	rt := n.ch.Routing()
	self, succ, pred := rt.Self, rt.Successor(), rt.Pred
	fmt.Fprintf(w, "self        %s @ %s\n", self.ID.String(), self.Addr)
	fmt.Fprintf(w, "successor   %s @ %s\n", succ.ID.String(), succ.Addr)
	if pred.IsZero() {
		fmt.Fprintf(w, "predecessor (unknown)\n")
	} else {
		fmt.Fprintf(w, "predecessor %s @ %s\n", pred.ID.String(), pred.Addr)
	}
	fmt.Fprintf(w, "estimated network size %d\n", rt.EstimatedNetworkSize())

	keys := n.ActiveKeys()
	sort.Slice(keys, func(i, j int) bool { return ident.Less(keys[i], keys[j]) })
	if len(keys) == 0 {
		fmt.Fprintln(w, "no active aggregations")
		return
	}
	for _, key := range keys {
		parent, isRoot, ok := n.ParentFor(key)
		n.mu.Lock()
		e := n.aggs[key]
		height, slotDur := 0, time.Duration(0)
		forced := false
		if e != nil {
			height, slotDur = e.height, e.slotDur
			forced = n.clock.Now() < e.forcedRootUntil
		}
		n.mu.Unlock()
		fmt.Fprintf(w, "\nkey %s height=%d slot=%v\n", key.String(), height, slotDur)
		switch {
		case forced && !isRoot:
			fmt.Fprintln(w, "  role: root (handover standby for a failed root)")
		case !ok:
			fmt.Fprintln(w, "  role: undecided (overlay not settled)")
		case isRoot:
			fmt.Fprintln(w, "  role: root")
		default:
			fmt.Fprintf(w, "  role: relay -> parent %s @ %s\n", parent.ID.String(), parent.Addr)
		}
		if slot, agg, haveLast := n.LastResult(key); haveLast {
			fmt.Fprintf(w, "  last result: slot=%d count=%d sum=%g min=%g max=%g coverage=%.2f degraded=%v\n",
				slot, agg.Count, agg.Sum, agg.Min, agg.Max, agg.Coverage, agg.Degraded)
		}
		for _, c := range n.ChildrenInfo(key) {
			fmt.Fprintf(w, "  child %s nodes=%d height=%d seen=%v\n", c.Addr, c.Nodes, c.Height, c.Seen)
		}
	}
}

// WriteDOT renders the tree in Graphviz DOT format: one node per ring
// member labeled with its identifier, edges child -> parent, the root
// double-circled. Useful for inspecting small DATs
// (`dot -Tsvg tree.dot`).
func (t *Tree) WriteDOT(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=BT;\n  node [shape=circle, fontsize=10];\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %q [shape=doublecircle];\n", t.Root.String()); err != nil {
		return err
	}
	for _, v := range t.ring.IDs() {
		p, ok := t.parent[v]
		if !ok {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %q -> %q;\n", v.String(), p.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// RenderASCII writes an indented top-down rendering of the tree, one
// node per line, children indented under their parents. maxNodes bounds
// the output for large trees (0 means unlimited); truncation is marked.
func (t *Tree) RenderASCII(w io.Writer, maxNodes int) error {
	printed := 0
	truncated := false
	var rec func(v ident.ID, prefix string, last, isRoot bool) error
	rec = func(v ident.ID, prefix string, last, isRoot bool) error {
		if maxNodes > 0 && printed >= maxNodes {
			truncated = true
			return nil
		}
		connector := "|- "
		childPrefix := prefix + "|  "
		if last {
			connector = "`- "
			childPrefix = prefix + "   "
		}
		if isRoot {
			connector = ""
			childPrefix = ""
		}
		label := v.String()
		if v == t.Root {
			label += " (root)"
		}
		if _, err := fmt.Fprintf(w, "%s%s%s\n", prefix, connector, label); err != nil {
			return err
		}
		printed++
		kids := t.Children(v)
		ordered := make([]ident.ID, len(kids))
		copy(ordered, kids)
		sort.Slice(ordered, func(i, j int) bool { return ident.Less(ordered[i], ordered[j]) })
		for i, c := range ordered {
			if err := rec(c, childPrefix, i == len(ordered)-1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.Root, "", true, true); err != nil {
		return err
	}
	if truncated {
		if _, err := fmt.Fprintf(w, "... (%d of %d nodes shown)\n", printed, t.N()); err != nil {
			return err
		}
	}
	return nil
}
