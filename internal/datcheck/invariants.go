package datcheck

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/transport"
)

// Violation is one invariant failure. Check is a stable machine-readable
// name; Detail is human-readable and deterministic (it goes into the
// replay trace byte-for-byte).
type Violation struct {
	Check  string
	Detail string
}

// String renders the violation for traces.
func (v Violation) String() string { return fmt.Sprintf("VIOLATION check=%s %s", v.Check, v.Detail) }

// checker accumulates violations against one converged cluster state.
type checker struct {
	c    *cluster.Cluster
	ring *chord.Ring
	key  ident.ID
	out  []Violation
}

func (k *checker) fail(check, format string, args ...any) {
	k.out = append(k.out, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// runningIdxs returns the indices of running nodes, in index order so
// every walk below is deterministic.
func (k *checker) runningIdxs() []int {
	var idxs []int
	for i, n := range k.c.Chord {
		if n.Running() {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// checkRing verifies each running node's neighbor state against the
// ideal ring of running members: successor, predecessor, the successor
// list (must walk consecutive ring successors), and every finger entry.
func (k *checker) checkRing() {
	idxs := k.runningIdxs()
	n := len(idxs)
	for _, i := range idxs {
		rt := k.c.Chord[i].Routing()
		self := rt.Self.ID
		if n == 1 {
			if rt.Successor().Addr != rt.Self.Addr {
				k.fail("ring-successor", "lone node %d successor %v is not itself", i, rt.Successor().ID)
			}
			continue
		}
		if got, want := rt.Successor().ID, k.ring.Succ(self); got != want {
			k.fail("ring-successor", "node %d successor %v, ideal %v", i, got, want)
		}
		if p := rt.Pred; p.IsZero() || p.ID != k.ring.Pred(self) {
			k.fail("ring-predecessor", "node %d predecessor %v, ideal %v", i, p.ID, k.ring.Pred(self))
		}
		// Successor list: consecutive ring successors, stopping before
		// self, at least min(listLen, n-1) deep.
		list := rt.Succs
		wantLen := len(list)
		if n-1 < wantLen {
			wantLen = n - 1
		}
		if len(list) < wantLen {
			k.fail("ring-succlist", "node %d successor list has %d entries, want >= %d", i, len(list), wantLen)
		}
		cur := self
		for j, s := range list {
			cur = k.ring.Succ(cur)
			if cur == self {
				break
			}
			if s.ID != cur {
				k.fail("ring-succlist", "node %d successor list[%d] = %v, ideal %v", i, j, s.ID, cur)
				break
			}
		}
		for j, f := range rt.Fingers {
			if want := k.ring.Finger(self, uint(j)); f.IsZero() || f.ID != want {
				k.fail("ring-finger", "node %d finger[%d] = %v, ideal %v", i, j, f.ID, want)
				break // one bad finger per node is enough signal
			}
		}
	}
}

// checkLookups issues real iterative lookups from a deterministic sample
// of nodes for a deterministic sample of keys and verifies each resolves
// to the ideal owner — the routing black-hole detector.
func (k *checker) checkLookups() {
	idxs := k.runningIdxs()
	if len(idxs) == 0 {
		return
	}
	sources := sampleInts(idxs, 4)
	var keys []ident.ID
	keys = append(keys, k.key)
	for _, i := range sampleInts(idxs, 4) {
		keys = append(keys, k.c.Chord[i].Self().ID)
	}
	for p := 0; p < 3; p++ {
		keys = append(keys, k.c.Space.HashString(fmt.Sprintf("datcheck-probe-%d", p)))
	}
	for _, src := range sources {
		for _, key := range keys {
			var got chord.NodeRef
			var gotErr error
			done := false
			k.c.Chord[src].Lookup(key, func(ref chord.NodeRef, err error) {
				got, gotErr, done = ref, err, true
			})
			for waited := time.Duration(0); !done && waited < 10*time.Second; waited += 250 * time.Millisecond {
				k.c.RunFor(250 * time.Millisecond)
			}
			switch {
			case !done:
				k.fail("lookup-hang", "lookup(%v) from node %d never completed", key, src)
			case gotErr != nil:
				k.fail("lookup-error", "lookup(%v) from node %d: %v", key, src, gotErr)
			case got.ID != k.ring.SuccessorOf(key):
				k.fail("lookup-owner", "lookup(%v) from node %d = %v, ideal owner %v",
					key, src, got.ID, k.ring.SuccessorOf(key))
			}
		}
	}
}

// checkDAT verifies the aggregation tree two ways. The snapshot tree
// (core.Build over the ideal ring) must validate structurally and respect
// the paper's branching and height bounds, degraded by the measured ID
// skew. The live graph — each node's own ParentFor answer — must itself
// be a single-rooted, acyclic tree over the running members whose root is
// successor(key), and the parent/child caches must be duals of it.
func (k *checker) checkDAT(scheme core.Scheme) {
	idxs := k.runningIdxs()
	n := len(idxs)
	if n == 0 {
		return
	}

	// --- snapshot bounds ---
	tree := core.Build(k.ring, k.key, scheme)
	if err := tree.Validate(); err != nil {
		k.fail("dat-snapshot", "snapshot tree invalid: %v", err)
	}
	// Even-ring theorems degrade with identifier skew: allow extra
	// levels/children proportional to ceil(log2(gapRatio)) on random
	// rings. The 2x factor and +2 margin are calibrated empirically
	// (worst observed overshoot over 4000 random rings is ~1.6x slack
	// for branching and +2 absolute for height); the check still rules
	// out gross pathologies like a star topology with branching ~n.
	slack := int(ident.CeilLog2(uint64(math.Ceil(k.ring.GapRatio())))) + 1
	var maxB int
	switch scheme {
	case core.Basic:
		maxB = analysis.BasicMaxBranching(n) + 2*slack + 2
	default:
		// BalancedLocal reaches 4 even on even rings (see
		// core.TestBasicBranchingFormula); give it the same headroom.
		maxB = analysis.BalancedMaxBranching + 2 + 2*slack + 2
	}
	if mb := tree.MaxBranching(); mb > maxB {
		k.fail("dat-branching", "scheme %v max branching %d exceeds bound %d (n=%d gapRatio=%.1f)",
			scheme, mb, maxB, n, k.ring.GapRatio())
	}
	if h := tree.Height(); h > analysis.HeightBound(n)+slack+2 {
		k.fail("dat-height", "height %d exceeds bound %d+%d (n=%d)", h, analysis.HeightBound(n), slack+2, n)
	}

	// --- live parent graph ---
	runningByID := make(map[ident.ID]int, n)
	runningByAddr := make(map[transport.Addr]int, n)
	for _, i := range idxs {
		runningByID[k.c.Chord[i].Self().ID] = i
		runningByAddr[k.c.Chord[i].Self().Addr] = i
	}
	parentOf := make(map[int]int, n) // child idx -> parent idx
	rootIdx := -1
	for _, i := range idxs {
		self := k.c.Chord[i].Self()
		parent, isRoot, ok := k.c.DAT[i].ParentFor(k.key)
		if !ok {
			k.fail("dat-undecided", "node %d cannot decide its parent after convergence", i)
			continue
		}
		if isRoot {
			if rootIdx >= 0 {
				k.fail("dat-root", "nodes %d and %d both claim root", rootIdx, i)
			}
			rootIdx = i
			if self.ID != k.ring.SuccessorOf(k.key) {
				k.fail("dat-root", "node %d claims root but successor(key) is %v", i, k.ring.SuccessorOf(k.key))
			}
			continue
		}
		pi, running := runningByID[parent.ID]
		if !running || parent.IsZero() {
			k.fail("dat-parent-dead", "node %d parent %v is not a running member", i, parent.ID)
			continue
		}
		parentOf[i] = pi
	}
	if rootIdx < 0 {
		k.fail("dat-root", "no running node claims root for key %v", k.key)
	}
	// Every chain must reach the root without cycling.
	for _, i := range idxs {
		if i == rootIdx {
			continue
		}
		cur, steps := i, 0
		for cur != rootIdx {
			next, ok := parentOf[cur]
			if !ok {
				if cur != i {
					k.fail("dat-chain", "parent chain from node %d dead-ends at %d", i, cur)
				}
				break
			}
			cur = next
			if steps++; steps > n {
				k.fail("dat-cycle", "parent cycle on chain from node %d", i)
				break
			}
		}
	}
	// Child-cache duality: after a quiet interval every cached child must
	// currently choose the cache's owner as its parent (stale entries age
	// out within the child TTL, which the settle interval exceeds).
	for _, i := range idxs {
		for _, ci := range k.c.DAT[i].ChildrenInfo(k.key) {
			j, running := runningByAddr[ci.Addr]
			if !running {
				k.fail("dat-cache-stale", "node %d caches dead child %s", i, ci.Addr)
				continue
			}
			if pj, ok := parentOf[j]; !ok || pj != i {
				if j == rootIdx {
					k.fail("dat-cache-stale", "node %d caches the root %d as a child", i, j)
				} else {
					k.fail("dat-cache-stale", "node %d caches child %d whose parent is %d", i, j, parentOf[j])
				}
			}
		}
	}
}

// checkAggregate compares the root's latest continuous result against
// ground truth computed from the running membership: counts must match
// exactly and sums exactly too (samples are small integers, so float
// addition is exact), and the result slot must be fresh.
func (k *checker) checkAggregate(latest func() (int64, core.Aggregate, bool), slotDur time.Duration) {
	idxs := k.runningIdxs()
	slot, agg, ok := latest()
	if !ok {
		k.fail("agg-missing", "root has produced no continuous result")
		return
	}
	var wantSum float64
	var wantMin, wantMax float64
	for j, i := range idxs {
		v := float64(i + 1)
		wantSum += v
		if j == 0 || v < wantMin {
			wantMin = v
		}
		if j == 0 || v > wantMax {
			wantMax = v
		}
	}
	if agg.Count != uint64(len(idxs)) {
		k.fail("agg-count", "count %d, ground truth %d (slot %d)", agg.Count, len(idxs), slot)
	}
	if agg.Sum != wantSum {
		k.fail("agg-sum", "sum %v, ground truth %v (slot %d)", agg.Sum, wantSum, slot)
	}
	if agg.Count == uint64(len(idxs)) && (agg.Min != wantMin || agg.Max != wantMax) {
		k.fail("agg-minmax", "min/max %v/%v, ground truth %v/%v", agg.Min, agg.Max, wantMin, wantMax)
	}
	nowSlot := int64(k.c.Engine.Now()) / int64(slotDur)
	if nowSlot-slot > 3 {
		k.fail("agg-stale", "latest result is for slot %d but the clock is at slot %d", slot, nowSlot)
	}
}

// convergenceDiff renders, one line per stuck node, how each running
// node's neighbor state differs from the ideal ring — the first thing a
// human needs from a convergence-failure replay.
func convergenceDiff(c *cluster.Cluster) []string {
	ring := c.Ring()
	var out []string
	for i, n := range c.Chord {
		if !n.Running() {
			out = append(out, fmt.Sprintf("node %d id=%v: not running", i, n.Self().ID))
			continue
		}
		rt := n.Routing()
		self := rt.Self.ID
		if got, want := rt.Successor().ID, ring.Succ(self); got != want {
			out = append(out, fmt.Sprintf("node %d id=%v: successor %v, ideal %v", i, self, got, want))
		}
		if p := rt.Pred; p.IsZero() || p.ID != ring.Pred(self) {
			out = append(out, fmt.Sprintf("node %d id=%v: predecessor %v, ideal %v", i, self, p.ID, ring.Pred(self)))
		}
		for j, f := range rt.Fingers {
			if want := ring.Finger(self, uint(j)); f.IsZero() || f.ID != want {
				out = append(out, fmt.Sprintf("node %d id=%v: finger[%d] %v, ideal %v", i, self, j, f.ID, want))
				break
			}
		}
	}
	return out
}

// sampleInts picks up to max entries from idxs, evenly strided, so checks
// scale sublinearly with cluster size yet stay deterministic.
func sampleInts(idxs []int, max int) []int {
	if len(idxs) <= max {
		return idxs
	}
	out := make([]int, 0, max)
	stride := len(idxs) / max
	for i := 0; i < len(idxs) && len(out) < max; i += stride {
		out = append(out, idxs[i])
	}
	return out
}
