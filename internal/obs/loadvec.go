package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/ident"
)

// DefaultLoadTrees is the per-tree row cap used when NewLoadVec is given
// a non-positive K.
const DefaultLoadTrees = 32

// Self-monitoring sensor attributes. Layer 2 of the self-monitoring
// plane publishes each node's own load scalars (core.Node.Load) under
// these attribute names into ordinary aggregation trees (DESIGN.md §13),
// so "cluster max/avg/sum load" is answered by the DAT itself with one
// query.
const (
	// LoadAttrMsgs aggregates Load().msgs: updates sent + received.
	LoadAttrMsgs = "dat.load.msgs"
	// LoadAttrBytes aggregates Load().bytes: estimated wire bytes sent.
	LoadAttrBytes = "dat.load.bytes"
)

// SelfMonAttrs lists every self-monitoring attribute, in the order the
// monitoring trees are started.
var SelfMonAttrs = []string{LoadAttrMsgs, LoadAttrBytes}

// SelfMonConfig enables the layer-2 self-monitoring plane: dedicated
// aggregation trees that carry each node's own load counters through
// the normal update path.
type SelfMonConfig struct {
	// Enable starts the dat.load.* monitoring trees.
	Enable bool
	// Slot is the monitoring trees' aggregation slot. It defaults to
	// 4x the primary slot (set by the embedding layer): load counters
	// move slowly, and a slower slot keeps the plane's overhead well
	// under the <10% datagrams/slot budget.
	Slot time.Duration
}

// TreeLoad is one aggregation key's accumulated load counters. All
// fields are monotone; a snapshot is comparable against any later one.
type TreeLoad struct {
	// Sent counts value updates this node put on the wire for the tree,
	// one per batch element.
	Sent uint64
	// Recv counts inbound child updates accepted into the child cache.
	Recv uint64
	// Elems counts every batch element sent for the tree, including
	// non-update traffic such as detaches.
	Elems uint64
	// Bytes estimates wire bytes sent for the tree (element payload
	// estimates, not frame overhead).
	Bytes uint64
	// FanIn accumulates child partials folded per round.
	FanIn uint64
	// Retries counts acked-update send attempts beyond the first.
	Retries uint64
	// RootSlots counts rounds this node completed as the tree's root.
	RootSlots uint64
}

// load is the sort weight for /debug/load and top-K ranking: how much
// update traffic the tree put through this node.
func (t TreeLoad) load() uint64 { return t.Sent + t.Recv }

// OtherLabel is the overflow bucket's tree label on /metrics and
// /debug/load.
const OtherLabel = "other"

// LoadVec is the Observer's bounded-cardinality per-tree load table, the
// one store behind /debug/load and the dat_tree_* families on /metrics.
// The first K distinct aggregation keys get their own row (and their
// own `tree` label); every later key folds into a shared `other` bucket,
// so metric cardinality is capped at K+1 no matter how many trees a node
// relays for. LoadVec never reads a clock and holds no RNG: it is safe
// to feed from hooks on the deterministic sim paths.
type LoadVec struct {
	mu    sync.Mutex
	cap   int
	rows  map[ident.ID]*TreeRow // each row keeps its rendered label
	other TreeLoad
}

// NewLoadVec builds a LoadVec with at most k per-tree rows (<=0 means
// DefaultLoadTrees).
func NewLoadVec(k int) *LoadVec {
	if k <= 0 {
		k = DefaultLoadTrees
	}
	return &LoadVec{cap: k, rows: make(map[ident.ID]*TreeRow, k)}
}

// row returns the counters for key, assigning a new row while capacity
// remains and the overflow bucket afterwards. Callers hold mu.
func (v *LoadVec) row(key ident.ID) *TreeLoad {
	r, ok := v.rows[key]
	if !ok {
		if len(v.rows) >= v.cap {
			return &v.other
		}
		r = &TreeRow{Label: Label(key)}
		v.rows[key] = r
	}
	return &r.TreeLoad
}

// Label is the canonical `tree` label for an aggregation key, matching
// the span dump's key rendering.
func Label(key ident.ID) string { return strconv.FormatUint(uint64(key), 10) }

// Sent records one outbound element for key: typ is the element's wire
// type ("dat.update", "dat.detach", ...), bytes its estimated payload
// size. Updates additionally count toward Sent.
func (v *LoadVec) Sent(key ident.ID, typ string, bytes int) {
	v.mu.Lock()
	t := v.row(key)
	t.Elems++
	t.Bytes += uint64(bytes)
	if typ == "dat.update" {
		t.Sent++
	}
	v.mu.Unlock()
}

// Recv records one accepted inbound child update for key.
func (v *LoadVec) Recv(key ident.ID) {
	v.mu.Lock()
	v.row(key).Recv++
	v.mu.Unlock()
}

// Round records a completed aggregation round for key: fanIn child
// partials folded, root whether this node finished the round as the
// tree's root.
func (v *LoadVec) Round(key ident.ID, root bool, fanIn int) {
	v.mu.Lock()
	t := v.row(key)
	t.FanIn += uint64(fanIn)
	if root {
		t.RootSlots++
	}
	v.mu.Unlock()
}

// Retry records an acked-update send attempt beyond the first for key.
func (v *LoadVec) Retry(key ident.ID) {
	v.mu.Lock()
	v.row(key).Retries++
	v.mu.Unlock()
}

// TreeRow is one row of a LoadVec snapshot.
type TreeRow struct {
	Label string
	TreeLoad
}

// Snapshot returns a copy of every row (the overflow bucket last when
// non-empty), sorted by descending load and then by label so identical
// counter states always render identically.
func (v *LoadVec) Snapshot() []TreeRow {
	v.mu.Lock()
	rows := make([]TreeRow, 0, len(v.rows)+1)
	for _, r := range v.rows {
		rows = append(rows, *r)
	}
	other := v.other
	v.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		li, lj := rows[i].load(), rows[j].load()
		if li != lj {
			return li > lj
		}
		return rows[i].Label < rows[j].Label
	})
	if other != (TreeLoad{}) {
		rows = append(rows, TreeRow{Label: OtherLabel, TreeLoad: other})
	}
	return rows
}

// loadSortColumns maps /debug/load?sort= values to row weights.
var loadSortColumns = map[string]func(TreeRow) uint64{
	"load":    func(r TreeRow) uint64 { return r.load() },
	"sent":    func(r TreeRow) uint64 { return r.Sent },
	"recv":    func(r TreeRow) uint64 { return r.Recv },
	"elems":   func(r TreeRow) uint64 { return r.Elems },
	"bytes":   func(r TreeRow) uint64 { return r.Bytes },
	"fanin":   func(r TreeRow) uint64 { return r.FanIn },
	"retries": func(r TreeRow) uint64 { return r.Retries },
	"root":    func(r TreeRow) uint64 { return r.RootSlots },
}

// WriteTable renders the per-tree table for /debug/load, sorted by the
// named column (descending, label ascending as tie-break; "" or an
// unknown name means the default load ordering). Output is a pure
// function of the counter state.
func (v *LoadVec) WriteTable(w io.Writer, sortBy string) {
	rows := v.Snapshot()
	if weight, ok := loadSortColumns[sortBy]; ok && sortBy != "load" {
		// Snapshot already ordered by load; re-rank by the requested
		// column, keeping the overflow bucket wherever it lands.
		sort.SliceStable(rows, func(i, j int) bool {
			wi, wj := weight(rows[i]), weight(rows[j])
			if wi != wj {
				return wi > wj
			}
			return rows[i].Label < rows[j].Label
		})
	}
	fmt.Fprintf(w, "%-22s %10s %10s %10s %12s %10s %8s %10s\n",
		"tree", "sent", "recv", "elems", "bytes", "fanin", "retries", "rootslots")
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no tree traffic recorded)")
		return
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10d %10d %10d %12d %10d %8d %10d\n",
			r.Label, r.Sent, r.Recv, r.Elems, r.Bytes, r.FanIn, r.Retries, r.RootSlots)
	}
}

// LoadSummary is the cluster-wide answer extracted from a dat.load.*
// monitoring tree's root aggregate: per-node load statistics and the
// live imbalance factor (max/mean node load — the paper's fig. 8
// metric), qualified by the coverage the aggregation achieved.
type LoadSummary struct {
	// Slot is the aggregation slot index the figures come from.
	Slot int64
	// Nodes is the number of nodes that contributed samples.
	Nodes uint64
	// Sum, Mean, Max, Min are over the contributing nodes' load values.
	Sum  float64
	Mean float64
	Max  float64
	Min  float64
	// Imbalance is Max/Mean (1.0 is perfectly balanced; 0 when no
	// samples arrived).
	Imbalance float64
	// Coverage is the fraction of the estimated ring that contributed
	// (root-side figure; 0 when unknown).
	Coverage float64
	// Degraded reports the aggregation marked itself incomplete.
	Degraded bool
}

// NewLoadSummary derives a LoadSummary from a monitoring tree's root
// aggregate fields (count/sum/min/max as produced by core.Aggregate).
func NewLoadSummary(slot int64, nodes uint64, sum, min, max, coverage float64, degraded bool) LoadSummary {
	s := LoadSummary{
		Slot: slot, Nodes: nodes,
		Sum: sum, Min: min, Max: max,
		Coverage: coverage, Degraded: degraded,
	}
	if nodes > 0 {
		s.Mean = sum / float64(nodes)
		if s.Mean > 0 {
			s.Imbalance = max / s.Mean
		}
	}
	return s
}

// Write renders the summary for /debug/load.
func (s LoadSummary) Write(w io.Writer) {
	fmt.Fprintf(w, "slot=%d nodes=%d coverage=%.2f degraded=%v\n", s.Slot, s.Nodes, s.Coverage, s.Degraded)
	fmt.Fprintf(w, "node load: sum=%.0f mean=%.1f min=%.0f max=%.0f\n", s.Sum, s.Mean, s.Min, s.Max)
	fmt.Fprintf(w, "imbalance (max/mean): %.3f\n", s.Imbalance)
}
