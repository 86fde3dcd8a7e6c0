package experiments

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestSyncAblationShowsBenefit: the staggered variant must be strictly
// more accurate than the unsynchronized one.
func TestSyncAblationShowsBenefit(t *testing.T) {
	tab, err := SyncAblation(AblationConfig{N: 48, Slots: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	syncCorr := cell(t, tab, 0, "correlation")
	ablCorr := cell(t, tab, 1, "correlation")
	syncErr := cell(t, tab, 0, "mean_abs_err_pct")
	ablErr := cell(t, tab, 1, "mean_abs_err_pct")
	if syncCorr < 0.99 {
		t.Errorf("staggered correlation = %v, want ~1", syncCorr)
	}
	if syncErr > 0.5 {
		t.Errorf("staggered error = %v%%, want ~0", syncErr)
	}
	if ablErr <= syncErr {
		t.Errorf("ablated error (%v%%) not worse than staggered (%v%%)", ablErr, syncErr)
	}
	if ablCorr >= syncCorr {
		t.Errorf("ablated correlation (%v) not worse than staggered (%v)", ablCorr, syncCorr)
	}
}

// TestSuccessorListAblationHeals: with the default list length the ring
// must heal a 20% correlated crash within the budget.
func TestSuccessorListAblationHeals(t *testing.T) {
	tab, err := SuccessorListAblation(AblationConfig{N: 48, ListLens: []int{1, 4}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Row for list length 4 must heal.
	healedCol := -1
	for i, c := range tab.Columns {
		if c == "converged" {
			healedCol = i
		}
	}
	if healedCol < 0 {
		t.Fatal("no converged column")
	}
	if tab.Rows[1][healedCol] != "true" {
		t.Errorf("list_len=4 did not heal: %v", tab.Rows[1])
	}
}

// TestMultiTreeLoadBalances: the summed load's imbalance factor must
// shrink as tree count grows, and root roles must spread.
func TestMultiTreeLoadBalances(t *testing.T) {
	tab, err := MultiTreeLoad(MultiTreeConfig{N: 256, Trees: []int{1, 16, 128}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tab, 0, "imbalance")
	last := cell(t, tab, len(tab.Rows)-1, "imbalance")
	if last >= first {
		t.Errorf("imbalance did not fall with more trees: %v -> %v", first, last)
	}
	if last > 2.5 {
		t.Errorf("128-tree imbalance = %v, want near 1", last)
	}
	if roots := cell(t, tab, len(tab.Rows)-1, "distinct_roots"); roots < 60 {
		t.Errorf("only %v distinct roots for 128 trees on 256 nodes", roots)
	}
}

// TestMessageOverheadFlatForDAT: DAT per-node overhead stays ~1 while
// the overlay-routed centralized scheme grows with log n.
func TestMessageOverheadFlatForDAT(t *testing.T) {
	tab := MessageOverhead(LoadBalanceConfig{Sizes: []int{100, 1000}, Seed: 5, IDs: cluster.ProbedIDs})
	for r := range tab.Rows {
		for _, col := range []string{"basic", "balanced", "balanced-local"} {
			if v := cell(t, tab, r, col); v < 0.98 || v > 1.0 {
				t.Errorf("row %d %s overhead %v, want ~1", r, col, v)
			}
		}
	}
	r0 := cell(t, tab, 0, "centralized-routed")
	r1 := cell(t, tab, 1, "centralized-routed")
	if r1 <= r0 {
		t.Errorf("routed overhead did not grow: %v -> %v", r0, r1)
	}
}

// TestWideAreaExactAtAnyHold: under WAN latency well above the hold,
// parents still fold their children's slot-t values, because they
// report when those arrive rather than after a hold; the measured root
// delay is the chain of WAN deliveries, far inside the slot.
func TestWideAreaExactAtAnyHold(t *testing.T) {
	tab, err := WideArea(WideAreaConfig{
		N: 48, Slots: 30, Seed: 3,
		Holds: []time.Duration{10 * time.Millisecond, 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, hold := range []string{"10ms", "200ms"} {
		if c := cell(t, tab, r, "correlation"); c < 0.99 {
			t.Errorf("hold %s: correlation = %v, want ~1", hold, c)
		}
		if e := cell(t, tab, r, "mean_abs_err_pct"); e > 0.5 {
			t.Errorf("hold %s: error = %v%%, want ~0", hold, e)
		}
		d, err := time.ParseDuration(tab.Rows[r][len(tab.Columns)-1])
		if err != nil || d <= 0 || d > 5*time.Second {
			t.Errorf("hold %s: root delay %q, want a measured delay well inside the 15s slot", hold, tab.Rows[r][len(tab.Columns)-1])
		}
	}
}

// TestOnDemandCostShape: full coverage and totals within the 3(n-1)
// bound.
func TestOnDemandCostShape(t *testing.T) {
	tab, err := OnDemandCost(OnDemandConfig{Sizes: []int{32, 96}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		n := cell(t, tab, r, "n")
		if got := cell(t, tab, r, "covered"); got != n {
			t.Errorf("row %d: covered %v of %v", r, got, n)
		}
		total := cell(t, tab, r, "total_msgs")
		bound := cell(t, tab, r, "bound(3(n-1))")
		if total > bound {
			t.Errorf("row %d: %v messages exceed bound %v", r, total, bound)
		}
		if total < 2*(n-1) {
			t.Errorf("row %d: %v messages suspiciously few", r, total)
		}
	}
}

// TestOverloadAblationHeadline holds the circuit-breaker ablation to its
// headline at the default shape and seed: the datagrams wasted on an ack
// blackhole per slot stay at or below 1.500 with breakers armed and
// 19.167 without (the figures of the protocol that still backed off
// tree by tree), so switching protection off fails it; and both runs
// keep their send queues far below the structural bound with no budget
// policing them (OverloadAblation itself fails if any element was
// refused).
func TestOverloadAblationHeadline(t *testing.T) {
	tab, err := OverloadAblation(OverloadAblationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for row, ceiling := range []float64{19.167, 1.500} {
		if w := cell(t, tab, row, "wasted_to_victim_per_slot"); w > ceiling {
			t.Errorf("row %d: %.3f datagrams wasted per slot, want <= %.3f", row, w, ceiling)
		}
	}
	if opens := cell(t, tab, 0, "breaker_opens"); opens != 0 {
		t.Errorf("unprotected run opened %v breakers", opens)
	}
	for row := range tab.Rows {
		if hw := cell(t, tab, row, "queue_hiwater_bytes"); hw >= 47*1200 {
			t.Errorf("row %d: queue hi-water %v reaches peers x Batch.MaxBytes", row, hw)
		}
	}
}
