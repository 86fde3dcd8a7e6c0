package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

func cell(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			v, err := strconv.ParseFloat(tab.Rows[row][i], 64)
			if err != nil {
				t.Fatalf("cell %s[%d] = %q: %v", col, row, tab.Rows[row][i], err)
			}
			return v
		}
	}
	t.Fatalf("no column %q in %v", col, tab.Columns)
	return 0
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tab.Add(1, 2.5)
	tab.Add("z", 3)
	tab.Note("hello %d", 7)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "2.500", "z", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,b\n1,2.500\n") {
		t.Fatalf("csv = %q", buf.String())
	}
}

// TestTreePropertiesShape checks the Fig. 7 qualitative anchors on a
// reduced sweep: basic max branching grows with n, probing reduces it,
// balanced+probing stays a small constant, and heights respect bounds.
func TestTreePropertiesShape(t *testing.T) {
	tables := TreeProperties(TreePropsConfig{
		Sizes:  []int{16, 64, 256, 1024},
		Trials: 2,
		Seed:   7,
	})
	if len(tables) != 3 {
		t.Fatalf("got %d tables", len(tables))
	}
	maxT := tables[0]
	last := len(maxT.Rows) - 1

	// Basic grows with n.
	if cell(t, maxT, last, "basic/random") <= cell(t, maxT, 0, "basic/random") {
		t.Error("basic/random max branching did not grow with n")
	}
	// Probing reduces basic's max branching at scale.
	if cell(t, maxT, last, "basic/probed") >= cell(t, maxT, last, "basic/random") {
		t.Error("probing did not reduce basic max branching")
	}
	// Balanced with probing is a small constant (paper: ~4; theorem
	// variant: <=2 plus placement slack).
	for r := range maxT.Rows {
		if v := cell(t, maxT, r, "balanced/probed"); v > 6 {
			t.Errorf("balanced/probed max branching %v at row %d", v, r)
		}
		if v := cell(t, maxT, r, "balanced-local/probed"); v > 8 {
			t.Errorf("balanced-local/probed max branching %v at row %d", v, r)
		}
	}
	// Balanced/probed stays flat while basic grows: compare growth.
	growBasic := cell(t, maxT, last, "basic/random") - cell(t, maxT, 0, "basic/random")
	growBal := cell(t, maxT, last, "balanced/probed") - cell(t, maxT, 0, "balanced/probed")
	if growBal > growBasic/2 {
		t.Errorf("balanced growth %v not clearly flatter than basic %v", growBal, growBasic)
	}

	// Fig 7b: average branching roughly constant, around 2-3.5.
	avgT := tables[1]
	for r := range avgT.Rows {
		for _, col := range []string{"balanced/probed", "balanced-local/probed"} {
			if v := cell(t, avgT, r, col); v < 1.2 || v > 3.6 {
				t.Errorf("%s avg branching %v at row %d", col, v, r)
			}
		}
	}

	// Heights within bound (+ slack for random placement).
	hT := tables[2]
	for r := range hT.Rows {
		bound := cell(t, hT, r, "bound")
		for _, col := range []string{"balanced/probed", "balanced-local/probed"} {
			if v := cell(t, hT, r, col); v > bound+1 {
				t.Errorf("%s height %v exceeds bound %v", col, v, bound)
			}
		}
		if v := cell(t, hT, r, "basic/random"); v > 2*bound {
			t.Errorf("basic/random height %v too far above bound %v", v, bound)
		}
	}
}

// TestMessageDistributionAnchors checks Fig. 8(a)'s anchors at n=512:
// centralized rank-1 load = 511; balanced max a small constant; basic in
// between.
func TestMessageDistributionAnchors(t *testing.T) {
	tab := MessageDistribution(LoadBalanceConfig{N: 512, Seed: 3, IDs: cluster.ProbedIDs})
	if cell(t, tab, 0, "rank") != 1 {
		t.Fatal("first row is not rank 1")
	}
	if got := cell(t, tab, 0, "centralized"); got != 511 {
		t.Errorf("centralized root load = %v, want 511", got)
	}
	balancedMax := cell(t, tab, 0, "balanced")
	basicMax := cell(t, tab, 0, "basic")
	if balancedMax > 6 {
		t.Errorf("balanced max = %v, want small constant (paper ~4)", balancedMax)
	}
	if basicMax <= balancedMax {
		t.Errorf("basic max %v not worse than balanced %v", basicMax, balancedMax)
	}
	if basicMax >= 511 {
		t.Errorf("basic max %v not better than centralized", basicMax)
	}
	// Total messages per scheme must be n-1 for DATs.
	lastRow := len(tab.Rows) - 1
	if got := cell(t, tab, lastRow, "rank"); got != 512 {
		t.Fatalf("last rank = %v", got)
	}
}

// TestImbalanceShape checks Fig. 8(b): centralized ~linear, basic ~log,
// balanced ~constant.
func TestImbalanceShape(t *testing.T) {
	tab := Imbalance(LoadBalanceConfig{Sizes: []int{100, 400, 1000}, Seed: 3, IDs: cluster.ProbedIDs})
	first, last := 0, len(tab.Rows)-1

	cFirst, cLast := cell(t, tab, first, "centralized"), cell(t, tab, last, "centralized")
	if ratio := cLast / cFirst; ratio < 5 || ratio > 15 {
		t.Errorf("centralized imbalance scaling %v for 10x nodes, want ~10x", ratio)
	}
	bFirst, bLast := cell(t, tab, first, "basic"), cell(t, tab, last, "basic")
	if bLast <= bFirst {
		t.Error("basic imbalance did not grow")
	}
	if bLast/bFirst > 4 {
		t.Errorf("basic imbalance grew %vx for 10x nodes, want log-like", bLast/bFirst)
	}
	for r := range tab.Rows {
		if v := cell(t, tab, r, "balanced"); v < 1 || v > 4 {
			t.Errorf("balanced imbalance %v at row %d, want ~2", v, r)
		}
	}
	// Ordering at every size: balanced < basic < centralized.
	for r := range tab.Rows {
		bal, bas, cen := cell(t, tab, r, "balanced"), cell(t, tab, r, "basic"), cell(t, tab, r, "centralized")
		if !(bal < bas && bas < cen) {
			t.Errorf("row %d ordering violated: balanced=%v basic=%v centralized=%v", r, bal, bas, cen)
		}
	}
}

// TestMonitoringAccuracySmall runs a reduced Fig. 9 (64 nodes, 30
// minutes) and checks the aggregated signal tracks the actual one.
func TestMonitoringAccuracySmall(t *testing.T) {
	seriesT, scatterT, stats, err := MonitoringAccuracy(AccuracyConfig{
		N:           64,
		Duration:    30 * time.Minute,
		Seed:        5,
		SharedTrace: true,
		SampleEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seriesT.Rows) == 0 || len(scatterT.Rows) == 0 {
		t.Fatal("empty accuracy tables")
	}
	if stats.Slots < 50 {
		t.Fatalf("only %d slots compared", stats.Slots)
	}
	if stats.Correlation < 0.9 {
		t.Errorf("correlation %v, want > 0.9 (points on the diagonal)", stats.Correlation)
	}
	if stats.MeanAbsPct > 10 {
		t.Errorf("mean abs error %v%%, want < 10%%", stats.MeanAbsPct)
	}
	// Every slot must aggregate all 64 nodes once warm.
	for r := range seriesT.Rows {
		if got := cell(t, seriesT, r, "reporting_nodes"); got != 64 {
			t.Errorf("row %d reporting nodes = %v", r, got)
		}
	}
}

// TestChurnOverheadShape: DAT cost constant in tree count; explicit cost
// linear; explicit grows past DAT as trees multiply.
func TestChurnOverheadShape(t *testing.T) {
	tab, err := ChurnOverhead(ChurnConfig{N: 24, Events: 12, TreeCounts: []int{1, 8, 32}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dat0 := cell(t, tab, 0, "dat_overlay_msgs")
	for r := range tab.Rows {
		if got := cell(t, tab, r, "dat_overlay_msgs"); got != dat0 {
			t.Errorf("DAT cost varies with tree count: %v vs %v", got, dat0)
		}
	}
	e1 := cell(t, tab, 0, "explicit_tree_msgs")
	e32 := cell(t, tab, 2, "explicit_tree_msgs")
	if e32 != 32*e1 {
		t.Errorf("explicit cost not linear: 1 tree %v, 32 trees %v", e1, e32)
	}
	if e32 <= dat0 {
		t.Errorf("explicit trees (%v) should exceed DAT overlay cost (%v) at 32 trees", e32, dat0)
	}
}

// TestMAANQueryCostShape: hops grow with selectivity (the k term) and
// stay near the log n + k prediction.
func TestMAANQueryCostShape(t *testing.T) {
	tab, err := MAANQueryCost(MAANConfig{
		Sizes: []int{64, 512}, Selectivities: []float64{0.01, 0.2},
		Resources: 128, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		narrow := cell(t, tab, r, "hops@s=0.01")
		wide := cell(t, tab, r, "hops@s=0.20")
		if wide <= narrow {
			t.Errorf("row %d: wide query (%v hops) not costlier than narrow (%v)", r, wide, narrow)
		}
		predWide := cell(t, tab, r, "pred@s=0.20")
		if wide > 2.5*predWide {
			t.Errorf("row %d: measured %v hops far above prediction %v", r, wide, predWide)
		}
	}
	// Registration cost per attribute ~ log n.
	if r0, r1 := cell(t, tab, 0, "register_hops_per_attr"), cell(t, tab, 1, "register_hops_per_attr"); r1 <= r0 {
		t.Errorf("register hops did not grow with n: %v -> %v", r0, r1)
	}
}

// TestBatchingOverheadShape: the send machine must not change the
// unbatched column (it is disabled there), must never send more
// datagrams than the ablation, and the reduction must clear the PR's
// acceptance bar (>= 5x) at the largest tree count.
func TestBatchingOverheadShape(t *testing.T) {
	tab, err := BatchingOverhead(BatchingConfig{N: 48, Slots: 10, Trees: []int{1, 16, 64}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		plain := cell(t, tab, r, "unbatched_per_slot")
		batched := cell(t, tab, r, "batched_per_slot")
		if batched > plain {
			t.Errorf("row %d: batching sent more datagrams (%v) than the ablation (%v)", r, batched, plain)
		}
	}
	if red := cell(t, tab, len(tab.Rows)-1, "reduction"); red < 5 {
		t.Errorf("datagram reduction %v at 64 trees, want >= 5x", red)
	}
}

// TestSelfMonitorOverheadShape: the self-monitoring plane must clear
// the PR's acceptance bar — under 10% extra dat.* datagrams per slot at
// 48 nodes — with full coverage, and the imbalance factor it reports
// through its own trees must track the offline ground-truth computation.
func TestSelfMonitorOverheadShape(t *testing.T) {
	tab, err := SelfMonitorOverhead(SelfMonitorConfig{Slots: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "off" || tab.Rows[1][0] != "on" {
		t.Fatalf("unexpected rows: %v", tab.Rows)
	}
	on := len(tab.Rows) - 1
	if overhead := cell(t, tab, on, "overhead_pct"); overhead < 0 || overhead >= 10 {
		t.Errorf("self-monitoring overhead %v%%, want [0, 10)", overhead)
	}
	if cov := cell(t, tab, on, "coverage"); cov < 1 {
		t.Errorf("live summary coverage %v, want 1", cov)
	}
	truth := cell(t, tab, on, "imbalance_true")
	live := cell(t, tab, on, "imbalance_live")
	if truth < 1 || live < 1 {
		t.Errorf("imbalance below 1: true=%v live=%v", truth, live)
	}
	if diff := live/truth - 1; diff < -0.25 || diff > 0.25 {
		t.Errorf("live imbalance %v drifted >25%% from ground truth %v", live, truth)
	}
}
