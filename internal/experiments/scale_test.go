package experiments

import (
	"strconv"
	"testing"
)

// TestScaleShape smoke-runs the scale experiment with a reduced live
// ring: the snapshot sweep — outside -short at the paper's 65536 nodes
// too — must publish every tree inside its §3 branching and height
// bounds, and the live ring must fold a complete count at the root.
func TestScaleShape(t *testing.T) {
	sizes := []int{512}
	if !testing.Short() {
		sizes = append(sizes, 65536)
	}
	snap, live, stats, err := Scale(ScaleConfig{Sizes: sizes, LiveN: 64, Slots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sizes) * 2 * 3; len(snap.Rows) != want {
		t.Fatalf("snapshot table has %d rows, want %d", len(snap.Rows), want)
	}
	col := make(map[string]int, len(snap.Columns))
	for i, c := range snap.Columns {
		col[c] = i
	}
	for _, row := range snap.Rows {
		cell := func(name string) int {
			v, err := strconv.Atoi(row[col[name]])
			if err != nil {
				t.Fatalf("row %v: column %s: %v", row, name, err)
			}
			return v
		}
		if b, bound := cell("max_branching"), cell("branch_bound"); b <= 0 || b > bound {
			t.Errorf("row %v: max branching %d outside (0, %d]", row, b, bound)
		}
		if h, bound := cell("height"), cell("height_bound"); h <= 0 || h > bound {
			t.Errorf("row %v: height %d outside (0, %d]", row, h, bound)
		}
	}
	if len(live.Rows) != 1 {
		t.Fatalf("live table has %d rows, want 1", len(live.Rows))
	}
	if stats.RootCount != 64 {
		t.Fatalf("root count %d, want 64", stats.RootCount)
	}
	if stats.EventsFired == 0 || stats.EventsPerSec <= 0 {
		t.Fatalf("degenerate throughput measurement: %+v", stats)
	}
	if stats.BytesPerNode <= 0 || stats.PeakHeapBytes == 0 {
		t.Fatalf("degenerate memory measurement: %+v", stats)
	}
}
