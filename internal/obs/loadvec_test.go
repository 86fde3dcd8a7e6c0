package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/ident"
)

// TestLoadVecCardinalityCap checks the top-K bound: the first K distinct
// keys get their own rows, every later key folds into the shared
// `other` bucket, and established rows keep their identity.
func TestLoadVecCardinalityCap(t *testing.T) {
	v := NewLoadVec(2)
	v.Sent(ident.ID(10), "dat.update", 100)
	v.Recv(ident.ID(20))
	// Capacity exhausted: every further distinct key lands in `other`.
	for i := 0; i < 5; i++ {
		v.Sent(ident.ID(1000+i), "dat.update", 10)
	}
	// Established rows keep their identity after the cap is hit.
	v.Sent(ident.ID(10), "dat.detach", 7)

	rows := v.Snapshot()
	if len(rows) != 3 {
		t.Fatalf("snapshot has %d rows, want 3 (two keys + other): %+v", len(rows), rows)
	}
	byLabel := make(map[string]TreeRow, len(rows))
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	if r := byLabel["10"]; r.Sent != 1 || r.Elems != 2 || r.Bytes != 107 {
		t.Errorf("row 10 = %+v, want sent=1 elems=2 bytes=107", r)
	}
	if r := byLabel["20"]; r.Recv != 1 {
		t.Errorf("row 20 = %+v, want recv=1", r)
	}
	if r := byLabel[OtherLabel]; r.Sent != 5 || r.Elems != 5 || r.Bytes != 50 {
		t.Errorf("other row = %+v, want sent=5 elems=5 bytes=50", r)
	}
	if rows[len(rows)-1].Label != OtherLabel {
		t.Errorf("other bucket not rendered last: %+v", rows)
	}
}

// TestLoadVecObserverCardinality checks the scrape-time rendering end to
// end: the registry's dat_tree_* families carry exactly the LoadVec's
// bounded label set, never one series per overflow key, and with K+1
// trees the `other` row renders once per family that has traffic in it.
func TestLoadVecObserverCardinality(t *testing.T) {
	o := NewObserver(4)
	o.Load = NewLoadVec(1)
	co := o.CoreHooks()
	co.TreeSent(ident.ID(5), "dat.update", 80)
	for i := 0; i < 10; i++ {
		co.TreeSent(ident.ID(100+i), "dat.update", 10)
	}
	text := scrape(t, o)
	if !strings.Contains(text, `dat_tree_updates_sent_total{tree="5"} 1`) {
		t.Errorf("missing per-key series:\n%s", text)
	}
	if !strings.Contains(text, `dat_tree_updates_sent_total{tree="other"} 10`) {
		t.Errorf("missing folded overflow series:\n%s", text)
	}
	for i := 0; i < 10; i++ {
		if label := fmt.Sprintf(`tree="%d"`, 100+i); strings.Contains(text, label) {
			t.Errorf("overflow key leaked its own series %s", label)
		}
	}

	// K+1 trees, every counter touched on the overflow one: each of the
	// seven families renders `other` exactly once, after its TYPE line.
	co.UpdateApplied(ident.ID(100), false)
	co.UpdateRetried(ident.ID(100))
	co.RoundDone(ident.ID(100), 1, true, 3, 4, 0)
	text = scrape(t, o)
	for _, f := range treeFamilies {
		if got := strings.Count(text, f.name+`{tree="other"} `); got != 1 {
			t.Errorf("%s renders the other row %d times, want 1", f.name, got)
		}
		if !strings.Contains(text, "# TYPE "+f.name+" counter\n") {
			t.Errorf("%s lost its TYPE line", f.name)
		}
	}
	// A counter nobody bumped renders no sample: tree 5 was only sent to.
	if strings.Contains(text, `dat_tree_retries_total{tree="5"}`) {
		t.Errorf("zero counter rendered a sample:\n%s", text)
	}
}

// TestLoadVecConcurrentScrape hammers one LoadVec from concurrent
// bumpers while scraping snapshots and tables — the -race guard for the
// hook-side and HTTP-side paths sharing the vec.
func TestLoadVecConcurrentScrape(t *testing.T) {
	v := NewLoadVec(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := ident.ID(g*8 + i%8)
				v.Sent(key, "dat.update", 64)
				v.Recv(key)
				v.Round(key, i%3 == 0, 2)
				v.Retry(key)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		v.WriteTable(io.Discard, "bytes")
		v.Snapshot()
	}
	wg.Wait()
	var load uint64
	for _, r := range v.Snapshot() {
		load += r.Sent + r.Recv
	}
	if load != 4*500*2 {
		t.Fatalf("sent+recv over all rows = %d, want %d", load, 4*500*2)
	}
}

// TestDebugLoadGolden locks the /debug/load rendering: summary section,
// table header, deterministic row order, and sort override.
func TestDebugLoadGolden(t *testing.T) {
	o := NewObserver(4)
	co := o.CoreHooks()
	// Tree 7: heavy update traffic. Tree 9: light updates, heavy bytes.
	for i := 0; i < 3; i++ {
		co.TreeSent(ident.ID(7), "dat.update", 10)
	}
	co.UpdateApplied(ident.ID(7), false)
	co.TreeSent(ident.ID(9), "dat.update", 500)
	co.RoundDone(ident.ID(7), 4, true, 2, 3, 0)
	o.SetLoadSummary(func() (LoadSummary, bool) {
		return NewLoadSummary(4, 3, 12, 2, 6, 1, false), true
	})

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", url, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	body := get(srv.URL + "/debug/load")
	want := "== cluster load (self-monitoring DAT) ==\n" +
		"slot=4 nodes=3 coverage=1.00 degraded=false\n" +
		"node load: sum=12 mean=4.0 min=2 max=6\n" +
		"imbalance (max/mean): 1.500\n" +
		"\n" +
		"== per-tree load (this node) ==\n" +
		fmt.Sprintf("%-22s %10s %10s %10s %12s %10s %8s %10s\n",
			"tree", "sent", "recv", "elems", "bytes", "fanin", "retries", "rootslots") +
		fmt.Sprintf("%-22s %10d %10d %10d %12d %10d %8d %10d\n", "7", 3, 1, 3, 30, 2, 0, 1) +
		fmt.Sprintf("%-22s %10d %10d %10d %12d %10d %8d %10d\n", "9", 1, 0, 1, 500, 0, 0, 0)
	if body != want {
		t.Errorf("/debug/load mismatch:\n--- got ---\n%s--- want ---\n%s", body, want)
	}

	// ?sort=bytes re-ranks: tree 9's 500 estimated bytes outrank 7's 30.
	sorted := get(srv.URL + "/debug/load?sort=bytes")
	i7, i9 := strings.Index(sorted, "\n7 "), strings.Index(sorted, "\n9 ")
	if i7 < 0 || i9 < 0 || i9 > i7 {
		t.Errorf("?sort=bytes did not rank tree 9 first:\n%s", sorted)
	}
}

// TestDebugSpansFilters exercises the /debug/spans ?trace= and ?key=
// query parameters against a seeded ring.
func TestDebugSpansFilters(t *testing.T) {
	o := NewObserver(16)
	tr1 := RoundTrace(ident.ID(5), 1, false)
	tr2 := RoundTrace(ident.ID(6), 1, false)
	o.Spans.Record(Span{Trace: tr1, Key: ident.ID(5), Epoch: 1, From: "a", To: "b"})
	o.Spans.Record(Span{Trace: tr1, Key: ident.ID(5), Epoch: 1, From: "b", To: "c"})
	o.Spans.Record(Span{Trace: tr2, Key: ident.ID(6), Epoch: 1, From: "d", To: "c"})

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/debug/spans"); code != http.StatusOK ||
		!strings.Contains(body, "3 spans retained") {
		t.Errorf("unfiltered dump: code=%d body:\n%s", code, body)
	}
	code, body := get(fmt.Sprintf("/debug/spans?trace=%016x", tr1))
	if code != http.StatusOK || !strings.Contains(body, "2 of 3 retained spans match") {
		t.Errorf("?trace= dump: code=%d body:\n%s", code, body)
	}
	if strings.Contains(body, "d -> c") {
		t.Errorf("?trace= dump leaked another trace's span:\n%s", body)
	}
	// The 0x prefix form is accepted too.
	if code, body2 := get(fmt.Sprintf("/debug/spans?trace=0x%016x", tr1)); code != http.StatusOK || body2 != body {
		t.Errorf("0x-prefixed trace filter differs (code=%d):\n%s", code, body2)
	}
	if code, body := get("/debug/spans?key=6"); code != http.StatusOK ||
		!strings.Contains(body, "1 of 3 retained spans match") {
		t.Errorf("?key= dump: code=%d body:\n%s", code, body)
	}
	// Combined filters intersect; a trace/key mismatch matches nothing.
	if code, body := get(fmt.Sprintf("/debug/spans?trace=%016x&key=6", tr1)); code != http.StatusOK ||
		!strings.Contains(body, "no spans match (3 retained)") {
		t.Errorf("combined filter dump: code=%d body:\n%s", code, body)
	}
	if code, _ := get("/debug/spans?trace=zzz"); code != http.StatusBadRequest {
		t.Errorf("bad trace filter returned %d, want 400", code)
	}
	if code, _ := get("/debug/spans?key=notanumber"); code != http.StatusBadRequest {
		t.Errorf("bad key filter returned %d, want 400", code)
	}
}

// TestSpanDumpDeterministicOrder checks that Dump's trace-group order is
// a pure function of the retained set: two rings holding the same spans
// recorded in different orders render identically.
func TestSpanDumpDeterministicOrder(t *testing.T) {
	spans := []Span{
		{Trace: 0x30, Key: ident.ID(3), From: "c", To: "r", Recv: 3},
		{Trace: 0x10, Key: ident.ID(1), From: "a", To: "r", Recv: 1},
		{Trace: 0x20, Key: ident.ID(2), From: "b", To: "r", Recv: 2},
	}
	a := NewSpanRing(8)
	for _, s := range spans {
		a.Record(s)
	}
	b := NewSpanRing(8)
	for i := len(spans) - 1; i >= 0; i-- {
		b.Record(spans[i])
	}
	var outA, outB bytes.Buffer
	a.Dump(&outA)
	b.Dump(&outB)
	if outA.String() != outB.String() {
		t.Fatalf("dump depends on record order:\n--- a ---\n%s--- b ---\n%s", outA.String(), outB.String())
	}
	text := outA.String()
	i1 := strings.Index(text, "trace 0000000000000010")
	i2 := strings.Index(text, "trace 0000000000000020")
	i3 := strings.Index(text, "trace 0000000000000030")
	if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
		t.Fatalf("trace groups not sorted by ID:\n%s", text)
	}
}
