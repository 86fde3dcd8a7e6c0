package dat_test

// Live observability test: boots a small ring of real UDP peers with an
// Observer attached to the bootstrap node, then scrapes the observer's
// HTTP endpoints the way Prometheus and an operator would — /metrics
// must expose the chord lookup-hop histogram and the DAT aggregation
// counters with live (non-zero) values, /healthz must report the node
// running, and the pprof and debug pages must render.
//
// The monitored attributes are chosen after the ring forms so that the
// observed node provably roots one tree (it receives child updates —
// spans and inbound aggregation frames) and is a plain sender in the
// other (it completes acked deliveries and gets replies). With a fixed
// attribute list the ephemeral-port-derived identifiers can leave the
// observed node a pure leaf of the only tree, and a leaf's /metrics
// page has no inbound aggregation traffic to assert on.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dat "repro"
	"repro/internal/ident"
	"repro/internal/obs"
)

// pickAttrRootedAt returns the first attribute name whose rendezvous key
// is (rooted=true) or is not (rooted=false) owned by peer idx, under the
// same successor rule the DAT layer uses to place tree roots. Peer
// identifiers hash ephemeral ports, so idx's arc can be a sliver of the
// ring: 256 names missed an arc of ~0.1 % of it now and then; 2^20 names
// miss that one with probability e^-1000, and still find an arc a
// thousand times narrower more often than not.
func pickAttrRootedAt(t *testing.T, peerIDs []uint64, idx int, rooted bool) string {
	t.Helper()
	space := ident.New(32)
	const ringMask = 1<<32 - 1
	for i := 0; i < 1<<20; i++ {
		attr := fmt.Sprintf("obs-attr-%02d", i)
		key := uint64(space.HashString(attr))
		best, bestDist := -1, uint64(ringMask)+1
		for p, id := range peerIDs {
			if d := (id - key) & ringMask; d < bestDist {
				best, bestDist = p, d
			}
		}
		if (best == idx) == rooted {
			return attr
		}
	}
	t.Fatalf("no attribute name with rooted-at-%d=%v over peers %v", idx, rooted, peerIDs)
	return ""
}

func TestLivePeerObservabilityEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	observer := obs.NewObserver(1024)
	mk := func(name string, o *obs.Observer) *dat.Peer {
		p, err := dat.NewPeer(dat.PeerConfig{
			Listen:     "127.0.0.1:0",
			Name:       name,
			Stabilize:  40 * time.Millisecond,
			FixFingers: 60 * time.Millisecond,
			Ping:       100 * time.Millisecond,
			SelfMon:    dat.SelfMonConfig{Enable: true, Slot: 200 * time.Millisecond},
			// Roots broadcast completed rounds, so every peer's cached
			// ClusterLoad (and hence /debug/load) goes live, not just the
			// load tree's root.
			ShareResults: true,
			Observer:     o,
			Attributes:   []dat.Attribute{{Name: "cpu-usage", Min: 0, Max: 100}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}

	boot := mk("host0", observer)
	boot.Create()
	peers := []*dat.Peer{boot}
	for i := 1; i < 4; i++ {
		p := mk("host"+string(rune('0'+i)), nil)
		if err := p.Join(boot.Addr()); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}

	ids := make([]uint64, len(peers))
	for i, p := range peers {
		ids[i] = p.ID()
	}
	attrs := []string{
		pickAttrRootedAt(t, ids, 0, true),  // boot receives child updates
		pickAttrRootedAt(t, ids, 0, false), // boot sends its own updates
	}
	for _, p := range peers {
		for _, attr := range attrs {
			p.AddSensor(attr, func() (float64, bool) { return 25, true })
			if err := p.StartMonitor(attr, 100*time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	covered := make(map[string]bool, len(attrs))
	for len(covered) < len(attrs) {
		for _, attr := range attrs {
			if covered[attr] {
				continue
			}
			for _, p := range peers {
				if agg, ok := p.LatestResult(attr); ok && agg.Count == uint64(len(peers)) {
					covered[attr] = true
					break
				}
			}
		}
		if len(covered) == len(attrs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d aggregates covered all peers", len(covered), len(attrs))
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Drive a lookup on the observed node so the hop histogram has a
	// live sample (joins run their lookups on the joining side). The
	// queried tree is rooted elsewhere, so the lookup actually routes.
	if _, err := boot.Query(attrs[1], 400*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// One on-demand query of a tree the observed node roots reaches it
	// once: a call is one datagram, and its deadline covers the window.
	// Each request that reached it would open a collection epoch.
	queries := func() float64 {
		rec := httptest.NewRecorder()
		observer.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return metricSum(t, rec.Body.String(), `dat_transport_messages_total{type="dat.query"}`)
	}
	before := queries()
	if _, err := peers[1].Query(attrs[0], 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := queries() - before; got != 1 {
		t.Fatalf("one 1.5 s query reached its root %v times, want exactly 1", got)
	}

	// Two identical directory queries from the observed node: the first
	// looks its walk's first node up, the second starts from the arc
	// that lookup proved.
	for i := 0; i < 2; i++ {
		if _, err := boot.FindResources([]dat.Predicate{dat.Range("cpu-usage", 10, 20)}); err != nil {
			t.Fatal(err)
		}
	}

	// Self-monitoring plane: every peer contributes its load counters to
	// the dat.load.* trees; any member answers the cluster question.
	for _, p := range peers {
		if err := p.StartSelfMonitor(); err != nil {
			t.Fatal(err)
		}
	}
	for {
		s, err := peers[2].QueryClusterLoad(400 * time.Millisecond)
		if err == nil && s.Nodes == uint64(len(peers)) {
			if s.Sum <= 0 || s.Imbalance < 1 {
				t.Fatalf("incoherent cluster load summary %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster load never covered all peers (last: %+v err=%v)", s, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The observed peer's cached summary (fed by ShareResults broadcasts)
	// is what /debug/load renders; wait for it to go live.
	for {
		if s, ok := boot.ClusterLoad(); ok && s.Nodes == uint64(len(peers)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("observed peer never cached a cluster load summary")
		}
		time.Sleep(100 * time.Millisecond)
	}

	srv := httptest.NewServer(observer.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, metrics := get("/metrics")
	if code != http.StatusOK || len(metrics) == 0 {
		t.Fatalf("/metrics: code=%d len=%d", code, len(metrics))
	}
	for _, want := range []string{
		"# TYPE chord_lookup_hops histogram",
		"# TYPE dat_rounds_total counter",
		"# TYPE dat_transport_messages_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Inbound aggregation traffic reached the observed root: child
	// updates arrive either as plain frames or coalesced into batch
	// envelopes, depending on how the senders' queues lined up.
	if !strings.Contains(metrics, `dat_transport_messages_total{type="dat.update"}`) &&
		!strings.Contains(metrics, `dat_transport_messages_total{type="dat.batch"}`) {
		t.Error("/metrics shows no inbound dat.update or dat.batch frames")
	}
	// And the observed node's own sends completed their acked chains.
	if v := metricSum(t, metrics, `dat_update_deliveries_total{outcome="ok"}`); v == 0 {
		t.Error("observed node completed no acked update deliveries")
	}
	// Live values, not just registered families.
	if strings.Contains(metrics, "chord_lookup_hops_count 0\n") {
		t.Error("chord_lookup_hops has no samples after a query")
	}
	if observer.Spans.Total() == 0 {
		t.Error("no aggregation spans recorded on the observed node")
	}

	code, health := get("/healthz")
	if code != http.StatusOK || !strings.Contains(health, `"running":true`) {
		t.Fatalf("/healthz: code=%d body=%s", code, health)
	}

	// The per-tree accounting surfaced on /metrics with bounded labels.
	for _, want := range []string{
		"# TYPE dat_tree_updates_sent_total counter",
		"# TYPE dat_tree_wire_bytes_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, `dat_tree_updates_sent_total{tree="`) {
		t.Error("/metrics has no per-tree send series after live traffic")
	}

	code, debug := get("/debug/dat")
	if code != http.StatusOK || !strings.Contains(debug, "self") {
		t.Fatalf("/debug/dat: code=%d body=%q", code, debug)
	}
	if !strings.Contains(debug, "owner arcs cached  1 of ") {
		t.Errorf("/debug/dat does not show the directory's one cached owner arc:\n%s", debug)
	}
	for _, want := range []string{
		`dat_maan_owner_arcs_total{result="miss"} 1`,
		`dat_maan_owner_arcs_total{result="hit"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, load := get("/debug/load")
	if code != http.StatusOK ||
		!strings.Contains(load, "== cluster load (self-monitoring DAT) ==") ||
		!strings.Contains(load, "== per-tree load (this node) ==") {
		t.Fatalf("/debug/load: code=%d body=%q", code, load)
	}
	if !strings.Contains(load, "imbalance (max/mean):") {
		t.Errorf("/debug/load has no live cluster summary:\n%s", load)
	}

	// No peer above set PeerConfig.Overload: the zero value arms the
	// avoid verdict at the default thresholds.
	code, overload := get("/debug/overload")
	if code != http.StatusOK || !strings.Contains(overload, "breaker: 3 fails, 1s cooldown; evict: 2 strikes") ||
		!strings.Contains(overload, "== peer health ==") {
		t.Fatalf("/debug/overload: code=%d body=%q", code, overload)
	}

	code, spans := get("/debug/spans?key=" + fmt.Sprint(uint64(ident.New(32).HashString(attrs[0]))))
	if code != http.StatusOK || !strings.Contains(spans, "spans match") {
		t.Fatalf("/debug/spans?key=: code=%d body=%q", code, spans)
	}

	code, pprofIdx := get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(pprofIdx, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
}
