package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ident"
)

// scrape renders the observer's registry to a string.
func scrape(t *testing.T, o *Observer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestObserverHooksFeedInstruments(t *testing.T) {
	o := NewObserver(16)

	o.Tap().Message("a", "b", "dat.update", true)
	o.Tap().Message("b", "a", "chord.ping:reply", false)

	ch := o.ChordHooks()
	ch.LookupDone(3, nil)
	ch.LookupDone(1, errors.New("boom"))
	ch.StabilizeRound()
	ch.JoinDone(50*time.Millisecond, nil)
	ch.JoinDone(time.Hour, errors.New("failed joins don't skew latency"))
	ch.Suspected("peer")
	ch.Evicted("peer")

	co := o.CoreHooks()
	co.Span(Span{Trace: 1, Key: ident.ID(5), From: "a", To: "b"})
	co.RoundDone(ident.ID(5), 10, true, 2, 7, 3*time.Millisecond)
	co.RoundDone(ident.ID(5), 10, false, 0, 0, time.Millisecond)
	co.UpdateApplied(ident.ID(5), false)
	co.UpdateApplied(ident.ID(5), true)
	co.UpdateRejected(ident.ID(5), "cycle")
	co.ChildExpired(2)
	co.UpdateRetried(ident.ID(5))
	co.TreeSent(ident.ID(5), "dat.update", 80)
	co.TreeSent(ident.ID(5), "dat.detach", 20)

	th := o.TransportHooks()
	th.SendError("dat.update")
	th.DecodeError()

	mh := o.MAANHooks()
	mh.OwnerArc("hit")
	mh.OwnerArc("hit")
	mh.OwnerArc("miss")
	mh.OwnerArc("stale")

	out := scrape(t, o)
	for _, want := range []string{
		`dat_transport_messages_total{type="dat.update"} 1`,
		`dat_transport_messages_total{type="chord.ping:reply"} 1`,
		`chord_lookups_total{result="ok"} 1`,
		`chord_lookups_total{result="error"} 1`,
		"chord_stabilize_rounds_total 1",
		"chord_join_seconds_count 1",
		"chord_suspects_total 1",
		"chord_evictions_total 1",
		`dat_rounds_total{role="root"} 1`,
		`dat_rounds_total{role="relay"} 1`,
		"dat_round_nodes 7",
		`dat_updates_total{kind="applied"} 1`,
		`dat_updates_total{kind="applied-demand"} 1`,
		`dat_updates_total{kind="rejected-cycle"} 1`,
		"dat_children_expired_total 2",
		"dat_spans_total 1",
		`dat_tree_updates_recv_total{tree="5"} 2`,
		`dat_tree_updates_sent_total{tree="5"} 1`,
		`dat_tree_elems_total{tree="5"} 2`,
		`dat_tree_wire_bytes_total{tree="5"} 100`,
		`dat_tree_fanin_total{tree="5"} 2`,
		`dat_tree_retries_total{tree="5"} 1`,
		`dat_tree_root_slots_total{tree="5"} 1`,
		"dat_transport_send_errors_total 1",
		"dat_transport_decode_errors_total 1",
		`dat_maan_owner_arcs_total{result="hit"} 2`,
		`dat_maan_owner_arcs_total{result="miss"} 1`,
		`dat_maan_owner_arcs_total{result="stale"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if got := len(o.Spans.Snapshot()); got != 1 {
		t.Errorf("span ring holds %d spans, want 1", got)
	}
	// chord_lookup_hops sees every completed lookup, failed or not.
	if !strings.Contains(out, "chord_lookup_hops_count 2") {
		t.Errorf("scrape missing chord_lookup_hops_count 2:\n%s", out)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	o := NewObserver(16)
	o.CoreHooks().Span(Span{Trace: 1, From: "a", To: "b"})
	o.AddDebug("section one", func(w io.Writer) { io.WriteString(w, "hello\n") })
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics: code=%d type=%q", code, ctype)
	}
	if !strings.Contains(body, "# TYPE chord_lookup_hops histogram") {
		t.Errorf("/metrics missing lookup-hop histogram:\n%s", body)
	}

	// No health fn installed: the probe optimistically reports running.
	code, body, _ = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz without probe: code=%d", code)
	}

	o.SetHealth(func() Health { return Health{Running: false, Addr: "x"} })
	code, body, _ = get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz not running: code=%d", code)
	}

	o.SetHealth(func() Health {
		return Health{Running: true, Addr: "127.0.0.1:9", ID: "0x2a", EstimatedSize: 4}
	})
	code, body, _ = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz running: code=%d body=%s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if !h.Running || h.Addr != "127.0.0.1:9" || h.EstimatedSize != 4 {
		t.Fatalf("/healthz payload = %+v", h)
	}

	code, body, _ = get("/debug/dat")
	if code != http.StatusOK || !strings.Contains(body, "== section one ==") || !strings.Contains(body, "hello") {
		t.Fatalf("/debug/dat: code=%d body=%q", code, body)
	}

	code, body, _ = get("/debug/spans")
	if code != http.StatusOK || !strings.Contains(body, "1 spans retained") {
		t.Fatalf("/debug/spans: code=%d body=%q", code, body)
	}

	code, body, _ = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
}

func TestServeBindsAndStops(t *testing.T) {
	o := NewObserver(4)
	bound, stop, err := Serve("127.0.0.1:0", o, NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatalf("GET after Serve: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics over Serve: code=%d", resp.StatusCode)
	}
	stop()
	if _, err := http.Get("http://" + bound + "/metrics"); err == nil {
		t.Fatal("server still reachable after stop")
	}
}
