package dat_test

// Live mixed-ring interop test: a ring of real UDP peers where most
// members batch their updates while one flushes every element alone
// (Batch.MaxElems 1), one datagram per update. Monitoring several
// attributes at once forces the batching side to coalesce cross-tree
// updates into multi-element batches; the ring must still converge on
// full-coverage aggregates in both directions, with the telemetry
// proving that batching actually fired where it is on and nowhere else.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	dat "repro"
	"repro/internal/ident"
	"repro/internal/obs"
)

// scrapeMetrics fetches the observer's /metrics page as text.
func scrapeMetrics(t *testing.T, o *obs.Observer) string {
	t.Helper()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricSum sums every sample of the named family (all label sets), so
// counters read the same whether or not they carry labels.
func metricSum(t *testing.T, metrics, name string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer family sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("metric %s: bad sample line %q", name, line)
		}
		sum += v
	}
	return sum
}

// pickAttrs chooses monitored attribute names whose rendezvous keys
// spread root duty so that every peer is a NON-root sender in at least
// minNonRoot trees. Peer identifiers hash from ephemeral UDP ports, so
// with a handful of nodes one peer can own most of the ring and root
// every tree of a fixed attribute list — leaving it nothing to send and
// the sender-side assertions vacuous. Selecting against the actual ring
// makes them deterministic.
func pickAttrs(t *testing.T, peerIDs []uint64, minAttrs, minNonRoot int) []string {
	t.Helper()
	space := ident.New(32)
	const ringMask = 1<<32 - 1
	rootOf := func(key uint64) int {
		best, bestDist := -1, uint64(ringMask)+1
		for i, id := range peerIDs {
			if d := (id - key) & ringMask; d < bestDist {
				best, bestDist = i, d
			}
		}
		return best
	}
	nonRoot := make([]int, len(peerIDs))
	var attrs []string
	for i := 0; i < 256; i++ {
		attr := fmt.Sprintf("attr-%02d", i)
		root := rootOf(uint64(space.HashString(attr)))
		for p := range nonRoot {
			if p != root {
				nonRoot[p]++
			}
		}
		attrs = append(attrs, attr)
		enough := len(attrs) >= minAttrs
		for _, c := range nonRoot {
			if c < minNonRoot {
				enough = false
			}
		}
		if enough {
			return attrs
		}
	}
	t.Fatalf("no attribute set spreads root duty over peers %v", peerIDs)
	return nil
}

func TestLiveBatchedUnbatchedInterop(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	batchedObs := obs.NewObserver(256)
	plainObs := obs.NewObserver(256)
	mk := func(name string, o *obs.Observer, batch dat.BatchConfig) *dat.Peer {
		p, err := dat.NewPeer(dat.PeerConfig{
			Listen:     "127.0.0.1:0",
			Name:       name,
			Stabilize:  40 * time.Millisecond,
			FixFingers: 60 * time.Millisecond,
			Ping:       100 * time.Millisecond,
			Observer:   o,
			Batch:      batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}

	boot := mk("batched0", batchedObs, dat.BatchConfig{})
	boot.Create()
	peers := []*dat.Peer{boot}
	for i := 1; i < 3; i++ {
		p := mk("batched"+string(rune('0'+i)), nil, dat.BatchConfig{})
		if err := p.Join(boot.Addr()); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	plain := mk("unbatched", plainObs, dat.BatchConfig{MaxElems: 1})
	if err := plain.Join(boot.Addr()); err != nil {
		t.Fatal(err)
	}
	peers = append(peers, plain)

	// Several concurrent trees in which every peer sends: the senders'
	// per-tree parents collapse onto at most three destinations, so by
	// pigeonhole the batching send machines emit multi-element batches.
	ids := make([]uint64, len(peers))
	for i, p := range peers {
		ids[i] = p.ID()
	}
	attrs := pickAttrs(t, ids, 6, 4)

	for _, p := range peers {
		for _, attr := range attrs {
			attr := attr
			p.AddSensor(attr, func() (float64, bool) { return 1, true })
			if err := p.StartMonitor(attr, 100*time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every tree must reach full coverage: the unbatched peer's plain
	// updates land on batching roots, and batched updates land on the
	// unbatched peer whenever it parents a subtree.
	deadline := time.Now().Add(30 * time.Second)
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
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d attributes reached full coverage: %v", len(covered), len(attrs), covered)
		}
		time.Sleep(50 * time.Millisecond)
	}

	batched := scrapeMetrics(t, batchedObs)
	unbatched := scrapeMetrics(t, plainObs)

	// The batching node coalesced: flushes happened, and at least one
	// flush carried more than a single element (bytes are only counted
	// as saved when two or more messages share a datagram).
	if v := metricSum(t, batched, "dat_batch_flushes_total"); v == 0 {
		t.Error("batching node recorded no send-machine flushes")
	}
	if v := metricSum(t, batched, "dat_batch_bytes_saved_total"); v == 0 {
		t.Error("batching node never coalesced two updates into one datagram")
	}
	// Per-element acks completed delivery chains on both sides.
	if v := metricSum(t, batched, `dat_update_deliveries_total{outcome="ok"}`); v == 0 {
		t.Error("batching node completed no acked deliveries")
	}
	if v := metricSum(t, unbatched, `dat_update_deliveries_total{outcome="ok"}`); v == 0 {
		t.Error("unbatched node completed no acked deliveries")
	}
	// The unbatched peer never coalesces — every flush of its is a lone
	// message, the sender's choice.
	if v := metricSum(t, unbatched, "dat_batch_bytes_saved_total"); v != 0 {
		t.Errorf("unbatched node saved %v bytes by coalescing under MaxElems 1", v)
	}
}
