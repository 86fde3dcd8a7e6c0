package maan_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/maan"
	"repro/internal/obs"
	"repro/internal/rpcudp"
	"repro/internal/transport"
)

// TestOversizedAnswerFailsFast: a result set that outgrows a datagram
// is this node's problem, not its successor's. The hop that cannot send
// it tells the originator, whose query fails at once, and nobody earns
// a failure-detector strike. (Before the fix the successor was
// suspected — two such queries evicted a healthy node — and the
// originator sat out the whole QueryTimeout.)
func TestOversizedAnswerFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	const (
		n         = 8
		maxPacket = 2048 // small, so a few dozen records overflow it
	)
	space := ident.New(16)
	schema, err := maan.NewSchema(space, maan.Attribute{Name: "cpu-usage", Min: 0, Max: 100})
	if err != nil {
		t.Fatal(err)
	}
	var suspects atomic.Int64
	chordCfg := chord.Config{
		Space:           space,
		StabilizeEvery:  40 * time.Millisecond,
		FixFingersEvery: 60 * time.Millisecond,
		FingersPerFix:   8,
		PingEvery:       100 * time.Millisecond,
		Obs:             obs.ChordHooks{Suspected: func(transport.Addr) { suspects.Add(1) }},
	}
	clock := &transport.RealClock{}
	ids := chord.EvenIDs(space, n)
	var nodes []*chord.Node
	var services []*maan.Service
	for i := 0; i < n; i++ {
		ep, err := rpcudp.Listen("127.0.0.1:0", rpcudp.Config{CallTimeout: 500 * time.Millisecond, MaxPacket: maxPacket})
		if err != nil {
			t.Fatal(err)
		}
		cn := chord.New(ep, clock, ids[i], chordCfg)
		svc := maan.NewService(cn, ep, clock, schema)
		t.Cleanup(func() {
			svc.Close()
			cn.Stop(false)
			ep.Close()
		})
		nodes = append(nodes, cn)
		services = append(services, svc)
	}
	nodes[0].Create()
	var joined atomic.Int32
	joined.Store(1)
	for i := 1; i < n; i++ {
		nodes[i].Join(nodes[0].Self().Addr, func(err error) {
			if err != nil {
				t.Errorf("join: %v", err)
				return
			}
			joined.Add(1)
		})
		time.Sleep(60 * time.Millisecond)
	}
	ring, err := chord.NewRing(space, ids)
	if err != nil {
		t.Fatal(err)
	}
	converged := func() bool {
		if joined.Load() != n {
			return false
		}
		for _, nd := range nodes {
			rt := nd.Routing()
			if rt.Successor().ID != ring.Succ(rt.Self.ID) || rt.Pred.IsZero() || rt.Pred.ID != ring.Pred(rt.Self.ID) {
				return false
			}
		}
		return true
	}
	waitFor(t, 20*time.Second, converged)

	// 64 resources spread over the whole attribute, ~50 bytes a record:
	// the full walk collects about 3 KiB.
	const resources = 64
	var registered atomic.Int32
	for i := 0; i < resources; i++ {
		res := maan.Resource{
			Name:   fmt.Sprintf("host%02d.a-long-site-name.grid.example", i),
			Values: map[string]float64{"cpu-usage": 100 * (float64(i) + 0.5) / resources},
		}
		services[i%n].Register(res, func(err error) {
			if err != nil {
				t.Errorf("register %s: %v", res.Name, err)
			}
			registered.Add(1)
		})
	}
	waitFor(t, 10*time.Second, func() bool { return registered.Load() == resources })

	query := func(lo, hi float64) ([]maan.Resource, error, time.Duration) {
		type answer struct {
			res []maan.Resource
			err error
		}
		done := make(chan answer, 1)
		t0 := time.Now()
		services[3].RangeQuery(maan.Range("cpu-usage", lo, hi), func(res []maan.Resource, _ int, err error) {
			done <- answer{res, err}
		})
		a := <-done // QueryTimeout bounds the wait
		return a.res, a.err, time.Since(t0)
	}

	before := suspects.Load()
	_, err, took := query(1, 99)
	if err == nil || !strings.Contains(err.Error(), transport.ErrTooLarge.Error()) {
		t.Fatalf("oversized answer: err = %v, want one naming %q", err, transport.ErrTooLarge)
	}
	if took > 2*time.Second {
		t.Errorf("oversized answer failed after %v; the originator waited for its timeout", took)
	}
	if got := suspects.Load() - before; got != 0 {
		t.Errorf("%d suspicions recorded for a message this node could not send", got)
	}
	if !converged() {
		t.Error("a routing view lost its successor or predecessor")
	}

	// The ring still answers what fits.
	res, err, _ := query(40, 50)
	if err != nil {
		t.Fatalf("small query after the oversized one: %v", err)
	}
	if len(res) == 0 || len(res) > 8 {
		t.Errorf("small query found %d resources, want the handful in [40, 50]", len(res))
	}
}

func waitFor(t *testing.T, limit time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
