package rpcudp

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/transport"
)

// TestChordDATOverUDP runs the full protocol stack — the same Chord and
// DAT layers the simulator uses — over real UDP sockets on loopback,
// mirroring the paper's cluster deployment (§5.1): join a ring, converge,
// and aggregate continuously.
func TestChordDATOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP stack test")
	}
	const n = 8
	space := ident.New(16)
	chordCfg := chord.Config{
		Space:           space,
		StabilizeEvery:  40 * time.Millisecond,
		FixFingersEvery: 60 * time.Millisecond,
		PingEvery:       100 * time.Millisecond,
	}
	clock := &transport.RealClock{}

	var eps []*Endpoint
	var nodes []*chord.Node
	var dats []*core.Node
	ids := chord.EvenIDs(space, n)
	for i := 0; i < n; i++ {
		ep, err := Listen("127.0.0.1:0", Config{CallTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		cn := chord.New(ep, clock, ids[i], chordCfg)
		idx := i
		dn := core.NewNode(cn, ep, clock, core.NodeConfig{
			Local: func(ident.ID) (float64, bool) { return float64(idx), true },
		})
		eps = append(eps, ep)
		nodes = append(nodes, cn)
		dats = append(dats, dn)
	}

	nodes[0].Create()
	boot := nodes[0].Self().Addr
	var joined atomic.Int32
	joined.Store(1)
	for i := 1; i < n; i++ {
		nodes[i].Join(boot, func(err error) {
			if err != nil {
				t.Errorf("join %d: %v", i, err)
				return
			}
			joined.Add(1)
		})
		// Sequential-ish joins converge faster on a cold ring.
		time.Sleep(60 * time.Millisecond)
	}
	waitFor(t, 10*time.Second, func() bool { return joined.Load() == n })

	// Wait for ring convergence: successor chain must equal the sorted ids.
	ring, err := chord.NewRing(space, ids)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		for _, nd := range nodes {
			if nd.Successor().ID != ring.Succ(nd.Self().ID) {
				return false
			}
			if p := nd.Predecessor(); p.IsZero() || p.ID != ring.Pred(nd.Self().ID) {
				return false
			}
		}
		return true
	})

	// Continuous aggregation over the real sockets.
	key := space.HashString("cpu-usage")
	root := ring.SuccessorOf(key)
	var rootDat *core.Node
	for i, nd := range nodes {
		if nd.Self().ID == root {
			rootDat = dats[i]
		}
		if err := dats[i].StartContinuous(key, 150*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool {
		_, agg, ok := rootDat.LastResult(key)
		return ok && agg.Count == n
	})
	_, agg, _ := rootDat.LastResult(key)
	if agg.Sum != float64(n*(n-1))/2 || agg.Min != 0 || agg.Max != n-1 {
		t.Fatalf("UDP aggregate = %v", agg)
	}

	// On-demand query over UDP from a non-root node.
	done := make(chan error, 1)
	dats[3].Query(key, 400*time.Millisecond, func(r core.QueryResp, err error) {
		if err == nil && r.Agg.Count != n {
			err = errCount(int(r.Agg.Count))
		}
		done <- err
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("on-demand over UDP: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("on-demand query never completed")
	}

	for _, nd := range nodes {
		nd.Stop(true)
	}
}

type errCount int

func (e errCount) Error() string { return "incomplete count" }

func waitFor(t *testing.T, limit time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
