package chord

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// healthFixture is a node whose only neighbour is peer, with maintenance
// quiet, so every strike comes from the evidence a test reports.
type healthFixture struct {
	eng                 *sim.Engine
	n                   *Node
	ep                  transport.Endpoint
	peer                transport.Addr
	suspects, evictions int
}

func newHealthFixture(t *testing.T) *healthFixture {
	t.Helper()
	f := &healthFixture{eng: sim.NewEngine(1), peer: "sim/peer"}
	net := transport.NewSimNetwork(f.eng, transport.SimConfig{})
	f.ep = net.Endpoint("sim/self")
	net.Endpoint(f.peer)
	space := ident.New(16)
	f.n = New(f.ep, net.Clock(), 100, Config{
		Space: space, StabilizeEvery: time.Hour, FixFingersEvery: time.Hour, PingEvery: time.Hour,
		Obs: obs.ChordHooks{
			Suspected: func(transport.Addr) { f.suspects++ },
			Evicted:   func(transport.Addr) { f.evictions++ },
		},
	})
	ref := NodeRef{ID: 30000, Addr: f.peer}
	f.n.SeedState(ref, []NodeRef{ref}, []NodeRef{ref})
	return f
}

// routed reports whether peer is still in any of the node's tables.
func (f *healthFixture) routed() bool {
	rt := f.n.Routing()
	return rt.Pred.Addr == f.peer || hasAddr(rt.Succs, f.peer) || hasAddr(rt.Fingers, f.peer)
}

// record returns peer's row of the record, or the zero row for none.
func (f *healthFixture) record() PeerHealth {
	rows, _, _ := f.n.PeerHealth()
	for _, r := range rows {
		if r.Peer == f.peer {
			return r
		}
	}
	return PeerHealth{Avoid: "closed"}
}

// TestPeerHealthVerdicts feeds evidence sequences into one peer's record
// and checks both verdicts: eviction from the ring and avoidance as DAT
// parent, each moved only by its own evidence.
func TestPeerHealthVerdicts(t *testing.T) {
	tooLarge := fmt.Errorf("rpcudp: message of 70000 bytes: %w", transport.ErrTooLarge)
	for _, tc := range []struct {
		name     string
		failures int // the avoid threshold
		cause    error
		evidence []Evidence

		suspects, evictions int
		strikes             int
		avoid               string
		moved               []string
	}{
		{name: "two ring failures evict", failures: 3,
			evidence: []Evidence{ChordFailed, ChordFailed},
			suspects: 2, evictions: 1, avoid: "closed"},
		{name: "a send error strikes like a timeout", failures: 3,
			evidence: []Evidence{SendFailed, ChordFailed},
			suspects: 2, evictions: 1, avoid: "closed"},
		{name: "a DAT ack between them clears", failures: 3,
			evidence: []Evidence{ChordFailed, DATAcked, ChordFailed},
			suspects: 2, strikes: 1, avoid: "closed"},
		{name: "a chord success between them clears", failures: 3,
			evidence: []Evidence{SendFailed, ChordOK, SendFailed},
			suspects: 2, strikes: 1, avoid: "closed"},
		{name: "a DAT failure below the threshold is one strike", failures: 3,
			evidence: []Evidence{DATFailed},
			suspects: 1, strikes: 1, avoid: "closed"},
		{name: "a refusal counts toward avoid, never toward eviction", failures: 3,
			evidence: []Evidence{ChordFailed, DATRefused, DATRefused, DATRefused, DATRefused},
			suspects: 1, avoid: "open", moved: []string{"open"}},
		{name: "the avoid opening is exactly one ring strike", failures: 2,
			evidence: []Evidence{DATRefused, DATFailed},
			suspects: 2, evictions: 1, avoid: "open", moved: []string{"open"}},
		{name: "gray failure: chord successes never close avoid", failures: 3,
			evidence: []Evidence{DATFailed, ChordOK, DATFailed, ChordOK, DATFailed, ChordOK, ChordOK},
			suspects: 4, evictions: 1, avoid: "open", moved: []string{"open"}},
		{name: "only a DAT ack closes avoid", failures: 1,
			evidence: []Evidence{DATRefused, ChordOK, DATAcked},
			avoid:    "closed", moved: []string{"open", "closed"}},
		{name: "a local send error is no evidence", failures: 1, cause: tooLarge,
			evidence: []Evidence{SendFailed, SendFailed, DATFailed},
			avoid:    "closed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newHealthFixture(t)
			var moved []string
			for _, ev := range tc.evidence {
				if m := f.n.Report(f.peer, ev, tc.cause, tc.failures, time.Second); m != "" {
					moved = append(moved, m)
				}
			}
			r := f.record()
			if f.suspects != tc.suspects || f.evictions != tc.evictions {
				t.Errorf("%d strikes and %d evictions, want %d and %d", f.suspects, f.evictions, tc.suspects, tc.evictions)
			}
			if r.Strikes != tc.strikes || r.Avoid != tc.avoid {
				t.Errorf("record %+v, want %d strikes, avoid %s", r, tc.strikes, tc.avoid)
			}
			if fmt.Sprint(moved) != fmt.Sprint(tc.moved) {
				t.Errorf("avoid moved %v, want %v", moved, tc.moved)
			}
			if f.routed() != (tc.evictions == 0) {
				t.Errorf("peer in the routing tables: %v after %d evictions", f.routed(), tc.evictions)
			}
			if ok, _ := f.n.MayCarryDAT(f.peer, false); ok != (tc.avoid == "closed") {
				t.Errorf("MayCarryDAT = %v with avoid %s", ok, tc.avoid)
			}
		})
	}

	// A closed endpoint's send failure describes this node, not the peer.
	t.Run("a closed endpoint's send leaves no strike", func(t *testing.T) {
		f := newHealthFixture(t)
		_ = f.ep.Close()
		f.n.Send(f.peer, MsgPing, PingReq{})
		f.n.Send(f.peer, MsgPing, PingReq{})
		if rows, _, _ := f.n.PeerHealth(); f.suspects != 0 || len(rows) != 0 || !f.routed() {
			t.Errorf("%d strikes, record %+v, routed %v", f.suspects, rows, f.routed())
		}
	})
}

// TestPeerHealthProbeBackoff: an avoided peer gets one half-open probe
// per cooldown; each failed probe doubles the cooldown, capped at 16x,
// and the jitter on top stays below a quarter of it.
func TestPeerHealthProbeBackoff(t *testing.T) {
	const cooldown = time.Second
	f := newHealthFixture(t)
	if m := f.n.Report(f.peer, DATRefused, nil, 1, cooldown); m != "open" {
		t.Fatalf("first refusal at threshold 1 moved %q", m)
	}
	for reopens := 0; reopens < 7; reopens++ {
		base := cooldown << min(reopens, 4)
		f.eng.RunFor(base - time.Millisecond)
		if ok, _ := f.n.MayCarryDAT(f.peer, true); ok {
			t.Fatalf("after %d failed probes: probe admitted before %v", reopens, base)
		}
		f.eng.RunFor(base/4 + time.Millisecond)
		if ok, probe := f.n.MayCarryDAT(f.peer, true); !ok || !probe {
			t.Fatalf("after %d failed probes: no probe by %v", reopens, base+base/4)
		}
		if ok, _ := f.n.MayCarryDAT(f.peer, true); ok {
			t.Fatalf("after %d failed probes: a second probe in one cooldown", reopens)
		}
		if m := f.n.Report(f.peer, DATRefused, nil, 1, cooldown); m != "open" {
			t.Fatalf("failed probe moved %q, want open", m)
		}
	}
	if _, opens, _ := f.n.PeerHealth(); opens != 8 {
		t.Fatalf("%d avoid openings, want 8", opens)
	}

	d := f.n.probeDelay(f.peer, 1, 0, cooldown)
	if d != f.n.probeDelay(f.peer, 1, 0, cooldown) {
		t.Fatal("probe delay is not deterministic")
	}
	if f.n.probeDelay(f.peer, 2, 0, cooldown) == d && f.n.probeDelay(f.peer, 3, 0, cooldown) == d {
		t.Fatal("probe delay does not vary across opens")
	}
}

// TestPeerHealthSuccessAllocs pins the hot path: a success for a peer
// with no record — every ack and answered ping of a healthy ring —
// allocates nothing.
func TestPeerHealthSuccessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := newHealthFixture(t)
	if a := testing.AllocsPerRun(100, func() {
		f.n.Report(f.peer, ChordOK, nil, 0, 0)
		f.n.Report(f.peer, DATAcked, nil, 3, time.Second)
		f.n.MayCarryDAT(f.peer, true)
	}); a != 0 {
		t.Errorf("a success for a peer in good standing allocates %.1f; budget is 0", a)
	}
}

// TestPeerHealthConcurrent drives one record from several goroutines at
// once, as a live peer's transport callbacks and clock loop do: under
// -race it finds unsynchronised access, and every avoid opening counted
// by the record must have been returned to exactly one reporter.
func TestPeerHealthConcurrent(t *testing.T) {
	var suspects atomic.Int64
	n := New(&nullEndpoint{addr: "self"}, new(transport.RealClock), 1, Config{
		Space: ident.New(16),
		Obs:   obs.ChordHooks{Suspected: func(transport.Addr) { suspects.Add(1) }},
	})
	evidence := []Evidence{ChordOK, ChordFailed, SendFailed, DATAcked, DATRefused, DATFailed}
	var opened atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				peer := transport.Addr(fmt.Sprintf("peer-%d", (w+i)%4))
				if n.Report(peer, evidence[(w*7+i)%len(evidence)], nil, 2, 0) == avoidOpen {
					opened.Add(1)
				}
				n.MayCarryDAT(peer, i%2 == 0)
				if i%100 == 0 {
					n.PeerHealth()
				}
			}
		}(w)
	}
	wg.Wait()
	if _, opens, _ := n.PeerHealth(); opens != opened.Load() || opens == 0 || suspects.Load() == 0 {
		t.Fatalf("record counts %d openings, reporters saw %d (%d strikes)", opens, opened.Load(), suspects.Load())
	}
}

// nullEndpoint is an endpoint that nothing is ever sent through.
type nullEndpoint struct{ addr transport.Addr }

func (e *nullEndpoint) Addr() transport.Addr                   { return e.addr }
func (e *nullEndpoint) Send(transport.Addr, string, any) error { return nil }
func (e *nullEndpoint) Call(_ transport.Addr, _ string, _ any, cb transport.ResponseFunc) {
	cb(nil, transport.ErrClosed)
}
func (e *nullEndpoint) CallWithin(_ transport.Addr, _ string, _ any, _ time.Duration, cb transport.ResponseFunc) {
	cb(nil, transport.ErrClosed)
}
func (e *nullEndpoint) Handle(transport.Handler) {}
func (e *nullEndpoint) Close() error             { return nil }
