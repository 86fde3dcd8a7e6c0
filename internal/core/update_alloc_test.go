package core

import (
	"context"
	"fmt"
	"log/slog"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// warmRing is a seeded 4-node ring on a SimNetwork whose chord
// maintenance never comes due: the only traffic is the DAT layer's.
type warmRing struct {
	eng  *sim.Engine
	net  *transport.SimNetwork
	dats []*Node
	keys []ident.ID
}

const quiet = 1000 * time.Hour

func newWarmRing(t testing.TB, trees int, cfg NodeConfig) *warmRing {
	t.Helper()
	r := &warmRing{eng: sim.NewEngine(3)}
	r.net = transport.NewSimNetwork(r.eng, transport.SimConfig{})
	space := ident.New(16)
	ids := []ident.ID{100, 16000, 33000, 50000}
	ring, err := chord.NewRing(space, ids)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[ident.ID]chord.NodeRef, len(ids))
	eps := make([]transport.Endpoint, len(ids))
	for i, id := range ids {
		eps[i] = r.net.Endpoint(transport.Addr(fmt.Sprintf("sim/%d", i)))
		ref[id] = chord.NodeRef{ID: id, Addr: eps[i].Addr()}
	}
	for k := 0; k < trees; k++ {
		r.keys = append(r.keys, ident.ID(1000+k*(60000/trees)))
	}
	if cfg.Local == nil {
		cfg.Local = func(ident.ID) (float64, bool) { return 1, true }
	}
	for i, id := range ids {
		ch := chord.New(eps[i], r.net.Clock(), id, chord.Config{
			Space: space, StabilizeEvery: quiet, FixFingersEvery: quiet, PingEvery: quiet,
		})
		var succs, fingers []chord.NodeRef
		for s, k := ring.Succ(id), 0; k < 3; s, k = ring.Succ(s), k+1 {
			succs = append(succs, ref[s])
		}
		for _, f := range ring.FingerTable(id) {
			fingers = append(fingers, ref[f])
		}
		ch.SeedState(ref[ring.Pred(id)], succs, fingers)
		d := NewNode(ch, eps[i], r.net.Clock(), cfg)
		t.Cleanup(d.Close)
		r.dats = append(r.dats, d)
		for _, key := range r.keys {
			if err := d.StartContinuous(key, time.Second, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

// TestAckedRoundAllocs pins the steady-state write path: one acked round
// on a warm ring — slot tick, enqueue, deadline flush, handleBatch, the
// ack, onAck — allocates at most two objects per update on sender and
// receiver together, not counting what SimNetwork spends on each Call
// itself (measured here on a bare Call and subtracted). What remains is what a datagram gives away: its
// element slice and boxed payload, and the reply's. No closure, timer,
// delivery or boxed UpdateMsg/UpdateAck per update.
func TestAckedRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	updates, calls := 0, 0
	r := newWarmRing(t, 8, NodeConfig{Obs: obs.CoreHooks{
		UpdateApplied: func(ident.ID, bool) { updates++ },
	}})
	r.net.SetTap(transport.TapFunc(func(_, _ transport.Addr, typ string, _ bool) {
		if typ == MsgUpdate || typ == MsgBatch {
			calls++
		}
	}))
	r.eng.RunFor(5 * time.Second) // enrol, settle heights, warm pools and the arena

	// SimNetwork's own price for one Call round trip, on a network of
	// its own so that nothing else runs while it is measured.
	bareEng := sim.NewEngine(1)
	bare := transport.NewSimNetwork(bareEng, transport.SimConfig{})
	a, b := bare.Endpoint("sim/a"), bare.Endpoint("sim/b")
	var boxed any = UpdateAck{OK: true}
	b.Handle(func(req *transport.Request) { req.Reply(boxed) })
	done := func(any, error) {}
	perCall := testing.AllocsPerRun(100, func() {
		a.Call(b.Addr(), "bare", boxed, done)
		bareEng.Run()
	})

	updates, calls = 0, 0
	const rounds = 20
	perRound := testing.AllocsPerRun(rounds, func() { r.eng.RunFor(time.Second) })
	// AllocsPerRun runs the function once more to warm up.
	u, c := float64(updates)/(rounds+1), float64(calls)/(rounds+1)
	if u < 20 || c < 3 || c >= u {
		t.Fatalf("%.1f updates in %.1f datagrams per round: the fixture does not batch", u, c)
	}
	perUpdate := (perRound - c*perCall) / u
	t.Logf("%.1f allocs/round, %.1f updates in %.1f calls (%.1f allocs each in SimNetwork): %.2f allocs/update", perRound, u, c, perCall, perUpdate)
	if perUpdate > 2 {
		t.Errorf("a steady acked round allocates %.2f per update; budget is 2", perUpdate)
	}
}

// TestEmbeddedDeliveryReuseFence: a tree's one delivery record is
// reused slot after slot, so an ack or timeout of slot t that arrives
// after slot t+1 took the record over must be dropped — no completion
// hook, no effect on the new slot's attempt.
func TestEmbeddedDeliveryReuseFence(t *testing.T) {
	eng := sim.NewEngine(1)
	ep := &stubEndpoint{addr: "10.0.0.1:1"}
	type doneRec struct {
		ok       bool
		attempts int
	}
	var dones []doneRec
	cfg := NodeConfig{Batch: BatchConfig{MaxElems: 1}}.withDefaults()
	cfg.Obs.DeliveryDone = func(ok bool, attempts int, _ time.Duration) { dones = append(dones, doneRec{ok, attempts}) }
	clock := transport.SimClock{Engine: eng}
	n := &Node{ch: testChord(ep, clock), ep: ep, clock: clock, cfg: cfg, aggs: make(map[ident.ID]*aggEntry)}
	n.sm = newSendMachine(n, cfg.Batch)
	e := n.entryLocked(7)
	parent := chord.NodeRef{ID: 9, Addr: "10.0.0.2:1"}

	um := testUpdate(1)
	um.Key = 7
	n.deliverUpdate(&e.deliv, parent, false, &um) // slot t
	if len(ep.calls) != 1 {
		t.Fatalf("slot t put %d calls on the wire", len(ep.calls))
	}
	oldAck := ep.calls[0].cb
	eng.RunFor(10 * time.Millisecond) // well inside the ack timeout

	um.Epoch = 2
	n.deliverUpdate(&e.deliv, parent, false, &um) // slot t+1 takes the record over
	if len(ep.calls) != 2 {
		t.Fatalf("slot t+1 put %d calls on the wire", len(ep.calls)-1)
	}
	d := &e.deliv
	d.mu.Lock()
	gen, epoch := d.gen, d.msg.Epoch
	d.mu.Unlock()
	if epoch != 2 {
		t.Fatalf("the record carries epoch %d after reuse", epoch)
	}

	// Slot t's ack, late — as an OK, and as the refusal that would
	// start a failover if it were taken for slot t+1's.
	oldAck(BatchAck{Acks: []UpdateAck{{OK: true}}}, nil)
	d.onAck(gen-2, UpdateAck{Reason: "cycle"}, nil)
	d.mu.Lock()
	after, done := d.gen, d.done
	d.mu.Unlock()
	if after != gen || done || len(dones) != 0 {
		t.Fatalf("a stale ack moved the reused delivery: gen %d -> %d, done=%v, %d completions", gen, after, done, len(dones))
	}
	// Ack deadlines are the transport's, and the stale ack queued no
	// re-send: no timer of the node fires while slot t+1 waits.
	if fired := eng.RunFor(cfg.Delivery.AckTimeout - 20*time.Millisecond); fired != 0 {
		t.Fatalf("%d timers fired while slot t+1 waited for its ack: slot t's leaked", fired)
	}

	ep.calls[1].cb(BatchAck{Acks: []UpdateAck{{OK: true}}}, nil) // slot t+1's own ack
	if len(dones) != 1 || !dones[0].ok || dones[0].attempts != 1 {
		t.Fatalf("completions after the live ack: %+v, want one ok in one attempt", dones)
	}
	if fired := eng.Run(); fired != 0 {
		t.Fatalf("%d timers left after the delivery finished", fired)
	}
	// Generations never go back, whatever the record is reused for.
	um.Epoch = 3
	n.deliverUpdate(&e.deliv, parent, false, &um)
	d.mu.Lock()
	if d.gen <= gen {
		t.Errorf("generation went from %d to %d across reuse", gen, d.gen)
	}
	d.mu.Unlock()
	e.deliv.cancel()
}

// levelCounter is a logger that is switched off and counts how often it
// is asked.
type levelCounter struct {
	slog.Handler
	asked, handled int
}

func (h *levelCounter) Enabled(context.Context, slog.Level) bool  { h.asked++; return false }
func (h *levelCounter) Handle(context.Context, slog.Record) error { h.handled++; return nil }

// TestDebugLoggingFreeWhenOff: with debug logging off, the protocol's
// debug sites build nothing — no ID.String (a Sprintf), no boxed
// argument. A delivery refused by all maxCandidates candidates — its
// parent refuses, and each failover candidate is avoided, which fails
// fast as a refusal — walks a failover site per failover and the
// give-up site, and allocates nothing at all.
func TestDebugLoggingFreeWhenOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := newWarmRing(t, 1, NodeConfig{})
	n := r.dats[0]
	lc := &levelCounter{}
	n.cfg.Logger = slog.New(lc)
	key := r.keys[0]
	n.mu.Lock()
	e := n.aggs[key]
	n.mu.Unlock()
	d := &e.deliv
	victim := r.dats[1].ep.Addr()
	// Every peer is avoided: refused datagrams open breakers without a
	// ring strike, so the routing view keeps all of them as candidates.
	for _, p := range r.dats[1:] {
		for i := 0; i < n.cfg.Overload.BreakerFailures; i++ {
			n.reportDAT(p.ep.Addr(), chord.DATRefused, nil)
		}
	}
	var gaveUp, failovers int
	n.cfg.Obs.DeliveryDone = func(ok bool, _ int, _ time.Duration) {
		if !ok {
			gaveUp++
		}
	}
	n.cfg.Obs.RootHandover = func() { failovers++ }
	n.cfg.Obs.ParentFailover = func() { failovers++ }
	giveUp := func() {
		d.mu.Lock()
		d.gen++
		g := d.gen
		d.done, d.attempt, d.cands = false, 1, 1
		d.mu.Unlock()
		d.fail(g, victim, true) // refused: fail over at once
	}
	giveUp()
	if gaveUp != 1 || failovers != maxCandidates-1 || len(n.sm.queues) != 0 {
		t.Fatalf("one refused delivery: %d give-ups after %d failovers, %d queues; want 1 after %d, none",
			gaveUp, failovers, len(n.sm.queues), maxCandidates-1)
	}
	if lc.asked == 0 {
		t.Fatal("the give-up path reached no debug site")
	}
	if allocs := testing.AllocsPerRun(200, giveUp); allocs != 0 {
		t.Errorf("giving up with logging off allocates %.1f/op; budget is 0", allocs)
	}
	n.debug("parent failover", key, "failed", victim, "new", victim)
	if allocs := testing.AllocsPerRun(200, func() { n.debug("parent failover", key, "failed", victim, "new", victim) }); allocs != 0 {
		t.Errorf("a failover's debug record costs %.1f allocs with logging off; budget is 0", allocs)
	}
	if lc.handled != 0 {
		t.Errorf("%d records reached a handler that is off", lc.handled)
	}
}
