package core

// White-box tests for the overload-protection layer (overload.go,
// DESIGN.md §14): queue GC, the Close/enqueue shutdown race and its
// typed refusal, the structural queue bound, and the avoid verdict as the
// delivery layer drives it — all under the deterministic sim clock
// except the -race stress test, which runs on the real clock.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// newOverloadMachineForTest builds a Node shell with the given overload
// policy, plus a recorder for the Breaker hook.
func newOverloadMachineForTest(t *testing.T, eng *sim.Engine, bc BatchConfig, oc OverloadConfig) (*Node, *stubEndpoint, *hookLog) {
	t.Helper()
	ep := &stubEndpoint{addr: "10.0.0.1:1"}
	log := &hookLog{}
	cfg := NodeConfig{Batch: bc, Overload: oc}.withDefaults()
	cfg.Obs = obs.CoreHooks{
		Breaker: func(peer transport.Addr, state string) { log.add("breaker:" + string(peer) + "/" + state) },
	}
	clock := transport.SimClock{Engine: eng}
	n := &Node{ch: testChord(ep, clock), ep: ep, clock: clock, cfg: cfg}
	n.sm = newSendMachine(n, cfg.Batch)
	return n, ep, log
}

// hookLog records hook firings in order. Mutex-guarded so the -race
// stress test can share it.
type hookLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *hookLog) add(s string) {
	l.mu.Lock()
	l.entries = append(l.entries, s)
	l.mu.Unlock()
}

func (l *hookLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.entries...)
}

func liveQueues(n *Node) int {
	n.sm.mu.Lock()
	defer n.sm.mu.Unlock()
	return len(n.sm.queues)
}

// TestSendMachineQueueGC is the idle-entry leak regression: after a
// churn burst touches many destinations once, every drained queue's map
// entry must be gone, whether it drained via deadline, threshold, or
// Close.
func TestSendMachineQueueGC(t *testing.T) {
	eng := sim.NewEngine(1)
	n, ep, _ := newOverloadMachineForTest(t, eng,
		BatchConfig{MaxDelay: 5 * time.Millisecond, MaxElems: 100}, OverloadConfig{})
	// Churn burst: 40 one-shot destinations, two elements each.
	for i := 0; i < 40; i++ {
		dest := transport.Addr(string(rune('a'+i%26)) + string(rune('0'+i/26)) + ":1")
		n.batchCall(dest, MsgUpdate, testUpdate(i), nil)
		n.batchCall(dest, MsgUpdate, testUpdate(i+100), nil)
	}
	eng.Run() // fire every deadline
	if got := liveQueues(n); got != 0 {
		t.Fatalf("%d destQueue entries survived the deadline drain, want 0", got)
	}
	if len(ep.calls) != 40 {
		t.Fatalf("got %d flushes, want 40", len(ep.calls))
	}
	// Threshold flush GCs too.
	n.sm.cfg.MaxElems = 2
	n.batchCall("10.0.0.9:1", MsgUpdate, testUpdate(1), nil)
	n.batchCall("10.0.0.9:1", MsgUpdate, testUpdate(2), nil)
	if got := liveQueues(n); got != 0 {
		t.Fatalf("%d entries survived a threshold flush, want 0", got)
	}
	// And Close.
	n.sm.cfg.MaxElems = 100
	n.batchCall("10.0.0.8:1", MsgUpdate, testUpdate(3), nil)
	n.sm.Close()
	if got := liveQueues(n); got != 0 {
		t.Fatalf("%d entries survived Close, want 0", got)
	}
	if fired := eng.Run(); fired != 0 {
		t.Fatalf("%d stale deadline timers fired after GC", fired)
	}
}

// TestSendMachineGCKeepsJitterSequence pins that queue GC does not reset
// the deadline-jitter sequence: the per-destination timer counter lives
// outside the collected queue, so the delays a destination sees are
// identical whether or not its entry was GC'd in between — load-bearing
// for datcheck byte-identity.
func TestSendMachineGCKeepsJitterSequence(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	delays := func(collect bool) []time.Duration {
		eng := sim.NewEngine(1)
		n, _, _ := newOverloadMachineForTest(t, eng,
			BatchConfig{MaxDelay: 5 * time.Millisecond, MaxElems: 100}, OverloadConfig{})
		var out []time.Duration
		for i := 0; i < 3; i++ {
			start := eng.Now()
			n.batchCall(dest, MsgUpdate, testUpdate(i), nil)
			if collect {
				eng.Run() // deadline fires, queue drains and is GC'd
				out = append(out, time.Duration(eng.Now()-start))
			} else {
				n.sm.mu.Lock()
				seq := n.sm.seqs[dest]
				n.sm.mu.Unlock()
				out = append(out, n.sm.deadline(dest, seq))
				eng.Run()
			}
		}
		return out
	}
	gc, direct := delays(true), delays(false)
	for i := range gc {
		if gc[i] != direct[i] {
			t.Fatalf("fill %d: delay %v after GC vs %v computed; jitter sequence reset by GC", i, gc[i], direct[i])
		}
	}
}

// TestSendMachineCloseTypedError pins the shutdown contract: a
// post-Close enqueue never reaches the wire and its callback still
// fires, with ErrSendClosed.
func TestSendMachineCloseTypedError(t *testing.T) {
	eng := sim.NewEngine(1)
	n, ep, _ := newOverloadMachineForTest(t, eng,
		BatchConfig{MaxDelay: time.Hour, MaxElems: 100}, OverloadConfig{})
	n.sm.Close()
	var got error
	called := false
	n.batchCall("10.0.0.2:1", MsgUpdate, testUpdate(1), func(_ any, err error) {
		called = true
		got = err
	})
	if !called {
		t.Fatal("post-Close callback was dropped silently")
	}
	if !errors.Is(got, ErrSendClosed) {
		t.Fatalf("post-Close enqueue err = %v, want ErrSendClosed", got)
	}
	if len(ep.calls) != 0 {
		t.Fatalf("post-Close enqueue reached the wire: %+v", ep.calls)
	}
	st := n.OverloadStats()
	if st.Rejected != 1 {
		t.Fatalf("stats = %+v, want one rejected element", st)
	}
}

// raceEndpoint is a goroutine-safe endpoint counting wire elements.
type raceEndpoint struct {
	addr  transport.Addr
	elems atomic.Int64
}

func (r *raceEndpoint) Addr() transport.Addr { return r.addr }
func (r *raceEndpoint) Send(transport.Addr, string, any) error {
	r.elems.Add(1)
	return nil
}
func (r *raceEndpoint) Call(_ transport.Addr, typ string, payload any, _ transport.ResponseFunc) {
	if typ == MsgBatch {
		r.elems.Add(int64(len(payload.(BatchMsg).Elems)))
		return
	}
	r.elems.Add(1)
}
func (r *raceEndpoint) Handle(transport.Handler) {}
func (r *raceEndpoint) Close() error             { return nil }

// TestSendMachineCloseRace stresses concurrent enqueue/flush/Close on
// the real clock under -race, and proves the shutdown tie is lossless:
// every enqueued element either reached the wire or had its callback
// invoked with ErrSendClosed — no element vanishes.
func TestSendMachineCloseRace(t *testing.T) {
	ep := &raceEndpoint{addr: "10.0.0.1:1"}
	cfg := NodeConfig{
		Batch:    BatchConfig{MaxDelay: 100 * time.Microsecond, MaxElems: 4},
		Overload: OverloadConfig{},
	}.withDefaults()
	clock := new(transport.RealClock)
	n := &Node{ch: testChord(ep, clock), ep: ep, clock: clock, cfg: cfg}
	n.sm = newSendMachine(n, cfg.Batch)

	const workers, perWorker = 8, 200
	var closedCbs atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				dest := transport.Addr(string(rune('a'+(w+i)%5)) + ":1")
				n.batchCall(dest, MsgUpdate, testUpdate(i), func(_ any, err error) {
					if errors.Is(err, ErrSendClosed) {
						closedCbs.Add(1)
					}
				})
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	n.sm.Close() // races the enqueuers by design
	wg.Wait()
	n.sm.Close() // idempotent

	total := int64(workers * perWorker)
	if got := ep.elems.Load() + closedCbs.Load(); got != total {
		t.Fatalf("wire(%d) + closed-callbacks(%d) = %d, want %d: elements vanished in the Close race",
			ep.elems.Load(), closedCbs.Load(), got, total)
	}
	if got := liveQueues(n); got != 0 {
		t.Fatalf("%d queue entries survived Close", got)
	}
}

// TestOverloadQueueBudgetFlushes pins what bounds one destination
// queue: the batch thresholds. A queue that reaches one is flushed to the
// wire (reason "elems" or "bytes"), never refused — the wire is the
// pressure-relief valve — so nothing over the threshold stays at rest.
func TestOverloadQueueBudgetFlushes(t *testing.T) {
	for _, tc := range []struct {
		reason string
		batch  BatchConfig
	}{
		{"elems", BatchConfig{MaxDelay: time.Hour, MaxElems: 2, MaxBytes: 100000}},
		// One testUpdate estimates 82 bytes: the second reaches 160.
		{"bytes", BatchConfig{MaxDelay: time.Hour, MaxElems: 100, MaxBytes: 160}},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			eng := sim.NewEngine(1)
			flushes := []string{}
			n, ep, _ := newOverloadMachineForTest(t, eng, tc.batch, OverloadConfig{})
			n.cfg.Obs.BatchFlush = func(reason string, elems, saved int) {
				flushes = append(flushes, reason)
			}
			n.batchCall("10.0.0.2:1", MsgUpdate, testUpdate(0), nil)
			if len(ep.calls) != 0 {
				t.Fatal("flushed below the queue budget")
			}
			n.batchCall("10.0.0.2:1", MsgUpdate, testUpdate(1), nil)
			if len(ep.calls) != 1 || ep.calls[0].typ != MsgBatch {
				t.Fatalf("queue at budget did not flush: %+v", ep.calls)
			}
			if len(flushes) != 1 || flushes[0] != tc.reason {
				t.Fatalf("flush reasons = %v, want [%s]", flushes, tc.reason)
			}
			if st := n.OverloadStats(); st.Rejected != 0 || st.QueuedElems != 0 || st.HiWaterBytes > 82 {
				t.Fatalf("stats = %+v, want nothing refused or left, hi-water one element", st)
			}
		})
	}

	// The bound across destinations is structural: 4096 elements pushed
	// round-robin at 16 destinations with no deadline ever firing leave
	// every queue below MaxBytes at rest, so the node's hi-water stays
	// below 16 x MaxBytes with no budget to police it.
	t.Run("fanout", func(t *testing.T) {
		const dests, elems = 16, 4096
		eng := sim.NewEngine(1)
		n, ep, _ := newOverloadMachineForTest(t, eng,
			BatchConfig{MaxDelay: time.Hour, MaxElems: 1 << 20}, OverloadConfig{})
		answered := 0
		for i := 0; i < elems; i++ {
			dest := transport.Addr(fmt.Sprintf("10.0.1.%d:1", i%dests))
			n.batchCall(dest, MsgUpdate, testUpdate(i), func(_ any, err error) {
				answered++ // nothing answers before a reply: only a refusal would
			})
		}
		st := n.OverloadStats()
		if st.Rejected != 0 || answered != 0 {
			t.Fatalf("%d elements refused, %d answered early", st.Rejected, answered)
		}
		if bound := dests * n.sm.cfg.MaxBytes; st.HiWaterBytes >= bound {
			t.Fatalf("hi-water %d reached %d destinations x MaxBytes %d", st.HiWaterBytes, dests, n.sm.cfg.MaxBytes)
		}
		sent := 0
		for _, c := range ep.calls {
			sent += len(c.payload.(BatchMsg).Elems)
		}
		if sent+st.QueuedElems != elems {
			t.Fatalf("%d on the wire + %d queued, want %d", sent, st.QueuedElems, elems)
		}
	})
}

// TestBreakerTransitions walks one peer's avoid verdict through the full
// state machine under the sim clock, as the delivery layer drives it:
// closed survives BreakerFailures-1 failures, opens on the next, rejects
// while cooling down, admits exactly one half-open probe, reopens
// instantly on a failed probe, and closes on a successful one — with the
// Breaker hook reporting each transition. The jitter and the 16x cap of
// the probe delay are pinned in chord's TestPeerHealthVerdicts.
func TestBreakerTransitions(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	cooldown := time.Second
	eng := sim.NewEngine(1)
	n, _, log := newOverloadMachineForTest(t, eng,
		BatchConfig{}, OverloadConfig{BreakerFailures: 3, BreakerCooldown: cooldown})
	avoided := func() bool { ok, _ := n.ch.MayCarryDAT(dest, false); return !ok }

	if !n.mayCarry(dest) {
		t.Fatal("virgin peer not allowed")
	}
	n.reportDAT(dest, chord.DATFailed, nil)
	n.reportDAT(dest, chord.DATFailed, nil)
	if !n.mayCarry(dest) || avoided() {
		t.Fatal("breaker tripped below the failure threshold")
	}
	n.reportDAT(dest, chord.DATFailed, nil) // third consecutive failure: open
	if n.mayCarry(dest) {
		t.Fatal("open breaker allowed an attempt")
	}
	if !avoided() {
		t.Fatal("the read-only check disagrees with the open state")
	}
	if st := n.OverloadStats(); st.BreakerOpens != 1 || st.BreakersOpen != 1 {
		t.Fatalf("stats after open: %+v", st)
	}
	// The page renders the record: the failure that opened avoid also
	// evicted the peer (its own strike plus the opening's), so no strikes
	// are left, and the evidence that moved the verdicts is named.
	var page strings.Builder
	n.WriteOverloadDebug(&page)
	if want := string(dest) + " 0 open 0 0s dat-fail"; !strings.Contains(strings.Join(strings.Fields(page.String()), " "), want) {
		t.Fatalf("peer-health table lacks the row %q:\n%s", want, page.String())
	}

	// The probe delay is the cooldown plus jitter below a quarter of it.
	eng.RunFor(cooldown - time.Millisecond)
	if n.mayCarry(dest) {
		t.Fatal("probe admitted before the cooldown elapsed")
	}
	// Cooldown elapsed: exactly one probe is admitted.
	eng.RunFor(cooldown / 4)
	if avoided() {
		t.Fatal("the read-only check still rejects after the cooldown")
	}
	if !n.mayCarry(dest) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if n.mayCarry(dest) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Failed probe: instant reopen.
	n.reportDAT(dest, chord.DATFailed, nil)
	if n.mayCarry(dest) {
		t.Fatal("reopened breaker allowed an attempt")
	}
	if st := n.OverloadStats(); st.BreakerOpens != 2 {
		t.Fatalf("opens = %d after failed probe, want 2", st.BreakerOpens)
	}

	// Successful probe: closed, record gone. The failed probe doubled the
	// cooldown, so wait out the backed-off window (plus its jitter).
	eng.RunFor(2*cooldown + 2*cooldown/4)
	if !n.mayCarry(dest) {
		t.Fatal("second probe refused")
	}
	n.reportDAT(dest, chord.DATAcked, nil)
	if !n.mayCarry(dest) || avoided() {
		t.Fatal("closed breaker still rejecting")
	}
	if rows, _, _ := n.ch.PeerHealth(); len(rows) != 0 {
		t.Fatalf("closed peer's record not deleted: %+v", rows)
	}

	pfx := "breaker:" + string(dest) + "/"
	want := []string{pfx + "open", pfx + "half-open", pfx + "open", pfx + "half-open", pfx + "closed"}
	got := log.snapshot()
	if len(got) != len(want) {
		t.Fatalf("transition log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition[%d] = %s, want %s", i, got[i], want[i])
		}
	}

	// A success while merely accumulating failures resets silently: no
	// "closed" transition is reported for a breaker that never opened.
	n.reportDAT(dest, chord.DATFailed, nil)
	n.reportDAT(dest, chord.DATAcked, nil)
	if got := log.snapshot(); len(got) != len(want) {
		t.Fatalf("untripped success fired a transition: %v", got[len(want):])
	}
}

// TestBreakerAdmissionShed pins where an avoid verdict acts. The delivery
// layer fails fast: an update bound for the avoided peer is treated as
// refused — no datagram, no queue entry, straight to the next candidate
// (here there is none, so the chain ends abandoned after one attempt).
// The send machine itself consults no verdict and refuses nothing: a
// detach handed to it queues as always.
func TestBreakerAdmissionShed(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	eng := sim.NewEngine(1)
	n, ep, _ := newOverloadMachineForTest(t, eng,
		BatchConfig{MaxDelay: time.Hour, MaxElems: 100},
		OverloadConfig{BreakerFailures: 1, BreakerCooldown: time.Hour})
	n.cfg.Delivery.MaxCandidates = 1
	type done struct {
		ok       bool
		attempts int
	}
	var dones []done
	n.cfg.Obs.DeliveryDone = func(ok bool, attempts int, _ time.Duration) {
		dones = append(dones, done{ok, attempts})
	}
	n.reportDAT(dest, chord.DATFailed, nil) // open

	um := testUpdate(1)
	n.deliverUpdate(nil, chord.NodeRef{ID: 2, Addr: dest}, false, &um)
	if len(dones) != 1 || dones[0] != (done{false, 1}) {
		t.Fatalf("delivery at an open breaker ended %+v, want one abandoned chain of one attempt", dones)
	}
	if len(ep.calls) != 0 || liveQueues(n) != 0 {
		t.Fatal("failed-fast update left traffic behind")
	}

	dm := DetachMsg{Key: 9, Sender: um.Sender}
	n.batchCall(dest, MsgDetach, dm, nil)
	if liveQueues(n) != 1 {
		t.Fatal("control detach was not queued despite the open breaker")
	}
	if st := n.OverloadStats(); st.Rejected != 0 {
		t.Fatalf("stats = %+v, want nothing refused", st)
	}
}

// TestQueueStatsAges pins the slow-peer telemetry: per-destination
// queue depth and head-of-line age are surfaced, sorted by address.
func TestQueueStatsAges(t *testing.T) {
	eng := sim.NewEngine(1)
	n, _, _ := newOverloadMachineForTest(t, eng,
		BatchConfig{MaxDelay: time.Hour, MaxElems: 100}, OverloadConfig{})
	n.batchCall("10.0.0.9:1", MsgUpdate, testUpdate(0), nil)
	eng.RunFor(3 * time.Millisecond)
	n.batchCall("10.0.0.2:1", MsgUpdate, testUpdate(1), nil)
	n.batchCall("10.0.0.2:1", MsgUpdate, testUpdate(2), nil)
	eng.RunFor(2 * time.Millisecond)

	qs := n.QueueStats()
	if len(qs) != 2 {
		t.Fatalf("got %d queue stats, want 2", len(qs))
	}
	if qs[0].To != "10.0.0.2:1" || qs[1].To != "10.0.0.9:1" {
		t.Fatalf("queue stats unsorted: %+v", qs)
	}
	if qs[0].Elems != 2 || qs[0].OldestAge != 2*time.Millisecond {
		t.Fatalf("young queue stat = %+v, want 2 elems aged 2ms", qs[0])
	}
	if qs[1].Elems != 1 || qs[1].OldestAge != 5*time.Millisecond {
		t.Fatalf("old queue stat = %+v, want 1 elem aged 5ms", qs[1])
	}
}

// TestLostDatagramIsOneFailure pins the unit of evidence: a datagram
// carrying three trees' updates to a live peer that is lost costs the
// peer one ring strike and one DAT failure — not one per element — so
// it is neither evicted nor avoided, and every element still hears its
// own timeout.
func TestLostDatagramIsOneFailure(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	eng := sim.NewEngine(1)
	n, ep, _ := newOverloadMachineForTest(t, eng,
		BatchConfig{MaxDelay: time.Hour, MaxElems: 3}, OverloadConfig{})
	var gaveUp int
	n.cfg.Obs.DeliveryDone = func(ok bool, _ int, _ time.Duration) {
		if !ok {
			gaveUp++
		}
	}
	for k := 0; k < 3; k++ {
		um := testUpdate(k)
		um.Key = ident.ID(100 + k)
		n.deliverUpdate(nil, chord.NodeRef{ID: 2, Addr: dest}, false, &um)
	}
	if len(ep.calls) != 1 || len(ep.calls[0].payload.(BatchMsg).Elems) != 3 {
		t.Fatalf("want one datagram of three updates, got %d calls", len(ep.calls))
	}
	// The stub never answers: the datagram's one ack deadline fires, and
	// each delivery backs off to its second attempt.
	eng.RunFor(n.cfg.Delivery.AckTimeout)
	rows, opens, _ := n.ch.PeerHealth()
	if len(rows) != 1 || rows[0].Strikes != 1 || rows[0].Fails != 1 || rows[0].Avoid != "closed" || opens != 0 {
		t.Fatalf("peer health after one lost datagram = %+v (opens %d), want one strike, one failure, not avoided", rows, opens)
	}
	if !n.mayCarry(dest) {
		t.Fatal("a live peer is avoided after one lost datagram")
	}
	if gaveUp != 0 {
		t.Fatalf("%d deliveries gave up on the first lost datagram", gaveUp)
	}
}

// TestDetachOnlyFlightIsNoEvidence pins the fire-and-forget detach: a
// datagram no sink waits on arms no ack deadline, and whatever becomes
// of it tells the peer-health record nothing.
func TestDetachOnlyFlightIsNoEvidence(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	eng := sim.NewEngine(1)
	n, ep, _ := newOverloadMachineForTest(t, eng,
		BatchConfig{MaxDelay: time.Hour, MaxElems: 2}, OverloadConfig{})
	for k := 0; k < 2; k++ {
		n.sm.enqueue(dest, &BatchElem{Kind: batchKindDetach, Detach: DetachMsg{Key: ident.ID(k)}}, sinkRef{})
	}
	if len(ep.calls) != 1 {
		t.Fatalf("want one detach datagram, got %d calls", len(ep.calls))
	}
	if eng.Len() != 0 {
		t.Fatalf("%d timers armed for a datagram nobody waits on", eng.Len())
	}
	ep.calls[0].cb(nil, transport.ErrTimeout)
	if rows, _, _ := n.ch.PeerHealth(); len(rows) != 0 {
		t.Fatalf("a detach-only datagram was evidence: %+v", rows)
	}
	if got := liveQueues(n); got != 0 || len(n.sm.free) != 1 {
		t.Fatalf("record not recycled after the reply: %d queues, %d free", got, len(n.sm.free))
	}
}

// captureClock hands the timers armed on it to the test instead of
// firing them; its handles never stop anything, as if each timer had
// already fired.
type captureClock struct {
	transport.SimClock
	mu    sync.Mutex
	tasks []transport.TimerTask
	ops   []int32
}

func (c *captureClock) AfterRun(_ time.Duration, r transport.TimerTask, op int32) transport.Timer {
	c.mu.Lock()
	c.tasks, c.ops = append(c.tasks, r), append(c.ops, op)
	c.mu.Unlock()
	return transport.Timer{}
}

// TestAckDeadlineRacesReply runs a flight's ack deadline and its reply
// on two goroutines at once, as a live node's clock loop and socket
// reader do: whoever answers first answers every sink, each sink hears
// exactly one verdict, and the record is recycled once, only after
// both let go of it. Meaningful under -race.
func TestAckDeadlineRacesReply(t *testing.T) {
	const dest, flights, elems = transport.Addr("10.0.0.2:1"), 200, 3
	ep := &stubEndpoint{addr: "10.0.0.1:1"}
	clock := &captureClock{SimClock: transport.SimClock{Engine: sim.NewEngine(1)}}
	cfg := NodeConfig{Batch: BatchConfig{MaxDelay: time.Hour, MaxElems: elems}}.withDefaults()
	n := &Node{ch: testChord(ep, clock), ep: ep, clock: clock, cfg: cfg}
	n.sm = newSendMachine(n, cfg.Batch)

	var answered [flights * elems]atomic.Int32
	for f := 0; f < flights; f++ {
		for i := 0; i < elems; i++ {
			k := f*elems + i
			n.batchCall(dest, MsgUpdate, testUpdate(k), func(any, error) { answered[k].Add(1) })
		}
		if len(ep.calls) != f+1 {
			t.Fatalf("flight %d: %d calls", f, len(ep.calls))
		}
		// The last timer armed is the flight's ack deadline; the one
		// before, the queue's flush deadline, is stale by now.
		last := len(clock.tasks) - 1
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); clock.tasks[last].RunEvent(clock.ops[last]) }()
		go func() {
			defer wg.Done()
			ep.calls[f].cb(BatchAck{Acks: []UpdateAck{{OK: true}, {OK: true}, {OK: true}}}, nil)
		}()
		wg.Wait()
	}
	for k := range answered {
		if got := answered[k].Load(); got != 1 {
			t.Fatalf("sink %d answered %d times", k, got)
		}
	}
	n.sm.mu.Lock()
	defer n.sm.mu.Unlock()
	if len(n.sm.free) != len(n.sm.records) {
		t.Fatalf("%d of %d records back on the free list", len(n.sm.free), len(n.sm.records))
	}
	for _, q := range n.sm.records {
		if q.holds != 0 {
			t.Fatalf("recycled record holds %d", q.holds)
		}
	}
}
