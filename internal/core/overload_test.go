package core

// White-box tests for the overload-protection layer (overload.go,
// DESIGN.md §14): queue GC, the Close/enqueue shutdown race and its
// typed refusal, the structural queue bound, and the avoid verdict as the
// delivery layer drives it — all under the deterministic sim clock
// except the -race stress test, which runs on the real clock.

import (
	"errors"
	"fmt"
	"slices"
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
func (r *raceEndpoint) Call(to transport.Addr, typ string, payload any, cb transport.ResponseFunc) {
	r.CallWithin(to, typ, payload, transport.DefaultCallTimeout, cb)
}
func (r *raceEndpoint) CallWithin(_ transport.Addr, typ string, payload any, _ time.Duration, _ transport.ResponseFunc) {
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

// seedFingers gives a Node shell's chord node (ID 1, never joined) a
// routing view in which testUpdate's key 7, and any key up to the
// predecessor's 60000, lies beyond its successors and fingers
// 10.0.0.2:1-10.0.0.4:1 (IDs 2-4): parentFrom offers them nearest the
// key first — 4, 3, 2 — and an evicted one leaves the others.
func seedFingers(n *Node) {
	fingers := make([]chord.NodeRef, n.ch.Space().Bits())
	for i := range 3 {
		id := ident.ID(2 + i)
		fingers[i] = chord.NodeRef{ID: id, Addr: transport.Addr(fmt.Sprintf("10.0.0.%d:1", id))}
	}
	n.ch.SeedState(chord.NodeRef{ID: 60000, Addr: "10.0.0.9:1"}, fingers[:3], fingers)
}

// TestBreakerAdmissionShed pins where an avoid verdict acts. The delivery
// layer fails fast: an update bound for an avoided peer is treated as
// refused — no datagram, no queue entry, straight to the next candidate.
// Here every candidate is avoided, so the chain is refused maxCandidates
// times and ends abandoned. The send machine itself consults no verdict
// and refuses nothing: a detach handed to it queues as always.
func TestBreakerAdmissionShed(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	eng := sim.NewEngine(1)
	n, ep, _ := newOverloadMachineForTest(t, eng,
		BatchConfig{MaxDelay: time.Hour, MaxElems: 100},
		OverloadConfig{BreakerFailures: 1, BreakerCooldown: time.Hour})
	seedFingers(n)
	type done struct {
		ok       bool
		attempts int
	}
	var dones []done
	n.cfg.Obs.DeliveryDone = func(ok bool, attempts int, _ time.Duration) {
		dones = append(dones, done{ok, attempts})
	}
	n.reportDAT(dest, chord.DATFailed, nil) // open
	for _, other := range []transport.Addr{"10.0.0.3:1", "10.0.0.4:1"} {
		n.reportDAT(other, chord.DATRefused, nil) // open, and still routed to
	}

	um := testUpdate(1)
	n.deliverUpdate(&delivery{n: n, key: um.Key}, chord.NodeRef{ID: 2, Addr: dest}, false, &um)
	if len(dones) != 1 || dones[0] != (done{false, maxCandidates}) {
		t.Fatalf("delivery at open breakers ended %+v, want one abandoned chain of %d attempts", dones, maxCandidates)
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
		n.deliverUpdate(&delivery{n: n, key: um.Key}, chord.NodeRef{ID: 2, Addr: dest}, false, &um)
	}
	if len(ep.calls) != 1 || len(ep.calls[0].payload.(BatchMsg).Elems) != 3 {
		t.Fatalf("want one datagram of three updates, got %d calls", len(ep.calls))
	}
	// The datagram's one deadline is the transport's, the whole ack
	// budget. It passes unanswered, and each delivery queues its second
	// attempt at once.
	if d := ep.calls[0].d; d != n.cfg.Delivery.AckTimeout {
		t.Fatalf("datagram deadline %v, want AckTimeout %v", d, n.cfg.Delivery.AckTimeout)
	}
	if eng.Len() != 0 {
		t.Fatalf("the send machine armed %d timers of its own for a datagram in flight", eng.Len())
	}
	ep.calls[0].cb(nil, transport.ErrTimeout)
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

// TestLostDatagramIsOneRetry pins the unit of retry: a lost datagram is
// re-sent whole. Its verdict re-enqueues every still-current element to
// the same peer at once, so the retry arms one timer — the fresh
// queue's flush deadline — and leaves as one datagram. When that is lost
// too, every delivery fails over once and the elements leave together
// to the next candidate. A tree stopped while its datagram was in
// flight is not re-sent.
func TestLostDatagramIsOneRetry(t *testing.T) {
	const dest, next = transport.Addr("10.0.0.4:1"), transport.Addr("10.0.0.3:1")
	const maxDelay = 5 * time.Millisecond
	eng := sim.NewEngine(1)
	n, ep, _ := newOverloadMachineForTest(t, eng,
		BatchConfig{MaxDelay: maxDelay, MaxElems: 4}, OverloadConfig{})
	n.aggs = make(map[ident.ID]*aggEntry)
	seedFingers(n)
	var failovers, gaveUp int
	n.cfg.Obs.ParentFailover = func() { failovers++ }
	n.cfg.Obs.DeliveryDone = func(ok bool, _ int, _ time.Duration) {
		if !ok {
			gaveUp++
		}
	}
	keys := []ident.ID{100, 101, 102, 103}
	for _, key := range keys {
		n.mu.Lock()
		e := n.entryLocked(key)
		n.mu.Unlock()
		um := testUpdate(int(key))
		um.Key = key
		n.deliverUpdate(&e.deliv, chord.NodeRef{ID: 4, Addr: dest}, false, &um)
	}
	// updatesTo returns the keys of the updates each datagram to to
	// carries, among the calls from the from'th on.
	updatesTo := func(to transport.Addr, from int) (dgrams [][]ident.ID) {
		for _, c := range ep.calls[from:] {
			if c.to != to || c.typ != MsgBatch {
				continue
			}
			var ks []ident.ID
			for _, el := range c.payload.(BatchMsg).Elems {
				if el.Kind == batchKindUpdate {
					ks = append(ks, el.Update.Key)
				}
			}
			dgrams = append(dgrams, ks)
		}
		return dgrams
	}
	if got := updatesTo(dest, 0); len(ep.calls) != 1 || len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("want one datagram of four updates, got %v", got)
	}
	n.StopContinuous(keys[3]) // while its datagram is in flight

	timers := eng.Len()
	ep.calls[0].cb(nil, transport.ErrTimeout)
	if got := eng.Len() - timers; got != 1 {
		t.Fatalf("one lost datagram armed %d timers, want one: the retry queue's flush deadline", got)
	}
	if len(ep.calls) != 1 {
		t.Fatal("the retry left before its flush deadline")
	}
	eng.RunFor(maxDelay)
	if got := updatesTo(dest, 1); len(got) != 1 || !slices.Equal(got[0], keys[:3]) {
		t.Fatalf("retry datagrams to the same peer: %v, want one carrying %v", got, keys[:3])
	}
	if failovers != 0 || gaveUp != 0 {
		t.Fatalf("the first lost datagram caused %d failovers and %d give-ups", failovers, gaveUp)
	}

	retry := len(ep.calls) - 1
	ep.calls[retry].cb(nil, transport.ErrTimeout)
	if failovers != 3 || gaveUp != 0 {
		t.Fatalf("the lost retry caused %d failovers and %d give-ups, want one failover per delivery", failovers, gaveUp)
	}
	eng.RunFor(maxDelay)
	got := updatesTo(next, retry+1)
	if len(got) != 1 || !slices.Equal(got[0], keys[:3]) {
		t.Fatalf("datagrams to the next candidate %s: %v, want one carrying %v", next, got, keys[:3])
	}
}

// TestStoppedTreeSendsNothing: a tree stopped while its update waits in
// a send queue has the update dropped at flush. A queue left with
// nothing puts no datagram on the wire; a detach, which no sink waits
// on, still goes.
func TestStoppedTreeSendsNothing(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	const maxDelay = 5 * time.Millisecond
	const key = ident.ID(100)
	for _, withDetach := range []bool{false, true} {
		eng := sim.NewEngine(1)
		n, ep, _ := newOverloadMachineForTest(t, eng,
			BatchConfig{MaxDelay: maxDelay, MaxElems: 4}, OverloadConfig{})
		n.aggs = make(map[ident.ID]*aggEntry)
		n.mu.Lock()
		e := n.entryLocked(key)
		n.mu.Unlock()
		um := testUpdate(1)
		um.Key = key
		n.deliverUpdate(&e.deliv, chord.NodeRef{ID: 2, Addr: dest}, false, &um)
		if withDetach {
			n.sm.enqueue(dest, &BatchElem{Kind: batchKindDetach, Detach: DetachMsg{Key: key + 1}}, sinkRef{})
		}
		n.StopContinuous(key)
		eng.RunFor(maxDelay)
		var kinds []uint8
		for _, c := range ep.calls {
			for _, el := range c.payload.(BatchMsg).Elems {
				kinds = append(kinds, el.Kind)
			}
		}
		switch {
		case !withDetach && len(ep.calls) != 0:
			t.Fatalf("a stopped tree's queued update went out: %d datagrams", len(ep.calls))
		case withDetach && (len(ep.calls) != 1 || len(kinds) != 1 || kinds[0] != batchKindDetach):
			t.Fatalf("want one datagram carrying the detach alone, got %d datagrams of kinds %v", len(ep.calls), kinds)
		}
		if eng.Len() != 0 {
			t.Fatalf("%d timers left after the flush", eng.Len())
		}
	}
}

// TestDetachOnlyFlightIsNoEvidence pins the fire-and-forget detach: for
// a datagram no sink waits on the send machine arms no timer, and
// whatever the transport answers tells the peer-health record nothing.
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

// TestAckDeadlineRacesReply: the ack deadline is the transport's, so
// what a flight can race is Close. Four flights are on the wire when the
// node closes; the transport then answers them from four goroutines at
// once, as a live node's socket reader and deadline timers do — with
// the deadline's transport.ErrTimeout, an ack, a refusal and ErrClosed.
// Every delivery hears ErrSendClosed once and gives up: no answer arms
// a timer, puts a datagram on the wire or tells the peer-health
// record anything, and every flight record is recycled once.
// Meaningful under -race.
func TestAckDeadlineRacesReply(t *testing.T) {
	const elems = 3
	ep := &stubEndpoint{addr: "10.0.0.1:1"}
	clock := &captureClock{SimClock: transport.SimClock{Engine: sim.NewEngine(1)}}
	cfg := NodeConfig{Batch: BatchConfig{MaxDelay: time.Hour, MaxElems: elems}}.withDefaults()
	var gaveUp, finished atomic.Int32
	cfg.Obs.DeliveryDone = func(ok bool, _ int, _ time.Duration) {
		finished.Add(1)
		if !ok {
			gaveUp.Add(1)
		}
	}
	n := &Node{ch: testChord(ep, clock), ep: ep, clock: clock, cfg: cfg, aggs: make(map[ident.ID]*aggEntry)}
	n.sm = newSendMachine(n, cfg.Batch)

	answers := []struct {
		payload any
		err     error
	}{
		{nil, transport.ErrTimeout},
		{BatchAck{Acks: []UpdateAck{{OK: true}, {OK: true}, {OK: true}}}, nil},
		{BatchAck{Acks: []UpdateAck{{Reason: "cycle"}, {Reason: "cycle"}, {Reason: "cycle"}}}, nil},
		{nil, transport.ErrClosed},
	}
	for f := range answers {
		dest := chord.NodeRef{ID: ident.ID(2 + f), Addr: transport.Addr(fmt.Sprintf("10.0.0.%d:1", 2+f))}
		for i := 0; i < elems; i++ {
			um := testUpdate(i)
			um.Key = ident.ID(100*f + i)
			n.deliverUpdate(&delivery{n: n, key: um.Key}, dest, false, &um)
		}
	}
	if len(ep.calls) != len(answers) {
		t.Fatalf("%d datagrams on the wire, want %d", len(ep.calls), len(answers))
	}
	for i, c := range ep.calls {
		if c.d != cfg.Delivery.AckTimeout {
			t.Fatalf("flight %d has deadline %v, want the whole ack budget %v", i, c.d, cfg.Delivery.AckTimeout)
		}
	}
	timers := len(clock.tasks) // the flush deadlines, stale since each queue filled
	n.Close()

	var wg sync.WaitGroup
	for f, a := range answers {
		wg.Add(1)
		go func() { defer wg.Done(); ep.calls[f].cb(a.payload, a.err) }()
	}
	wg.Wait()

	if got := len(clock.tasks); got != timers {
		t.Fatalf("answers after Close armed %d timers", got-timers)
	}
	if got := len(ep.calls); got != len(answers) {
		t.Fatalf("answers after Close put %d datagrams on the wire", got-len(answers))
	}
	if want := int32(len(answers) * elems); finished.Load() != want || gaveUp.Load() != want {
		t.Fatalf("%d deliveries finished, %d gave up; want all %d given up once", finished.Load(), gaveUp.Load(), want)
	}
	if rows, _, _ := n.ch.PeerHealth(); len(rows) != 0 {
		t.Fatalf("answers after Close were evidence: %+v", rows)
	}
	n.sm.mu.Lock()
	defer n.sm.mu.Unlock()
	if len(n.sm.free) != len(answers) {
		t.Fatalf("%d of %d flight records back on the free list", len(n.sm.free), len(answers))
	}
}

// TestEpochFlushWaitsForPendingFlush: a relay whose first flush of an
// epoch is still unanswered when a late contribution's debounce runs
// out holds the second flush back. Sent at once, it would take over the
// bucket's one delivery record, and the first flush, its datagram lost,
// would never be re-sent. A bucket made again after its expiry numbers
// its flushes on from the node's counter.
func TestEpochFlushWaitsForPendingFlush(t *testing.T) {
	eng := sim.NewEngine(1)
	n, ep, _ := newOverloadMachineForTest(t, eng, BatchConfig{MaxElems: 1}, OverloadConfig{})
	n.aggs = make(map[ident.ID]*aggEntry)
	n.epochs = make(map[epochID]*epochState)
	seedFingers(n)
	contribute := func(from transport.Addr) {
		um := UpdateMsg{Key: 30000, Epoch: 1, Nodes: 1, Demand: true, Seq: 1}
		um.Agg.AddSample(1)
		if ack := n.foldDemand(&um, from); !ack.OK {
			t.Fatalf("contribution from %s refused: %+v", from, ack)
		}
	}
	// flushes are the datagrams to the parent so far; chord's own calls
	// go unanswered.
	flushes := func() (fs []stubCall) {
		for _, c := range ep.calls {
			if c.typ == MsgBatch {
				fs = append(fs, c)
			}
		}
		return fs
	}
	answered, acked := 0, uint64(0)
	answer := func(lost bool) {
		c := flushes()[answered]
		answered++
		if lost {
			c.cb(nil, transport.ErrTimeout)
			return
		}
		acked += c.payload.(BatchMsg).Elems[0].Update.Agg.Count
		c.cb(BatchAck{Acks: []UpdateAck{{OK: true}}}, nil)
	}

	contribute("10.0.0.7:1")
	eng.RunFor(demandDebounce + time.Millisecond)
	if len(flushes()) != 1 {
		t.Fatalf("first flush put %d datagrams on the wire", len(flushes()))
	}
	contribute("10.0.0.8:1") // a late child's subtree
	eng.RunFor(demandDebounce + time.Millisecond)
	answer(true) // the first flush's datagram was lost
	for i := 0; i < 10 && answered < len(flushes()); i++ {
		for answered < len(flushes()) {
			answer(false)
		}
		eng.RunFor(demandDebounce + time.Millisecond)
	}
	if acked != 2 {
		t.Fatalf("the parent acked %d of 2 contributions", acked)
	}
	eng.RunFor(n.EpochLifeForTest())
	if held := len(n.epochs); held != 0 {
		t.Fatalf("%d buckets outlived their life", held)
	}
	// A bucket made again after its expiry numbers its flush past every
	// Seq its parent may have folded.
	var folded uint64
	for _, c := range flushes() {
		folded = max(folded, c.payload.(BatchMsg).Elems[0].Update.Seq)
	}
	contribute("10.0.0.9:1")
	eng.RunFor(demandDebounce + time.Millisecond)
	if fs := flushes(); len(fs) == answered {
		t.Fatal("the bucket made again did not flush")
	} else if seq := fs[len(fs)-1].payload.(BatchMsg).Elems[0].Update.Seq; seq <= folded {
		t.Fatalf("the bucket made again flushed Seq %d, not past %d", seq, folded)
	}
}
