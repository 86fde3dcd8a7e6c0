package core

// White-box tests for the overload-protection layer (overload.go,
// DESIGN.md §14): queue GC, the Close/enqueue shutdown race and its
// typed refusal, the structural queue bound, and the per-peer
// circuit-breaker state machine — all under the deterministic sim clock
// except the -race stress test, which runs on the real clock.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chord"
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
	n := &Node{
		ep:       ep,
		clock:    transport.SimClock{Engine: eng},
		cfg:      cfg,
		breakers: make(map[transport.Addr]*breaker),
	}
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
	n := &Node{ep: ep, clock: new(transport.RealClock), cfg: cfg, breakers: make(map[transport.Addr]*breaker)}
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

// TestBreakerTransitions walks one peer's breaker through the full
// state machine under the sim clock: closed survives BreakerFailures-1
// failures, opens on the next, rejects while cooling down, admits
// exactly one half-open probe, reopens instantly on a failed probe, and
// closes on a successful one.
func TestBreakerTransitions(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	cooldown := time.Second
	eng := sim.NewEngine(1)
	n, _, log := newOverloadMachineForTest(t, eng,
		BatchConfig{}, OverloadConfig{BreakerFailures: 3, BreakerCooldown: cooldown})

	if !n.breakerAllows(dest) {
		t.Fatal("virgin peer not allowed")
	}
	n.breakerFailure(dest, true)
	n.breakerFailure(dest, true)
	if !n.breakerAllows(dest) || n.breakerOpenNow(dest) {
		t.Fatal("breaker tripped below the failure threshold")
	}
	n.breakerFailure(dest, true) // third consecutive failure: open
	if n.breakerAllows(dest) {
		t.Fatal("open breaker allowed an attempt")
	}
	if !n.breakerOpenNow(dest) {
		t.Fatal("breakerOpenNow disagrees with the open state")
	}
	if st := n.OverloadStats(); st.BreakerOpens != 1 || st.BreakersOpen != 1 {
		t.Fatalf("stats after open: %+v", st)
	}

	// Probe delay is deterministic and jittered within [cd, cd+cd/4).
	d1 := n.breakerProbeDelay(dest, 1, 0)
	if d1 != n.breakerProbeDelay(dest, 1, 0) {
		t.Fatal("probe delay is not deterministic")
	}
	if d1 < cooldown || d1 >= cooldown+cooldown/4 {
		t.Fatalf("probe delay %v outside [%v, %v)", d1, cooldown, cooldown+cooldown/4)
	}
	if n.breakerProbeDelay(dest, 2, 0) == d1 && n.breakerProbeDelay(dest, 3, 0) == d1 {
		t.Fatal("probe delay does not vary across opens")
	}
	// Failed probes back the cooldown off exponentially, capped at 16x.
	for reopens, base := range map[int]time.Duration{1: 2 * cooldown, 3: 8 * cooldown, 9: 16 * cooldown} {
		d := n.breakerProbeDelay(dest, 1, reopens)
		if d < base || d >= base+base/4 {
			t.Fatalf("probe delay %v after %d reopens outside [%v, %v)", d, reopens, base, base+base/4)
		}
	}

	// Cooldown elapsed: exactly one probe is admitted.
	eng.RunFor(cooldown + cooldown/4)
	if n.breakerOpenNow(dest) {
		t.Fatal("breakerOpenNow still rejecting after the cooldown")
	}
	if !n.breakerAllows(dest) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if n.breakerAllows(dest) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Failed probe: instant reopen.
	n.breakerFailure(dest, true)
	if n.breakerAllows(dest) {
		t.Fatal("reopened breaker allowed an attempt")
	}
	if st := n.OverloadStats(); st.BreakerOpens != 2 {
		t.Fatalf("opens = %d after failed probe, want 2", st.BreakerOpens)
	}

	// Successful probe: closed, entry gone. The failed probe doubled the
	// cooldown, so wait out the backed-off window (plus its jitter).
	eng.RunFor(2*cooldown + 2*cooldown/4)
	if !n.breakerAllows(dest) {
		t.Fatal("second probe refused")
	}
	n.breakerSuccess(dest)
	if !n.breakerAllows(dest) || n.breakerOpenNow(dest) {
		t.Fatal("closed breaker still rejecting")
	}
	n.brMu.Lock()
	_, lives := n.breakers[dest]
	n.brMu.Unlock()
	if lives {
		t.Fatal("closed breaker entry not deleted")
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

	// A success while merely accumulating strikes resets silently: no
	// "closed" transition is reported for a breaker that never opened.
	n.breakerFailure(dest, true)
	n.breakerSuccess(dest)
	if got := log.snapshot(); len(got) != len(want) {
		t.Fatalf("untripped success fired a transition: %v", got[len(want):])
	}
}

// TestBreakerAdmissionShed pins where an open breaker acts. The delivery
// layer fails fast: an update bound for the isolated peer is treated as
// refused — no datagram, no queue entry, straight to the next candidate
// (here there is none, so the chain ends abandoned after one attempt).
// The send machine itself consults no breaker and refuses nothing: a
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
	n.breakerFailure(dest, true) // open

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
