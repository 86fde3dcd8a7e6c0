package core

// Deadline/flush unit tests for the send machine, driven by the
// deterministic sim clock: every flush trigger (MaxBytes, MaxDelay,
// MaxElems), the one-element-per-datagram spelling, the ack
// demultiplexer, and the drain-on-Close shutdown tie.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// stubEndpoint records Calls so tests can inspect (and answer) what the
// send machine put on the wire.
type stubEndpoint struct {
	addr  transport.Addr
	calls []stubCall
}

type stubCall struct {
	to      transport.Addr
	typ     string
	payload any
	cb      transport.ResponseFunc
}

func (s *stubEndpoint) Addr() transport.Addr { return s.addr }
func (s *stubEndpoint) Send(to transport.Addr, typ string, payload any) error {
	s.calls = append(s.calls, stubCall{to, typ, payload, nil})
	return nil
}
func (s *stubEndpoint) Call(to transport.Addr, typ string, payload any, cb transport.ResponseFunc) {
	s.calls = append(s.calls, stubCall{to, typ, payload, cb})
}
func (s *stubEndpoint) Handle(transport.Handler) {}
func (s *stubEndpoint) Close() error             { return nil }

type flushRecord struct {
	reason string
	elems  int
	saved  int
}

// newMachineForTest builds a Node shell with just the fields the send
// machine touches: endpoint, clock, batch config, and the flush hook.
func newMachineForTest(t *testing.T, eng *sim.Engine, bc BatchConfig) (*Node, *stubEndpoint, *[]flushRecord) {
	t.Helper()
	ep := &stubEndpoint{addr: "10.0.0.1:1"}
	flushes := &[]flushRecord{}
	cfg := NodeConfig{Batch: bc}.withDefaults()
	cfg.Obs = obs.CoreHooks{BatchFlush: func(reason string, elems, saved int) {
		*flushes = append(*flushes, flushRecord{reason, elems, saved})
	}}
	clock := transport.SimClock{Engine: eng}
	n := &Node{ch: testChord(ep, clock), ep: ep, clock: clock, cfg: cfg}
	n.sm = newSendMachine(n, cfg.Batch)
	return n, ep, flushes
}

// testChord is a chord node on ep that never joins a ring: the peer-
// health record a Node shell reports to and reads its verdicts from.
func testChord(ep transport.Endpoint, clock transport.Clock) *chord.Node {
	return chord.New(ep, clock, 1, chord.Config{Space: ident.New(16)})
}

func testUpdate(i int) UpdateMsg {
	return UpdateMsg{
		Key: 7, Epoch: int64(i), Nodes: uint64(i),
		Sender: chord.NodeRef{ID: ident.ID(i), Addr: "10.0.0.1:1"},
	}
}

// TestSendMachineFlushTriggers table-drives the size-triggered flushes
// plus the deadline path, asserting both the wire shape (one batched
// Call) and the reported trigger. No trigger refuses an element or
// leaves a queue's worth of bytes at rest.
func TestSendMachineFlushTriggers(t *testing.T) {
	const dest = transport.Addr("10.0.0.2:1")
	cases := []struct {
		name       string
		cfg        BatchConfig
		enqueue    int
		last       func(*UpdateMsg) // reshapes the last update enqueued
		runFor     time.Duration
		wantReason string
		wantElems  int
	}{
		{
			name:       "max-elems",
			cfg:        BatchConfig{MaxElems: 3, MaxDelay: time.Hour},
			enqueue:    3,
			wantReason: "elems",
			wantElems:  3,
		},
		{
			name: "max-bytes",
			// Each update estimates ~72+len(addr) bytes, so two fit under
			// 200 and the third trips the threshold.
			cfg:        BatchConfig{MaxBytes: 200, MaxElems: 100, MaxDelay: time.Hour},
			enqueue:    3,
			wantReason: "bytes",
			wantElems:  3,
		},
		{
			name:       "max-delay",
			cfg:        BatchConfig{MaxDelay: 5 * time.Millisecond, MaxElems: 100},
			enqueue:    4,
			runFor:     5 * time.Millisecond,
			wantReason: "deadline",
			wantElems:  4,
		},
		{
			name: "oversize-elem",
			// The last update alone estimates over MaxBytes: it joins the
			// two already waiting and the queue flushes at once.
			cfg:        BatchConfig{MaxBytes: 300, MaxElems: 100, MaxDelay: time.Hour},
			enqueue:    3,
			last:       func(um *UpdateMsg) { um.Sender.Addr = transport.Addr(strings.Repeat("x", 300)) },
			wantReason: "bytes",
			wantElems:  3,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			n, ep, flushes := newMachineForTest(t, eng, tc.cfg)
			for i := 0; i < tc.enqueue; i++ {
				um := testUpdate(i)
				if tc.last != nil && i == tc.enqueue-1 {
					tc.last(&um)
				}
				n.batchCall(dest, MsgUpdate, um, func(_ any, err error) {
					if err != nil {
						t.Errorf("update %d answered %v", i, err)
					}
				})
			}
			if tc.runFor > 0 {
				if len(ep.calls) != 0 {
					t.Fatalf("flushed before the deadline: %d calls", len(ep.calls))
				}
				eng.RunFor(tc.runFor)
			}
			if len(ep.calls) != 1 {
				t.Fatalf("got %d calls, want 1 batched call", len(ep.calls))
			}
			call := ep.calls[0]
			if call.to != dest || call.typ != MsgBatch {
				t.Fatalf("call = %s %q, want %s %q", call.to, call.typ, dest, MsgBatch)
			}
			bm := call.payload.(BatchMsg)
			if len(bm.Elems) != tc.wantElems {
				t.Fatalf("batch holds %d elems, want %d", len(bm.Elems), tc.wantElems)
			}
			// FIFO order is part of the contract: element i is enqueue i.
			for i, el := range bm.Elems {
				if el.Kind != batchKindUpdate || el.Update.Epoch != int64(i) {
					t.Fatalf("elem %d = kind %d epoch %d; queue order not preserved", i, el.Kind, el.Update.Epoch)
				}
			}
			if len(*flushes) != 1 || (*flushes)[0].reason != tc.wantReason {
				t.Fatalf("flush records = %+v, want one %q", *flushes, tc.wantReason)
			}
			if saved := (*flushes)[0].saved; saved != (tc.wantElems-1)*frameOverhead {
				t.Fatalf("bytesSaved = %d, want %d", saved, (tc.wantElems-1)*frameOverhead)
			}
			st := n.OverloadStats()
			if st.Rejected != 0 || st.QueuedBytes != 0 {
				t.Fatalf("flush refused or left traffic behind: %+v", st)
			}
			if st.HiWaterBytes >= n.sm.cfg.MaxBytes {
				t.Fatalf("hi-water %d reached the queue's %d-byte flush threshold", st.HiWaterBytes, n.sm.cfg.MaxBytes)
			}
			// Answer the datagram, which stops its ack deadline. No timer
			// may survive the flush: drain the engine and assert nothing
			// else reaches the wire.
			call.cb(BatchAck{Acks: make([]UpdateAck, tc.wantElems)}, nil)
			eng.Run()
			if len(ep.calls) != 1 {
				t.Fatalf("stale deadline timer fired: %d calls", len(ep.calls))
			}
		})
	}
}

// TestSendMachineDeadlineDeterministic pins the draw-free jitter: the
// flush delay is a pure function of (self, dest, fill sequence), stays
// within (3/4*MaxDelay, MaxDelay], and varies across destinations.
func TestSendMachineDeadlineDeterministic(t *testing.T) {
	eng := sim.NewEngine(1)
	n, _, _ := newMachineForTest(t, eng, BatchConfig{})
	d := n.sm.cfg.MaxDelay
	seen := map[time.Duration]bool{}
	for _, dest := range []transport.Addr{"10.0.0.2:1", "10.0.0.3:1", "10.0.0.4:1"} {
		for seq := uint64(1); seq <= 3; seq++ {
			got := n.sm.deadline(dest, seq)
			if got != n.sm.deadline(dest, seq) {
				t.Fatalf("deadline(%s, %d) is not deterministic", dest, seq)
			}
			if got <= d-d/4 || got > d {
				t.Fatalf("deadline(%s, %d) = %v outside (%v, %v]", dest, seq, got, d-d/4, d)
			}
			seen[got] = true
		}
	}
	if len(seen) < 2 {
		t.Fatal("deadlines did not vary across destinations/fills")
	}
}

// TestSendMachineAckDemux covers the reply path: a BatchAck fans its
// per-element acks onto the queued callbacks in order; a transport
// error fails every element, and so does any reply that is not a
// BatchAck with exactly one ack per element — a bare UpdateAck
// included, for a one-element flush like any other.
func TestSendMachineAckDemux(t *testing.T) {
	type result struct {
		payload any
		err     error
	}
	run := func(t *testing.T, elems int, reply func(transport.ResponseFunc)) []result {
		t.Helper()
		eng := sim.NewEngine(1)
		n, ep, _ := newMachineForTest(t, eng, BatchConfig{MaxElems: elems, MaxDelay: time.Hour})
		results := make([]result, elems)
		for i := 0; i < elems; i++ {
			i := i
			n.batchCall("10.0.0.2:1", MsgUpdate, testUpdate(i), func(p any, err error) {
				results[i] = result{p, err}
			})
		}
		if len(ep.calls) != 1 {
			t.Fatalf("got %d calls, want 1", len(ep.calls))
		}
		reply(ep.calls[0].cb)
		return results
	}

	t.Run("acks-in-order", func(t *testing.T) {
		acks := []UpdateAck{{OK: true}, {OK: false, Reason: "cycle"}}
		results := run(t, 2, func(cb transport.ResponseFunc) { cb(BatchAck{Acks: acks}, nil) })
		for i, r := range results {
			if r.err != nil || r.payload.(UpdateAck) != acks[i] {
				t.Fatalf("element %d got (%v, %v), want %+v", i, r.payload, r.err, acks[i])
			}
		}
	})
	t.Run("transport-error-fans-out", func(t *testing.T) {
		boom := errors.New("boom")
		results := run(t, 2, func(cb transport.ResponseFunc) { cb(nil, boom) })
		for i, r := range results {
			if !errors.Is(r.err, boom) {
				t.Fatalf("element %d err = %v, want boom", i, r.err)
			}
		}
	})
	bad := []struct {
		name  string
		elems int
		reply any
	}{
		{"short-ack-fans-error", 2, BatchAck{Acks: []UpdateAck{{OK: true}}}},
		{"long-ack-fans-error", 1, BatchAck{Acks: []UpdateAck{{OK: true}, {OK: true}}}},
		{"empty-ack-fans-error", 1, BatchAck{}},
		{"wrong-type-fans-error", 2, UpdateAck{OK: true}},
		{"bare-ack-one-elem-fans-error", 1, UpdateAck{OK: true}},
		{"nil-reply-one-elem-fans-error", 1, nil},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			results := run(t, tc.elems, func(cb transport.ResponseFunc) { cb(tc.reply, nil) })
			for i, r := range results {
				if r.err == nil {
					t.Fatalf("element %d was confirmed by the reply %#v", i, tc.reply)
				}
			}
		})
	}
}

// TestSendMachineCloseDrains pins the shutdown tie: Close flushes every
// queued element immediately (reason "drain", deterministic destination
// order) and cancels all deadline timers. What a later enqueue meets is
// TestSendMachineCloseTypedError's.
func TestSendMachineCloseDrains(t *testing.T) {
	eng := sim.NewEngine(1)
	n, ep, flushes := newMachineForTest(t, eng, BatchConfig{MaxDelay: time.Hour, MaxElems: 100})
	dests := []transport.Addr{"10.0.0.9:1", "10.0.0.2:1", "10.0.0.5:1"}
	for i, dest := range dests {
		n.batchCall(dest, MsgUpdate, testUpdate(i), nil)
		n.batchCall(dest, MsgUpdate, testUpdate(i+10), nil)
	}
	if len(ep.calls) != 0 {
		t.Fatalf("flushed before Close: %d calls", len(ep.calls))
	}
	n.Close()
	if len(ep.calls) != len(dests) {
		t.Fatalf("drain produced %d calls, want %d", len(ep.calls), len(dests))
	}
	// Destinations must flush in sorted order, not map order.
	want := []transport.Addr{"10.0.0.2:1", "10.0.0.5:1", "10.0.0.9:1"}
	for i, call := range ep.calls {
		if call.to != want[i] {
			t.Fatalf("drain order: call %d went to %s, want %s", i, call.to, want[i])
		}
		if call.typ != MsgBatch || len(call.payload.(BatchMsg).Elems) != 2 {
			t.Fatalf("drain call %d = %q %+v", i, call.typ, call.payload)
		}
	}
	for _, f := range *flushes {
		if f.reason != "drain" {
			t.Fatalf("flush reason %q, want drain", f.reason)
		}
	}
	// All deadline timers must be gone: the engine has nothing to fire.
	if fired := eng.Run(); fired != 0 {
		t.Fatalf("%d events fired after Close; deadline timers leaked", fired)
	}
	n.Close() // idempotent
	if len(ep.calls) != len(dests) {
		t.Fatalf("second Close put %d more calls on the wire", len(ep.calls)-len(dests))
	}
}

// TestSendMachinePassThrough pins the unbatched spelling: under
// MaxElems 1 every enqueue trips the elems trigger, so each element is
// its own one-element MsgBatch Call in enqueue order, no flush deadline
// is ever armed, nothing stays queued, every sink hears its own verdict
// exactly once, and no ack deadline outlives its reply.
func TestSendMachinePassThrough(t *testing.T) {
	const destA, destB = transport.Addr("10.0.0.2:1"), transport.Addr("10.0.0.3:1")
	type send struct {
		to     transport.Addr
		detach bool
	}
	cases := []struct {
		name  string
		sends []send
	}{
		{name: "updates-one-dest", sends: []send{{to: destA}, {to: destA}, {to: destA}}},
		{name: "detaches-two-dests", sends: []send{{destA, true}, {destB, true}, {destA, true}}},
		{name: "mixed-two-dests", sends: []send{{to: destA}, {destB, true}, {to: destB}, {destA, true}, {to: destA}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			n, ep, flushes := newMachineForTest(t, eng, BatchConfig{MaxElems: 1})
			// Sink i must hear verdict i: every odd element is refused.
			verdict := func(i int) UpdateAck {
				if i%2 == 1 {
					return UpdateAck{Reason: "cycle"}
				}
				return UpdateAck{OK: true}
			}
			answered := make([]int, len(tc.sends))
			for i, s := range tc.sends {
				cb := func(payload any, err error) {
					if ack, _ := payload.(UpdateAck); err != nil || ack != verdict(i) {
						t.Errorf("sink %d heard %+v, %v, want %+v", i, payload, err, verdict(i))
					}
					answered[i]++
				}
				if s.detach {
					n.batchCall(s.to, MsgDetach, DetachMsg{Key: ident.ID(i)}, cb)
				} else {
					n.batchCall(s.to, MsgUpdate, testUpdate(i), cb)
				}
			}
			if len(ep.calls) != len(tc.sends) {
				t.Fatalf("%d elements put %d calls on the wire", len(tc.sends), len(ep.calls))
			}
			for i, c := range ep.calls {
				s := tc.sends[i]
				if c.to != s.to || c.typ != MsgBatch || c.cb == nil {
					t.Fatalf("call %d = %s to %s (acked %v), want an acked %s to %s", i, c.typ, c.to, c.cb != nil, MsgBatch, s.to)
				}
				bm, _ := c.payload.(BatchMsg)
				if len(bm.Elems) != 1 {
					t.Fatalf("call %d carries %d elements (%T), want 1", i, len(bm.Elems), c.payload)
				}
				switch el := bm.Elems[0]; {
				case s.detach && (el.Kind != batchKindDetach || el.Detach.Key != ident.ID(i)):
					t.Fatalf("call %d carries %+v, want detach %d: out of enqueue order", i, el, i)
				case !s.detach && (el.Kind != batchKindUpdate || el.Update.Epoch != int64(i)):
					t.Fatalf("call %d carries %+v, want update %d: out of enqueue order", i, el, i)
				}
			}
			for _, f := range *flushes {
				if f != (flushRecord{reason: "elems", elems: 1}) {
					t.Fatalf("flush record %+v, want one element on the elems trigger, nothing saved", f)
				}
			}
			if st := n.OverloadStats(); st.QueuedBytes != 0 || st.QueuedElems != 0 {
				t.Fatalf("still queued after the sends: %+v", st)
			}
			// Answer newest first: a verdict finds its sink by the record
			// it flew on, not by arrival order.
			for i := len(ep.calls) - 1; i >= 0; i-- {
				ep.calls[i].cb(BatchAck{Acks: []UpdateAck{verdict(i)}}, nil)
			}
			for i, k := range answered {
				if k != 1 {
					t.Errorf("sink %d answered %d times", i, k)
				}
			}
			if eng.Len() != 0 {
				t.Fatalf("%d events pending after the replies: a deadline timer outlived its datagram", eng.Len())
			}
		})
	}
}

// TestElemEstimatePositive keeps the size estimator honest enough for
// the MaxBytes trigger: every element kind costs a positive number of
// bytes that grows with its variable-length fields.
func TestElemEstimatePositive(t *testing.T) {
	for _, el := range []BatchElem{
		{Kind: batchKindUpdate, Update: testUpdate(1)},
		{Kind: batchKindDetach, Detach: DetachMsg{Key: 1}},
		{Kind: 77},
	} {
		if got := elemEstimate(&el); got <= 0 {
			t.Fatalf("elemEstimate(kind %d) = %d", el.Kind, got)
		}
	}
	small := elemEstimate(&BatchElem{Kind: batchKindUpdate, Update: UpdateMsg{}})
	big := elemEstimate(&BatchElem{Kind: batchKindUpdate, Update: UpdateMsg{
		Sender:     chord.NodeRef{Addr: transport.Addr(fmt.Sprintf("%064d", 1))},
		FailedRoot: "10.0.0.1:1",
	}})
	if big <= small {
		t.Fatalf("estimate ignores variable fields: %d <= %d", big, small)
	}
}
