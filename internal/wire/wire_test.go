package wire_test

// The test package is external so it can import the protocol layers:
// chord, core, and maan register their payload codecs in init, and the
// tests here prove every registration against encoding/gob, which
// survives in this test package only, as the reference oracle.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/maan"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The oracle knows every registered payload type (and one more, which
// stays unregistered with the codec under test).
func init() {
	for _, sample := range wire.Samples() {
		gob.Register(sample)
	}
	gob.Register(unregisteredPayload{})
}

// gobRoundTrip is the reference a payload's codec is held to: gob
// through the any interface, so the dynamic type tag travels with the
// value.
func gobRoundTrip(t testing.TB, payload any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&payload); err != nil {
		t.Fatalf("gob encode %T: %v", payload, err)
	}
	var out any
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", payload, err)
	}
	return out
}

// gobFrame is a whole envelope as one gob stream: the size the compact
// codec has to beat, and a hostile input it has to reject.
func gobFrame(t testing.TB, env *wire.Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatalf("gob encode envelope %s: %v", env.Type, err)
	}
	return buf.Bytes()
}

// wireRoundTrip pushes a payload through a full compact envelope.
func wireRoundTrip(t testing.TB, payload any) any {
	t.Helper()
	env := wire.Envelope{Kind: 2, Seq: 7, Type: "test", From: "a", Payload: payload}
	data, _, err := wire.Compact{}.Append(nil, &env)
	if err != nil {
		t.Fatalf("wire encode %T: %v", payload, err)
	}
	got, _, err := wire.Compact{}.Decode(data)
	if err != nil {
		t.Fatalf("wire decode %T: %v", payload, err)
	}
	return got.Payload
}

// richSamples returns one fully-populated value per protocol payload
// type, exercising nested refs, slices, and maps. The zero values of
// every registered type come from wire.Samples() and are covered by
// TestZeroValueEquivalence.
func richSamples() []any {
	ref := func(i int) chord.NodeRef {
		return chord.NodeRef{ID: ident.ID(i * 1000), Addr: transport.Addr(fmt.Sprintf("127.0.0.1:90%02d", i))}
	}
	agg := core.Aggregate{Sum: 123.5, SumSq: 8000.25, Count: 17, Min: -2.5, Max: 99.75, Degraded: true, Coverage: 0.875}
	res := maan.Resource{
		Name:    "host7",
		Values:  map[string]float64{"cpu-usage": 42.5, "memory-size": 2048},
		Strings: map[string]string{"os-name": "linux", "site": "ncsa"},
	}
	return []any{
		chord.StepReq{Key: 0x7fffffffffffffff},
		chord.StepResp{Done: true, Next: ref(1)},
		chord.GetStateReq{},
		chord.AckResp{},
		chord.StateResp{
			Self:        ref(2),
			Predecessor: ref(3),
			Successors:  []chord.NodeRef{ref(4), ref(5), ref(6)},
			Fingers:     []chord.NodeRef{ref(7)},
		},
		chord.NotifyReq{Candidate: ref(8)},
		chord.PingReq{},
		chord.PingResp{Self: ref(9)},
		chord.ProbeSplitReq{},
		chord.ProbeSplitResp{AssignedID: 12345},
		chord.LeaveReq{Departing: ref(1), Predecessor: ref(2), Successors: []chord.NodeRef{ref(3)}},
		chord.BroadcastMsg{Origin: ref(4), Limit: 999, Type: "dat.collect", Payload: []byte{1, 2, 3}, Hops: 5},
		core.UpdateMsg{
			Key: 42, Epoch: -3, Agg: agg, Nodes: 12, Height: 4, Slot: int64(2 * time.Second),
			Sender: ref(5), Demand: true, Trace: 0xdeadbeef, SentAt: 1234567890, Seq: 9,
			Handover: true, FailedRoot: "127.0.0.1:9999",
		},
		// One element each: the failover courtesy detach and its like.
		core.BatchMsg{Elems: []core.BatchElem{{Kind: 2, Detach: core.DetachMsg{Key: 77, Sender: ref(6)}}}},
		core.BatchAck{Acks: []core.UpdateAck{{OK: false, Reason: "cycle"}}},
		core.QueryReq{Key: 88, Window: 250 * time.Millisecond},
		core.QueryResp{Key: 88, Epoch: 6, Agg: agg, Nodes: 31, Coverage: 0.969, Degraded: true},
		core.BatchMsg{Elems: []core.BatchElem{
			{Kind: 1, Update: core.UpdateMsg{
				Key: 42, Epoch: 11, Agg: agg, Nodes: 3, Height: 2, Slot: int64(time.Second),
				Sender: ref(5), Trace: 0xfeed, SentAt: 99, Handover: true, FailedRoot: "127.0.0.1:9999",
			}},
			{Kind: 2, Detach: core.DetachMsg{Key: 43, Sender: ref(6)}},
			{Kind: 9, Update: core.UpdateMsg{Key: 1, Sender: ref(7)}, Detach: core.DetachMsg{Key: 2, Sender: ref(8)}},
		}},
		core.BatchAck{Acks: []core.UpdateAck{{OK: true}, {OK: false, Reason: "no-slot"}, {OK: false, Reason: "bad-elem"}}},
		maan.StoreReq{Attr: "cpu-speed", Value: 2.8, Key: 4242, Res: res},
		maan.RangeReq{
			QueryID: 11, Origin: "127.0.0.1:7001",
			Pred:   maan.Range("cpu-usage", 10, 90),
			Filter: []maan.Predicate{maan.Eq("os-name", "linux"), maan.Range("memory-size", 512, 4096)},
			LoKey:  100, HiKey: 200, Start: "127.0.0.1:7002",
			Found: maan.RecordsOf(res), Hops: 3, Final: true,
		},
		maan.ResultMsg{QueryID: 11, Found: maan.RecordsOf(res, maan.Resource{Name: "host8"}), Hops: 4},
		maan.ResultMsg{QueryID: 12, Hops: 2, Err: "transport: message too large"},
		maan.ReplicateMsg{
			Owner:   "127.0.0.1:7003",
			Entries: []maan.WireEntry{{Attr: "cpu-usage", Key: 5, Value: 55.5, Res: res}},
		},
	}
}

// TestRichValueEquivalence proves the hand-written codec and the gob
// oracle agree on fully-populated payloads of every exported type.
func TestRichValueEquivalence(t *testing.T) {
	for _, payload := range richSamples() {
		payload := payload
		t.Run(fmt.Sprintf("%T", payload), func(t *testing.T) {
			if !wire.Registered(payload) {
				t.Fatalf("%T is not registered", payload)
			}
			w := wireRoundTrip(t, payload)
			g := gobRoundTrip(t, payload)
			if !reflect.DeepEqual(w, g) {
				t.Errorf("codec mismatch:\nwire %#v\ngob  %#v", w, g)
			}
			if !reflect.DeepEqual(w, payload) {
				t.Errorf("wire round trip lost data:\ngot  %#v\nwant %#v", w, payload)
			}
		})
	}
}

// TestZeroValueEquivalence sweeps the registry itself, so a payload
// registered tomorrow is covered without touching this file.
func TestZeroValueEquivalence(t *testing.T) {
	samples := wire.Samples()
	if len(samples) < 20 {
		t.Fatalf("registry has %d payload types; expected the full protocol set (>= 20)", len(samples))
	}
	for _, payload := range samples {
		payload := payload
		t.Run(fmt.Sprintf("%T", payload), func(t *testing.T) {
			w := wireRoundTrip(t, payload)
			g := gobRoundTrip(t, payload)
			if !reflect.DeepEqual(w, g) {
				t.Errorf("codec mismatch on zero value:\nwire %#v\ngob  %#v", w, g)
			}
		})
	}
}

// TestCompactSmallerThanGob pins the point of the exercise: every
// registered payload must encode strictly smaller through the compact
// codec than through per-datagram gob, which re-ships type descriptors
// with every frame.
func TestCompactSmallerThanGob(t *testing.T) {
	for _, payload := range richSamples() {
		env := wire.Envelope{Kind: 2, Seq: 7, Type: "t", From: "a", Payload: payload}
		compact, _, err := wire.Compact{}.Append(nil, &env)
		if err != nil {
			t.Fatalf("compact %T: %v", payload, err)
		}
		if g := gobFrame(t, &env); len(compact) >= len(g) {
			t.Errorf("%T: compact %d bytes >= gob %d bytes", payload, len(compact), len(g))
		}
	}
}

// TestEnvelopeRoundTrip covers the envelope fields themselves,
// including nil payloads and error replies.
func TestEnvelopeRoundTrip(t *testing.T) {
	envs := []wire.Envelope{
		{Kind: 1, Type: "chord.ping", From: "127.0.0.1:1"},
		{Kind: 2, Seq: 1 << 40, Type: "dat.update", From: "127.0.0.1:2", Payload: chord.PingReq{}},
		{Kind: 3, Seq: 9, Type: "dat.batch", From: "127.0.0.1:3", Payload: core.BatchAck{Acks: []core.UpdateAck{{OK: true}}}},
		{Kind: 4, Seq: 10, Type: "dat.query", From: "127.0.0.1:4", ErrText: "dat: not the root"},
	}
	for _, env := range envs {
		data, _, err := wire.Compact{}.Append(wire.GetBuf(), &env)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, _, err := wire.Compact{}.Decode(data)
		wire.PutBuf(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("envelope mismatch:\ngot  %#v\nwant %#v", got, env)
		}
	}
}

// unregisteredPayload exists only in this test binary: known to the
// gob oracle, not to the codec.
type unregisteredPayload struct {
	Name  string
	Count int
}

// TestUnregisteredPayload proves a payload without a registration does
// not travel: the error names the type and nothing is produced.
func TestUnregisteredPayload(t *testing.T) {
	env := wire.Envelope{Kind: 2, Seq: 3, Type: "custom.msg", From: "x", Payload: unregisteredPayload{Name: "n", Count: 4}}
	data, _, err := wire.Compact{}.Append(nil, &env)
	if !errors.Is(err, wire.ErrUnregistered) || !strings.Contains(err.Error(), "unregisteredPayload") {
		t.Errorf("Append error = %v, want ErrUnregistered naming the type", err)
	}
	if data != nil {
		t.Errorf("Append produced %d bytes for an unregistered payload", len(data))
	}
	if b, err := wire.EncodePayload(env.Payload); !errors.Is(err, wire.ErrUnregistered) || b != nil {
		t.Errorf("EncodePayload = %v, %v, want nil, ErrUnregistered", b, err)
	}
}

// hostileFrames are the inputs the deleted gob paths used to accept:
// a genuine whole-envelope gob frame, a compact header followed by the
// retired tag 1 and a gob stream, and a lone non-magic byte.
func hostileFrames(t testing.TB) []hostileFrame {
	env := wire.Envelope{Kind: 2, Seq: 5, Type: "chord.step", From: "127.0.0.1:5", Payload: chord.StepReq{Key: 77}}
	var payload any = unregisteredPayload{Name: "n", Count: 4}
	var tagged bytes.Buffer
	tagged.Write([]byte{wire.Magic, wire.Version, 2, 3, 1, 't', 1, 'a', 0, 0x01})
	if err := gob.NewEncoder(&tagged).Encode(&payload); err != nil {
		t.Fatal(err)
	}
	return []hostileFrame{
		{"gob-envelope", gobFrame(t, &env)},
		{"tag-1-gob", tagged.Bytes()},
		{"non-magic-1byte", []byte{0x22}},
	}
}

type hostileFrame struct {
	name string
	data []byte
}

// TestMalformedFrames feeds truncations and corruptions of a valid
// frame through Decode: errors, never panics, never empty-frame
// acceptance.
func TestMalformedFrames(t *testing.T) {
	env := wire.Envelope{Kind: 2, Seq: 5, Type: "dat.update", From: "127.0.0.1:5", Payload: richSamples()[12]}
	data, _, err := wire.Compact{}.Append(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (wire.Compact{}).Decode(nil); err == nil {
		t.Error("empty frame decoded without error")
	}
	for cut := 1; cut < len(data); cut++ {
		if _, _, err := (wire.Compact{}).Decode(data[:cut]); err == nil {
			// A truncation that cuts exactly at the payload boundary of a
			// frame with a nil payload would be valid; this frame has a
			// payload, so every proper prefix must fail.
			t.Errorf("truncated frame (%d/%d bytes) decoded without error", cut, len(data))
		}
	}
	bad := append([]byte(nil), data...)
	bad[1] = wire.Version + 1
	if _, _, err := (wire.Compact{}).Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	for _, h := range hostileFrames(t) {
		if env, _, err := (wire.Compact{}).Decode(h.data); err == nil {
			t.Errorf("%s frame decoded to %#v, want an error", h.name, env)
		}
	}
}

// TestStandalonePayload covers EncodePayload/DecodePayload, the nested
// blob path used by the on-demand broadcast messages.
func TestStandalonePayload(t *testing.T) {
	for _, payload := range richSamples() {
		b, err := wire.EncodePayload(payload)
		if err != nil {
			t.Fatalf("%T: %v", payload, err)
		}
		got, err := wire.DecodePayload(b)
		if err != nil {
			t.Fatalf("%T: %v", payload, err)
		}
		if !reflect.DeepEqual(got, payload) {
			t.Errorf("%T standalone mismatch", payload)
		}
	}
	b, err := wire.EncodePayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := wire.DecodePayload(b); err != nil || got != nil {
		t.Errorf("nil payload: got %v, %v", got, err)
	}
}

// TestRegisterPanics pins the registry's fail-fast contract.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	nop := func(*wire.Encoder, any) {}
	dec := func(*wire.Decoder) (any, error) { return struct{}{}, nil }
	mustPanic("reserved code", func() { wire.Register(0x01, struct{ A int }{}, nop, dec) })
	mustPanic("nil sample", func() { wire.Register(0xF0, nil, nop, dec) })
	mustPanic("nil codec", func() { wire.Register(0xF0, struct{ B int }{}, nil, nil) })
	mustPanic("duplicate code", func() { wire.Register(wire.CodeChordBase, struct{ C int }{}, nop, dec) })
	mustPanic("duplicate type", func() { wire.Register(0xF0, chord.StepReq{}, nop, dec) })
}

// TestBatchEdgeCases hand-pins the BatchMsg shapes the reflective
// suites are least likely to hit head-on: the empty batch (a sender bug
// the codec must still carry faithfully, normalizing an empty element
// slice to nil exactly like gob) and the single-element batch (what a
// near-idle send machine, or one under MaxElems 1, emits every flush).
func TestBatchEdgeCases(t *testing.T) {
	ref := chord.NodeRef{ID: 4000, Addr: "127.0.0.1:9004"}
	cases := []struct {
		name string
		in   any
	}{
		{"empty-batch-nil", core.BatchMsg{}},
		{"empty-batch-zero-len", core.BatchMsg{Elems: []core.BatchElem{}}},
		{"single-update", core.BatchMsg{Elems: []core.BatchElem{
			{Kind: 1, Update: core.UpdateMsg{Key: 7, Epoch: 3, Nodes: 1, Slot: int64(time.Second), Sender: ref}},
		}}},
		{"single-detach", core.BatchMsg{Elems: []core.BatchElem{
			{Kind: 2, Detach: core.DetachMsg{Key: 9, Sender: ref}},
		}}},
		{"empty-ack", core.BatchAck{}},
		{"empty-ack-zero-len", core.BatchAck{Acks: []core.UpdateAck{}}},
		{"single-ack", core.BatchAck{Acks: []core.UpdateAck{{OK: false, Reason: "cycle"}}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := wireRoundTrip(t, tc.in)
			g := gobRoundTrip(t, tc.in)
			if !reflect.DeepEqual(w, g) {
				t.Errorf("codec mismatch:\nwire %#v\ngob  %#v", w, g)
			}
		})
	}
}
