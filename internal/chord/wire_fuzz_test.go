package chord

import (
	"reflect"
	"testing"

	"repro/internal/wire"
)

// wireSeeds is one instance of every registered wire payload, with
// non-zero fields so the round-trip exercises real data.
func wireSeeds() []any {
	a := NodeRef{ID: 0x1234, Addr: "127.0.0.1:9000"}
	b := NodeRef{ID: 0xfffffffe, Addr: "127.0.0.1:9001"}
	return []any{
		StepReq{Key: 0xdeadbeef},
		StepResp{Done: true, Next: a},
		GetStateReq{},
		AckResp{},
		StateResp{Self: a, Predecessor: b, Successors: []NodeRef{a, b}, Fingers: []NodeRef{b}},
		NotifyReq{Candidate: b},
		PingReq{},
		PingResp{Self: a},
		ProbeSplitReq{},
		ProbeSplitResp{AssignedID: 0x8000},
		LeaveReq{Departing: a, Predecessor: b, Successors: []NodeRef{b}},
		BroadcastMsg{Origin: a, Limit: 0x7fff, Type: "dat.update", Payload: []byte{1, 2, 3}, Hops: 2},
	}
}

// TestWireRoundTrip pins encode→decode identity for each message type.
func TestWireRoundTrip(t *testing.T) {
	for _, msg := range wireSeeds() {
		data, err := wire.EncodePayload(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		got, err := wire.DecodePayload(data)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Errorf("round-trip %T: got %#v, want %#v", msg, got, msg)
		}
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes to the payload codec chord's
// messages travel in: decoding must never panic, and anything that
// decodes must re-encode to a value that decodes back equal (the codec
// is self-consistent even on inputs the peer never sent).
func FuzzWireRoundTrip(f *testing.F) {
	for _, msg := range wireSeeds() {
		data, err := wire.EncodePayload(msg)
		if err != nil {
			f.Fatalf("seed %T: %v", msg, err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.DecodePayload(data)
		if err != nil {
			return // rejected cleanly; that's the contract
		}
		again, err := wire.EncodePayload(msg)
		if err != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", msg, err)
		}
		msg2, err := wire.DecodePayload(again)
		if err != nil {
			t.Fatalf("decode of re-encoded %T failed: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round-trip not stable: %#v vs %#v", msg, msg2)
		}
	})
}
