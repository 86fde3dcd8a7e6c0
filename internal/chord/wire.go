package chord

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/wire"
)

// NodeRef identifies a Chord peer: its ring identifier plus its transport
// address. The zero NodeRef means "unknown".
type NodeRef struct {
	ID   ident.ID
	Addr transport.Addr
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.Addr == "" }

// String renders the reference for logs.
func (r NodeRef) String() string {
	if r.IsZero() {
		return "<none>"
	}
	return fmt.Sprintf("%v@%s", r.ID, r.Addr)
}

// Chord message types. The "chord." prefix lets metrics taps separate
// overlay maintenance traffic from aggregation traffic.
const (
	// MsgStep is the iterative lookup step: "what do you know about key
	// k?" The reply either finishes the lookup or names a closer node.
	MsgStep = "chord.step"
	// MsgGetState asks a node for its predecessor and successor list
	// (used by stabilization, joins and the probing split).
	MsgGetState = "chord.get_state"
	// MsgNotify tells a node about a possible better predecessor.
	MsgNotify = "chord.notify"
	// MsgPing checks liveness.
	MsgPing = "chord.ping"
	// MsgProbeSplit implements the identifier-probing join: the receiver
	// inspects the intervals of itself and its fingers and returns a
	// point in the middle half of the largest one as the joiner's
	// designated identifier.
	MsgProbeSplit = "chord.probe_split"
	// MsgLeave announces a graceful departure to the neighbors.
	MsgLeave = "chord.leave"
	// MsgBroadcast disseminates a payload to every node reachable through
	// finger ranges (the paper's "broadcast" Chord routine, §4).
	MsgBroadcast = "chord.broadcast"
)

// StepReq asks the receiver to advance a lookup for Key.
type StepReq struct {
	Key ident.ID
}

// StepResp carries the receiver's answer: if Done, Next is
// successor(Key); otherwise Next is a strictly closer node to ask.
type StepResp struct {
	Done bool
	Next NodeRef
}

// GetStateReq asks for the receiver's neighbor state.
type GetStateReq struct{}

// AckResp acknowledges a one-shot request with no data.
type AckResp struct{}

// StateResp is the receiver's neighbor state.
type StateResp struct {
	Self        NodeRef
	Predecessor NodeRef
	Successors  []NodeRef
	// Fingers is the receiver's current finger table (distinct entries
	// only). No receiver reads it today; it is part of the wire layout.
	Fingers []NodeRef
}

// NotifyReq suggests Candidate as the receiver's predecessor.
type NotifyReq struct {
	Candidate NodeRef
}

// PingReq/PingResp check liveness.
type PingReq struct{}

// PingResp acknowledges a ping.
type PingResp struct {
	Self NodeRef
}

// ProbeSplitReq asks the receiver to designate an identifier for a
// joining node by splitting the largest known interval.
type ProbeSplitReq struct{}

// ProbeSplitResp carries the designated identifier.
type ProbeSplitResp struct {
	AssignedID ident.ID
}

// LeaveReq tells a neighbor the sender is departing and who to link to
// instead.
type LeaveReq struct {
	Departing   NodeRef
	Predecessor NodeRef // the departing node's predecessor
	Successors  []NodeRef
}

// BroadcastMsg floods a payload over finger ranges: the receiver handles
// the payload, then re-forwards to each of its fingers that falls inside
// (receiver, Limit).
type BroadcastMsg struct {
	Origin  NodeRef
	Limit   ident.ID // exclusive upper bound of the receiver's range
	Type    string   // application payload type, dispatched via upcall
	Payload []byte   // application payload, opaque to Chord
	Hops    int
}

// Compact-codec payload codes (DESIGN.md §11). The chord layer owns
// wire.CodeChordBase..+15; codes are wire-format constants — never
// renumber a shipped one.
const (
	codeStepReq        = wire.CodeChordBase + 0
	codeStepResp       = wire.CodeChordBase + 1
	codeGetStateReq    = wire.CodeChordBase + 2
	codeAckResp        = wire.CodeChordBase + 3
	codeStateResp      = wire.CodeChordBase + 4
	codeNotifyReq      = wire.CodeChordBase + 5
	codePingReq        = wire.CodeChordBase + 6
	codePingResp       = wire.CodeChordBase + 7
	codeProbeSplitReq  = wire.CodeChordBase + 8
	codeProbeSplitResp = wire.CodeChordBase + 9
	codeLeaveReq       = wire.CodeChordBase + 10
	codeBroadcastMsg   = wire.CodeChordBase + 11
)

// EncodeNodeRef appends a NodeRef's fields (ID as uvarint, Addr
// length-prefixed). Shared with the core layer, whose messages embed
// sender references.
func EncodeNodeRef(e *wire.Encoder, r NodeRef) {
	e.Uvarint(uint64(r.ID))
	e.String(string(r.Addr))
}

// DecodeNodeRef is the inverse of EncodeNodeRef. The address comes
// from the bounded intern table: it names one of the ring's peers, and
// repeats in every element of every batch that peer sends.
func DecodeNodeRef(d *wire.Decoder) NodeRef {
	id := ident.ID(d.Uvarint())
	addr := transport.Addr(d.InternedString())
	return NodeRef{ID: id, Addr: addr}
}

func encodeNodeRefs(e *wire.Encoder, refs []NodeRef) {
	e.Uvarint(uint64(len(refs)))
	for _, r := range refs {
		EncodeNodeRef(e, r)
	}
}

func decodeNodeRefs(d *wire.Decoder) []NodeRef {
	n := d.Uvarint()
	if d.Err != nil || n == 0 {
		return nil
	}
	// Cap the pre-allocation by what the frame could possibly hold
	// (2 bytes minimum per ref), so a forged length prefix cannot
	// balloon memory; overlong lengths then fail field-by-field.
	if max := uint64(len(d.Buf)-d.Off)/2 + 1; n > max {
		n = max
	}
	refs := make([]NodeRef, 0, n)
	for i := uint64(0); d.Err == nil && i < n; i++ {
		refs = append(refs, DecodeNodeRef(d))
	}
	if d.Err != nil {
		return nil
	}
	return refs
}

func init() {
	// Hand-written compact codecs, one per payload (DESIGN.md §11).
	// Every encoder writes fields in declaration order; every decoder
	// mirrors it exactly. The FuzzWireRoundTrip harness in
	// internal/wire proves each against a gob reference oracle.
	wire.Register(codeStepReq,
		StepReq{},
		func(e *wire.Encoder, v any) {
			m := v.(StepReq)
			e.Uvarint(uint64(m.Key))
		},
		func(d *wire.Decoder) (any, error) {
			var m StepReq
			m.Key = ident.ID(d.Uvarint())
			return m, nil
		})
	wire.Register(codeStepResp,
		StepResp{},
		func(e *wire.Encoder, v any) {
			m := v.(StepResp)
			e.Bool(m.Done)
			EncodeNodeRef(e, m.Next)
		},
		func(d *wire.Decoder) (any, error) {
			var m StepResp
			m.Done = d.Bool()
			m.Next = DecodeNodeRef(d)
			return m, nil
		})
	wire.Register(codeGetStateReq,
		GetStateReq{},
		func(*wire.Encoder, any) {},
		func(*wire.Decoder) (any, error) { return GetStateReq{}, nil })
	wire.Register(codeAckResp,
		AckResp{},
		func(*wire.Encoder, any) {},
		func(*wire.Decoder) (any, error) { return AckResp{}, nil })
	wire.Register(codeStateResp,
		StateResp{},
		func(e *wire.Encoder, v any) {
			m := v.(StateResp)
			EncodeNodeRef(e, m.Self)
			EncodeNodeRef(e, m.Predecessor)
			encodeNodeRefs(e, m.Successors)
			encodeNodeRefs(e, m.Fingers)
		},
		func(d *wire.Decoder) (any, error) {
			var m StateResp
			m.Self = DecodeNodeRef(d)
			m.Predecessor = DecodeNodeRef(d)
			m.Successors = decodeNodeRefs(d)
			m.Fingers = decodeNodeRefs(d)
			return m, nil
		})
	wire.Register(codeNotifyReq,
		NotifyReq{},
		func(e *wire.Encoder, v any) {
			EncodeNodeRef(e, v.(NotifyReq).Candidate)
		},
		func(d *wire.Decoder) (any, error) {
			return NotifyReq{Candidate: DecodeNodeRef(d)}, nil
		})
	wire.Register(codePingReq,
		PingReq{},
		func(*wire.Encoder, any) {},
		func(*wire.Decoder) (any, error) { return PingReq{}, nil })
	wire.Register(codePingResp,
		PingResp{},
		func(e *wire.Encoder, v any) {
			EncodeNodeRef(e, v.(PingResp).Self)
		},
		func(d *wire.Decoder) (any, error) {
			return PingResp{Self: DecodeNodeRef(d)}, nil
		})
	wire.Register(codeProbeSplitReq,
		ProbeSplitReq{},
		func(*wire.Encoder, any) {},
		func(*wire.Decoder) (any, error) { return ProbeSplitReq{}, nil })
	wire.Register(codeProbeSplitResp,
		ProbeSplitResp{},
		func(e *wire.Encoder, v any) {
			e.Uvarint(uint64(v.(ProbeSplitResp).AssignedID))
		},
		func(d *wire.Decoder) (any, error) {
			return ProbeSplitResp{AssignedID: ident.ID(d.Uvarint())}, nil
		})
	wire.Register(codeLeaveReq,
		LeaveReq{},
		func(e *wire.Encoder, v any) {
			m := v.(LeaveReq)
			EncodeNodeRef(e, m.Departing)
			EncodeNodeRef(e, m.Predecessor)
			encodeNodeRefs(e, m.Successors)
		},
		func(d *wire.Decoder) (any, error) {
			var m LeaveReq
			m.Departing = DecodeNodeRef(d)
			m.Predecessor = DecodeNodeRef(d)
			m.Successors = decodeNodeRefs(d)
			return m, nil
		})
	wire.Register(codeBroadcastMsg,
		BroadcastMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(BroadcastMsg)
			EncodeNodeRef(e, m.Origin)
			e.Uvarint(uint64(m.Limit))
			e.String(m.Type)
			e.Bytes(m.Payload)
			e.Varint(int64(m.Hops))
		},
		func(d *wire.Decoder) (any, error) {
			var m BroadcastMsg
			m.Origin = DecodeNodeRef(d)
			m.Limit = ident.ID(d.Uvarint())
			m.Type = d.String()
			m.Payload = d.Bytes()
			m.Hops = int(d.Varint())
			return m, nil
		})
}
