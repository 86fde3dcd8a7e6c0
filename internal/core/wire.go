package core

import (
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Compact-codec payload codes (DESIGN.md §11). The core layer owns
// wire.CodeCoreBase..+15; codes are wire-format constants — never
// renumber a shipped one. +1 and +2 were a bare DetachMsg and a bare
// UpdateAck: both now travel only inside a batch, and the numbers stay
// reserved, never reused.
const (
	codeUpdateMsg  = wire.CodeCoreBase + 0
	codeQueryReq   = wire.CodeCoreBase + 3
	codeQueryResp  = wire.CodeCoreBase + 4
	codeCollectMsg = wire.CodeCoreBase + 5
	codeResultMsg  = wire.CodeCoreBase + 6
	codeBatchMsg   = wire.CodeCoreBase + 7
	codeBatchAck   = wire.CodeCoreBase + 8
)

func encodeAggregate(e *wire.Encoder, a Aggregate) {
	e.Float64(a.Sum)
	e.Float64(a.SumSq)
	e.Uvarint(a.Count)
	e.Float64(a.Min)
	e.Float64(a.Max)
	e.Bool(a.Degraded)
	e.Float64(a.Coverage)
}

func decodeAggregate(d *wire.Decoder) Aggregate {
	var a Aggregate
	a.Sum = d.Float64()
	a.SumSq = d.Float64()
	a.Count = d.Uvarint()
	a.Min = d.Float64()
	a.Max = d.Float64()
	a.Degraded = d.Bool()
	a.Coverage = d.Float64()
	return a
}

// The UpdateMsg/DetachMsg/UpdateAck field codecs below are what a
// BatchElem and a BatchAck are built from. UpdateMsg's is also
// registered on its own: the benchmark's codec drivers time a bare one.

func encodeUpdateBody(e *wire.Encoder, m UpdateMsg) {
	e.Uvarint(uint64(m.Key))
	e.Varint(m.Epoch)
	encodeAggregate(e, m.Agg)
	e.Uvarint(m.Nodes)
	e.Varint(int64(m.Height))
	e.Varint(m.Slot)
	chord.EncodeNodeRef(e, m.Sender)
	e.Bool(m.Demand)
	e.Uvarint(m.Trace)
	e.Varint(m.SentAt)
	e.Uvarint(m.Seq)
	e.Bool(m.Handover)
	e.String(string(m.FailedRoot))
}

func decodeUpdateBody(d *wire.Decoder) UpdateMsg {
	var m UpdateMsg
	m.Key = ident.ID(d.Uvarint())
	m.Epoch = d.Varint()
	m.Agg = decodeAggregate(d)
	m.Nodes = d.Uvarint()
	m.Height = int(d.Varint())
	m.Slot = d.Varint()
	m.Sender = chord.DecodeNodeRef(d)
	m.Demand = d.Bool()
	m.Trace = d.Uvarint()
	m.SentAt = d.Varint()
	m.Seq = d.Uvarint()
	m.Handover = d.Bool()
	m.FailedRoot = transport.Addr(d.InternedString()) // a peer's address, like Sender's
	return m
}

func encodeDetachBody(e *wire.Encoder, m DetachMsg) {
	e.Uvarint(uint64(m.Key))
	chord.EncodeNodeRef(e, m.Sender)
}

func decodeDetachBody(d *wire.Decoder) DetachMsg {
	var m DetachMsg
	m.Key = ident.ID(d.Uvarint())
	m.Sender = chord.DecodeNodeRef(d)
	return m
}

func encodeAckBody(e *wire.Encoder, m UpdateAck) {
	e.Bool(m.OK)
	e.String(m.Reason)
}

func decodeAckBody(d *wire.Decoder) UpdateAck {
	var m UpdateAck
	m.OK = d.Bool()
	m.Reason = d.String()
	return m
}

// minBatchElemBytes is the fewest bytes one BatchElem encodes to (every
// field zero); TestMinBatchElemBytes derives it from the codec.
const minBatchElemBytes = 59

// decodeBatchElems follows the shared slice-decoding idiom: a zero
// count decodes to nil (matching gob's empty-slice normalization) and
// the preallocation is capped by what the remaining buffer could hold
// against forged length prefixes — in elements, not bytes: a BatchElem
// is several times larger in memory than on the wire.
func decodeBatchElems(d *wire.Decoder) []BatchElem {
	n := d.Uvarint()
	if d.Err != nil || n == 0 {
		return nil
	}
	if max := uint64(len(d.Buf)-d.Off)/minBatchElemBytes + 1; n > max {
		n = max
	}
	elems := make([]BatchElem, 0, n)
	for i := uint64(0); d.Err == nil && i < n; i++ {
		var el BatchElem
		el.Kind = d.Byte()
		el.Update = decodeUpdateBody(d)
		el.Detach = decodeDetachBody(d)
		elems = append(elems, el)
	}
	if d.Err != nil {
		return nil
	}
	return elems
}

func decodeAcks(d *wire.Decoder) []UpdateAck {
	n := d.Uvarint()
	if d.Err != nil || n == 0 {
		return nil
	}
	if max := uint64(len(d.Buf)-d.Off)/2 + 1; n > max {
		n = max
	}
	acks := make([]UpdateAck, 0, n)
	for i := uint64(0); d.Err == nil && i < n; i++ {
		acks = append(acks, decodeAckBody(d))
	}
	if d.Err != nil {
		return nil
	}
	return acks
}

func init() {
	// Hand-written compact codecs for the DAT aggregation messages —
	// an update is the single hottest payload on the wire, so its
	// encoding is the one the allocation-regression test and
	// BenchmarkWireVsGob pin down.
	wire.Register(codeUpdateMsg,
		UpdateMsg{},
		func(e *wire.Encoder, v any) { encodeUpdateBody(e, v.(UpdateMsg)) },
		func(d *wire.Decoder) (any, error) { return decodeUpdateBody(d), nil })
	wire.Register(codeBatchMsg,
		BatchMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(BatchMsg)
			e.Uvarint(uint64(len(m.Elems)))
			for _, el := range m.Elems {
				e.Byte(el.Kind)
				encodeUpdateBody(e, el.Update)
				encodeDetachBody(e, el.Detach)
			}
		},
		func(d *wire.Decoder) (any, error) {
			var m BatchMsg
			m.Elems = decodeBatchElems(d)
			return m, nil
		})
	wire.Register(codeBatchAck,
		BatchAck{},
		func(e *wire.Encoder, v any) {
			m := v.(BatchAck)
			e.Uvarint(uint64(len(m.Acks)))
			for _, a := range m.Acks {
				encodeAckBody(e, a)
			}
		},
		func(d *wire.Decoder) (any, error) {
			var m BatchAck
			m.Acks = decodeAcks(d)
			return m, nil
		})
	wire.Register(codeQueryReq,
		QueryReq{},
		func(e *wire.Encoder, v any) {
			m := v.(QueryReq)
			e.Uvarint(uint64(m.Key))
			e.Varint(int64(m.Window))
		},
		func(d *wire.Decoder) (any, error) {
			var m QueryReq
			m.Key = ident.ID(d.Uvarint())
			m.Window = time.Duration(d.Varint())
			return m, nil
		})
	wire.Register(codeQueryResp,
		QueryResp{},
		func(e *wire.Encoder, v any) {
			m := v.(QueryResp)
			e.Uvarint(uint64(m.Key))
			e.Varint(m.Epoch)
			encodeAggregate(e, m.Agg)
			e.Uvarint(m.Nodes)
			e.Float64(m.Coverage)
			e.Bool(m.Degraded)
		},
		func(d *wire.Decoder) (any, error) {
			var m QueryResp
			m.Key = ident.ID(d.Uvarint())
			m.Epoch = d.Varint()
			m.Agg = decodeAggregate(d)
			m.Nodes = d.Uvarint()
			m.Coverage = d.Float64()
			m.Degraded = d.Bool()
			return m, nil
		})
	wire.Register(codeCollectMsg,
		collectMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(collectMsg)
			e.Uvarint(uint64(m.Key))
			e.Varint(m.Epoch)
			chord.EncodeNodeRef(e, m.Root)
		},
		func(d *wire.Decoder) (any, error) {
			var m collectMsg
			m.Key = ident.ID(d.Uvarint())
			m.Epoch = d.Varint()
			m.Root = chord.DecodeNodeRef(d)
			return m, nil
		})
	wire.Register(codeResultMsg,
		resultMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(resultMsg)
			e.Uvarint(uint64(m.Key))
			e.Varint(m.Slot)
			encodeAggregate(e, m.Agg)
		},
		func(d *wire.Decoder) (any, error) {
			var m resultMsg
			m.Key = ident.ID(d.Uvarint())
			m.Slot = d.Varint()
			m.Agg = decodeAggregate(d)
			return m, nil
		})
}
