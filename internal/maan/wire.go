package maan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Compact-codec payload codes (DESIGN.md §11). The MAAN layer owns
// wire.CodeMAANBase..+15; codes are wire-format constants — never
// renumber a shipped one. These messages also carry the gma layer's
// Resource descriptions (a producer's sensor snapshot), so the nested
// codecs below are the gma service's wire format too.
//
// +1 and +2 are retired: they were RangeReq and ResultMsg while those
// carried their results as a decoded resource list.
const (
	codeStoreReq     = wire.CodeMAANBase + 0
	codeReplicateMsg = wire.CodeMAANBase + 3
	codeRangeReq     = wire.CodeMAANBase + 4
	codeResultMsg    = wire.CodeMAANBase + 5
)

// encodeResource writes a Resource with its maps in sorted key order,
// so encoding is deterministic (taps, tests, and traces all see stable
// bytes for one value).
func encodeResource(e *wire.Encoder, r Resource) {
	e.String(r.Name)
	e.Uvarint(uint64(len(r.Values)))
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.String(k)
		e.Float64(r.Values[k])
	}
	e.Uvarint(uint64(len(r.Strings)))
	keys = keys[:0]
	for k := range r.Strings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.String(k)
		e.String(r.Strings[k])
	}
}

// decodeResource reads one record. Attribute names the schema declares
// share the schema's strings; a nil schema shares nothing.
func decodeResource(d *wire.Decoder, s *Schema) Resource {
	var r Resource
	r.Name = d.String()
	if n := d.Uvarint(); d.Err == nil && n > 0 {
		r.Values = make(map[string]float64, mapSizeHint(d, n))
		for i := uint64(0); d.Err == nil && i < n; i++ {
			k := s.attrName(d.View())
			r.Values[k] = d.Float64()
		}
	}
	if n := d.Uvarint(); d.Err == nil && n > 0 {
		r.Strings = make(map[string]string, mapSizeHint(d, n))
		for i := uint64(0); d.Err == nil && i < n; i++ {
			k := s.attrName(d.View())
			r.Strings[k] = d.String()
		}
	}
	return r
}

// attrName spells b as a string: the schema's own for an attribute it
// declares, a fresh copy otherwise (and always for a nil schema).
func (s *Schema) attrName(b []byte) string {
	if s != nil {
		if a, ok := s.attrs[string(b)]; ok {
			return a.Name
		}
	}
	return string(b)
}

// mapSizeHint caps a length prefix by what the remaining frame could
// possibly hold (1 byte per entry at minimum), so a forged prefix
// cannot pre-allocate unbounded memory.
func mapSizeHint(d *wire.Decoder, n uint64) int {
	if max := uint64(len(d.Buf)-d.Off) + 1; n > max {
		n = max
	}
	return int(n)
}

func encodePredicate(e *wire.Encoder, p Predicate) {
	e.String(p.Attr)
	e.Float64(p.Lo)
	e.Float64(p.Hi)
	e.String(p.Equal)
	e.Bool(p.Exact)
}

func decodePredicate(d *wire.Decoder) Predicate {
	var p Predicate
	p.Attr = d.InternedString()
	p.Lo = d.Float64()
	p.Hi = d.Float64()
	p.Equal = d.String()
	p.Exact = d.Bool()
	return p
}

// minRecordBytes is the shortest record: an empty name and two zero
// map counts.
const minRecordBytes = 3

// Records is a result set in wire form: N records, each laid out as
// encodeResource writes it, back to back in Run. The owner of a
// resource encodes its record once; every node on the walk appends its
// own records to what it received without parsing it, and only the
// query's originator decodes — so a forwarder trusts neither N nor Run,
// and the originator checks both (decode).
type Records struct {
	N   int
	Run []byte
}

// RecordsOf encodes the resources as a result set, in the given order:
// what a walk that matched exactly these would deliver.
func RecordsOf(rs ...Resource) Records {
	var e wire.Encoder
	for _, r := range rs {
		encodeResource(&e, r)
	}
	return Records{N: len(rs), Run: e.Buf}
}

// with returns r extended by recs (size bytes in all). It never writes
// into r.Run: a duplicated delivery, or the sender itself on the
// in-memory networks, may still hold those bytes.
func (r Records) with(recs [][]byte, size int) Records {
	if len(recs) == 0 {
		return r
	}
	run := make([]byte, len(r.Run), len(r.Run)+size)
	copy(run, r.Run)
	for _, rec := range recs {
		run = append(run, rec...)
	}
	return Records{N: r.N + len(recs), Run: run}
}

// decode parses the run into resources sorted by name. Nodes on the
// walk do not compare what they add with what they carry, so a
// resource whose value moved can appear twice (the stale entry at its
// old owner, the fresh one at the new); the first record in walk order
// wins. A run that does not hold exactly N well-formed records is an
// error, and N is checked against the bytes present before anything is
// sized by it.
func (r Records) decode(s *Schema) ([]Resource, error) {
	if r.N < 0 || r.N > len(r.Run)/minRecordBytes {
		return nil, fmt.Errorf("maan: %d records claimed in %d bytes", r.N, len(r.Run))
	}
	d := wire.Decoder{Buf: r.Run}
	var out []Resource
	if r.N > 0 {
		out = make([]Resource, 0, r.N)
	}
	for i := 0; i < r.N; i++ {
		out = append(out, decodeResource(&d, s))
		if d.Err != nil {
			return nil, fmt.Errorf("maan: record %d of %d: %w", i, r.N, d.Err)
		}
	}
	if d.Off != len(r.Run) {
		return nil, fmt.Errorf("maan: %d bytes after the last of %d records", len(r.Run)-d.Off, r.N)
	}
	// A stable sort keeps records of one name in walk order.
	slices.SortStableFunc(out, func(a, b Resource) int { return strings.Compare(a.Name, b.Name) })
	return slices.CompactFunc(out, func(a, b Resource) bool { return a.Name == b.Name }), nil
}

func encodeRecords(e *wire.Encoder, r Records) {
	e.Uvarint(uint64(r.N))
	e.Bytes(r.Run)
}

func decodeRecords(d *wire.Decoder) Records {
	return Records{N: int(d.Uvarint()), Run: d.Bytes()}
}

func init() {
	// Hand-written compact codecs for the MAAN directory messages.
	wire.Register(codeStoreReq,
		StoreReq{},
		func(e *wire.Encoder, v any) {
			m := v.(StoreReq)
			e.String(m.Attr)
			e.Float64(m.Value)
			e.Uvarint(uint64(m.Key))
			encodeResource(e, m.Res)
		},
		func(d *wire.Decoder) (any, error) {
			var m StoreReq
			m.Attr = d.String()
			m.Value = d.Float64()
			m.Key = ident.ID(d.Uvarint())
			m.Res = decodeResource(d, nil)
			return m, nil
		})
	wire.Register(codeRangeReq,
		RangeReq{},
		func(e *wire.Encoder, v any) {
			m := v.(RangeReq)
			e.Uvarint(m.QueryID)
			e.String(string(m.Origin))
			encodePredicate(e, m.Pred)
			e.Uvarint(uint64(len(m.Filter)))
			for _, p := range m.Filter {
				encodePredicate(e, p)
			}
			e.Uvarint(uint64(m.LoKey))
			e.Uvarint(uint64(m.HiKey))
			e.String(string(m.Start))
			encodeRecords(e, m.Found)
			e.Varint(int64(m.Hops))
			e.Bool(m.Final)
		},
		func(d *wire.Decoder) (any, error) {
			var m RangeReq
			m.QueryID = d.Uvarint()
			m.Origin = transport.Addr(d.InternedString())
			m.Pred = decodePredicate(d)
			if n := d.Uvarint(); d.Err == nil && n > 0 {
				m.Filter = make([]Predicate, 0, mapSizeHint(d, n))
				for i := uint64(0); d.Err == nil && i < n; i++ {
					m.Filter = append(m.Filter, decodePredicate(d))
				}
				if d.Err != nil {
					m.Filter = nil
				}
			}
			m.LoKey = ident.ID(d.Uvarint())
			m.HiKey = ident.ID(d.Uvarint())
			m.Start = transport.Addr(d.InternedString())
			m.Found = decodeRecords(d)
			m.Hops = int(d.Varint())
			m.Final = d.Bool()
			return m, nil
		})
	wire.Register(codeResultMsg,
		ResultMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(ResultMsg)
			e.Uvarint(m.QueryID)
			encodeRecords(e, m.Found)
			e.Varint(int64(m.Hops))
			e.String(m.Err)
		},
		func(d *wire.Decoder) (any, error) {
			var m ResultMsg
			m.QueryID = d.Uvarint()
			m.Found = decodeRecords(d)
			m.Hops = int(d.Varint())
			m.Err = d.String()
			return m, nil
		})
	wire.Register(codeReplicateMsg,
		ReplicateMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(ReplicateMsg)
			e.String(string(m.Owner))
			e.Uvarint(uint64(len(m.Entries)))
			for _, en := range m.Entries {
				e.String(en.Attr)
				e.Uvarint(uint64(en.Key))
				e.Float64(en.Value)
				encodeResource(e, en.Res)
			}
		},
		func(d *wire.Decoder) (any, error) {
			var m ReplicateMsg
			m.Owner = transport.Addr(d.String())
			if n := d.Uvarint(); d.Err == nil && n > 0 {
				m.Entries = make([]WireEntry, 0, mapSizeHint(d, n))
				for i := uint64(0); d.Err == nil && i < n; i++ {
					var en WireEntry
					en.Attr = d.String()
					en.Key = ident.ID(d.Uvarint())
					en.Value = d.Float64()
					en.Res = decodeResource(d, nil)
					m.Entries = append(m.Entries, en)
				}
				if d.Err != nil {
					m.Entries = nil
				}
			}
			return m, nil
		})
}
