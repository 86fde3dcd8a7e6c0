package wire_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// entropy is a deterministic byte stream over the fuzz input: exhausted
// input yields zeros, so every prefix of the corpus is a valid seed.
type entropy struct {
	b []byte
	i int
}

func (s *entropy) byte() byte {
	if s.i >= len(s.b) {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return v
}

func (s *entropy) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

func (s *entropy) f64() float64 {
	v := math.Float64frombits(s.u64())
	// NaN breaks reflect.DeepEqual (NaN != NaN), and both codecs carry
	// it bit-exactly anyway; substitute a finite value.
	if math.IsNaN(v) {
		return 0.5
	}
	return v
}

func (s *entropy) str() string {
	n := int(s.byte()) % 9
	b := make([]byte, n)
	for i := range b {
		b[i] = s.byte()
	}
	return string(b)
}

// fill populates v (an addressable reflect.Value) from the entropy
// stream. Slices and maps are only created non-empty: gob round-trips
// empty collections to nil, so a filler that produced empty non-nil
// maps would manufacture spurious DeepEqual mismatches unrelated to the
// codec under test.
func fill(v reflect.Value, s *entropy) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(s.byte()&1 == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(s.u64()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(s.u64())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(s.f64())
	case reflect.String:
		v.SetString(s.str())
	case reflect.Slice:
		if n := int(s.byte()) % 4; n > 0 {
			sl := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				fill(sl.Index(i), s)
			}
			v.Set(sl)
		}
	case reflect.Map:
		if n := int(s.byte()) % 4; n > 0 {
			m := reflect.MakeMapWithSize(v.Type(), n)
			for i := 0; i < n; i++ {
				k := reflect.New(v.Type().Key()).Elem()
				fill(k, s)
				mv := reflect.New(v.Type().Elem()).Elem()
				fill(mv, s)
				m.SetMapIndex(k, mv)
			}
			v.Set(m)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(f, s)
			}
		}
	case reflect.Ptr:
		if s.byte()&1 == 1 {
			p := reflect.New(v.Type().Elem())
			fill(p.Elem(), s)
			v.Set(p)
		}
	}
}

// FuzzWireRoundTrip drives two properties off one input:
//
//  1. Decode never panics on arbitrary bytes — a malformed datagram must
//     not take a node down.
//  2. For every registered payload type, a value filled from the input
//     round-trips through the compact codec to exactly what a gob round
//     trip (the reference oracle) produces.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{wire.Magic, wire.Version, 2, 7, 1, 't', 1, 'a', 0, 0})
	f.Add([]byte{wire.Magic, wire.Version, 0, 0, 0, 0, 0, 0x20})
	f.Add([]byte{0x22, 0xff, 0x81, 0x03, 0x01, 0x01})
	for _, payload := range richSamples() {
		env := wire.Envelope{Kind: 2, Seq: 3, Type: "fuzz", From: "a", Payload: payload}
		if data, _, err := (wire.Compact{}).Append(nil, &env); err == nil {
			f.Add(data)
		}
	}
	for _, h := range hostileFrames(f) {
		f.Add(h.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: arbitrary bytes never panic, and whatever decodes
		// must re-encode cleanly.
		env, _, err := wire.Compact{}.Decode(data)
		if err == nil {
			if _, _, err := (wire.Compact{}).Append(nil, &env); err != nil {
				t.Fatalf("decoded envelope failed to re-encode: %v", err)
			}
		}

		// Property 2: entropy-filled values of every registered type
		// round-trip identically through the compact codec and gob.
		s := &entropy{b: data}
		for _, sample := range wire.Samples() {
			v := reflect.New(reflect.TypeOf(sample)).Elem()
			fill(v, s)
			payload := v.Interface()
			w := wireRoundTrip(t, payload)
			g := gobRoundTrip(t, payload)
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("codec mismatch for %T:\nvalue %#v\nwire  %#v\ngob   %#v", payload, payload, w, g)
			}
		}
	})
}

// TestFillerCoversRegistry makes the fuzz filler's coverage visible in
// a plain test run: a type whose kind the filler cannot populate (e.g.
// a chan or func field added to a payload) fails here, not silently in
// the fuzz corpus.
func TestFillerCoversRegistry(t *testing.T) {
	seed := make([]byte, 512)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	for _, sample := range wire.Samples() {
		typ := reflect.TypeOf(sample)
		if typ.Kind() == reflect.Struct && typ.NumField() == 0 {
			continue // nothing to fill (PingReq and friends)
		}
		v := reflect.New(typ).Elem()
		fill(v, &entropy{b: seed})
		if reflect.DeepEqual(v.Interface(), sample) {
			t.Errorf("filler left %T at its zero value; add its field kinds to fill()", sample)
		}
	}
}
