package wire_test

// Allocation-regression tests on the encode/decode hot path (run by
// make ci via the plain test target). The continuous protocol sends an
// UpdateMsg per child per slot; the codec was written so that encoding
// into a reused buffer stays allocation-free and decoding costs only
// the envelope strings and the payload box. These tests pin that.

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/wire"
)

// updateEnvelope is a representative MsgUpdate datagram: the hot-path
// message of the continuous aggregation protocol.
func updateEnvelope() wire.Envelope {
	return wire.Envelope{
		Kind: 2, Seq: 42, Type: "dat.update", From: "127.0.0.1:9001",
		Payload: core.UpdateMsg{
			Key: 42, Epoch: 1234, Agg: core.Aggregate{Sum: 101.5, SumSq: 5002.3, Count: 17, Min: 1.25, Max: 9.75, Coverage: 0.9},
			Nodes: 17, Height: 3, Slot: int64(2 * time.Second),
			Sender: chord.NodeRef{ID: 7777, Addr: "127.0.0.1:9001"},
			Trace:  0xdeadbeef, SentAt: 1700000000, Seq: 6,
		},
	}
}

// Budgets. Encode should be zero-alloc with a warm buffer; the small
// slack absorbs an Encoder escaping to the heap under a conservative
// build. Decode pays for the payload box and the decoder; the two
// header strings and the sender's address come from the intern table
// (the address repeats in every element of a batch — it cost a string
// per element until PR 16 lowered this pin from 4, measured 3, to 2).
// Gob, for comparison, costs ~25 allocations per encode and more per
// decode (BenchmarkWireVsGob records both).
const (
	maxEncodeAllocs = 2
	maxDecodeAllocs = 2
)

func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	env := updateEnvelope()
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		data, _, err := wire.Compact{}.Append(buf[:0], &env)
		if err != nil || len(data) == 0 {
			t.Fatalf("encode: %v", err)
		}
	})
	if allocs > maxEncodeAllocs {
		t.Errorf("encode allocates %.1f/op into a warm buffer; budget is %d", allocs, maxEncodeAllocs)
	}
}

func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	env := updateEnvelope()
	data, _, err := wire.Compact{}.Append(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := (wire.Compact{}).Decode(data); err != nil {
			t.Fatalf("decode: %v", err)
		}
	})
	if allocs > maxDecodeAllocs {
		t.Errorf("decode allocates %.1f/op; budget is %d", allocs, maxDecodeAllocs)
	}
}

// TestBufPoolAllocs pins the pooled encode buffer at zero allocations
// per GetBuf/PutBuf cycle: every datagram sent pays for one.
func TestBufPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf := wire.GetBuf()
		buf = append(buf, "a datagram's worth of bytes"...)
		wire.PutBuf(buf)
	})
	if allocs != 0 {
		t.Errorf("GetBuf/PutBuf allocates %.1f per cycle", allocs)
	}
}

// BenchmarkWireVsGob pits the codec against the gob oracle on the
// hot-path datagram. Run with -benchmem; encoded-bytes/op is the
// datagram size, not heap traffic.
func BenchmarkWireVsGob(b *testing.B) {
	env := updateEnvelope()
	codecs := []struct {
		name   string
		encode func(dst []byte) []byte
		decode func(data []byte) error
	}{
		{"wire",
			func(dst []byte) []byte {
				data, _, _ := wire.Compact{}.Append(dst, &env)
				return data
			},
			func(data []byte) error {
				_, _, err := wire.Compact{}.Decode(data)
				return err
			}},
		{"gob",
			func(dst []byte) []byte {
				buf := bytes.NewBuffer(dst)
				if gob.NewEncoder(buf).Encode(&env) != nil {
					return nil
				}
				return buf.Bytes()
			},
			func(data []byte) error {
				var out wire.Envelope
				return gob.NewDecoder(bytes.NewReader(data)).Decode(&out)
			}},
	}
	for _, c := range codecs {
		data := c.encode(nil)
		buf := make([]byte, 0, 2*len(data))
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(c.encode(buf[:0])) == 0 {
					b.Fatal("encode failed")
				}
			}
			b.ReportMetric(float64(len(data)), "encoded-bytes/op")
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decode(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "encoded-bytes/op")
		})
	}
}
