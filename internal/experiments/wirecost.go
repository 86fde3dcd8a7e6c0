package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/maan"
	"repro/internal/wire"
)

// WireCodecConfig parameterizes the codec-cost table. The zero value
// measures every representative message with enough iterations for
// stable allocation counts.
type WireCodecConfig struct {
	// Iters is the AllocsPerRun iteration count. Default 200.
	Iters int
}

// wireCodecMessage is one representative datagram payload: the messages
// whose per-datagram cost the paper's overhead argument (§5) actually
// budgets. UpdateMsg is the hot path (one per child per slot).
type wireCodecMessage struct {
	name    string
	payload any
}

func wireCodecMessages() []wireCodecMessage {
	sender := chord.NodeRef{ID: 0xBEEF, Addr: "10.0.0.7:9001"}
	agg := core.Aggregate{Sum: 812.5, SumSq: 66430.25, Count: 64, Min: 0.25, Max: 31.5, Coverage: 0.984}
	res := maan.Resource{
		Name:    "node-17.site.grid",
		Values:  map[string]float64{"cpu-speed": 2.8, "cpu-usage": 42.5, "memory-size": 2048},
		Strings: map[string]string{"os-name": "linux"},
	}
	return []wireCodecMessage{
		{"UpdateMsg", core.UpdateMsg{
			Key: 0x42, Epoch: 812, Agg: agg, Nodes: 64, Height: 3, Slot: int64(15 * time.Second),
			Sender: sender, Trace: 0xDEADBEEF, SentAt: 1700000000123456789, Seq: 4,
		}},
		{"UpdateAck", core.UpdateAck{OK: true}},
		{"QueryResp", core.QueryResp{Key: 0x42, Epoch: 812, Agg: agg, Nodes: 64, Coverage: 0.984}},
		{"StepReq", chord.StepReq{Key: 0x7fffffff}},
		{"StateResp", chord.StateResp{
			Self: sender, Predecessor: sender,
			Successors: []chord.NodeRef{sender, sender, sender, sender},
			Fingers:    []chord.NodeRef{sender, sender, sender},
		}},
		{"RangeReq", maan.RangeReq{
			QueryID: 7, Origin: "10.0.0.7:9001", Pred: maan.Range("cpu-usage", 10, 90),
			LoKey: 100, HiKey: 9000, Start: "10.0.0.8:9001", Found: maan.RecordsOf(res), Hops: 3,
		}},
	}
}

// WireCodecCost measures, per representative message, the encoded
// envelope size and the encode-path allocations of the compact wire
// codec against the legacy per-datagram gob path it replaced. The byte
// and allocation ratios are the paper-facing numbers: the same protocol
// traffic at a fraction of the datagram budget.
func WireCodecCost(cfg WireCodecConfig) (*Table, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 200
	}
	t := &Table{
		ID:    "wirecodec",
		Title: "Wire codec vs per-datagram gob: encoded bytes and allocations per message",
		Columns: []string{
			"message", "wire_bytes_op", "gob_bytes_op", "byte_ratio",
			"wire_allocs_op", "gob_allocs_op", "alloc_ratio",
		},
	}
	for _, m := range wireCodecMessages() {
		env := wire.Envelope{Kind: 2, Seq: 99, Type: "dat.update", From: "10.0.0.7:9001", Payload: m.payload}

		wireData, fallback, err := wire.Compact{}.Append(nil, &env)
		if err != nil {
			return nil, fmt.Errorf("wirecodec: compact encode %s: %w", m.name, err)
		}
		if fallback {
			return nil, fmt.Errorf("wirecodec: %s is not wire-registered", m.name)
		}
		gobData, _, err := wire.Legacy{}.Append(nil, &env)
		if err != nil {
			return nil, fmt.Errorf("wirecodec: gob encode %s: %w", m.name, err)
		}

		buf := make([]byte, 0, 2*len(gobData))
		wireAllocs := testing.AllocsPerRun(cfg.Iters, func() {
			if _, _, err := (wire.Compact{}).Append(buf[:0], &env); err != nil {
				panic(err)
			}
		})
		gobAllocs := testing.AllocsPerRun(cfg.Iters, func() {
			var b bytes.Buffer
			b.Grow(len(gobData))
			if err := gob.NewEncoder(&b).Encode(&env); err != nil {
				panic(err)
			}
		})

		t.Add(m.name,
			len(wireData), len(gobData), float64(len(gobData))/float64(len(wireData)),
			wireAllocs, gobAllocs, allocRatio(gobAllocs, wireAllocs))
	}
	t.Note("wire = internal/wire compact codec (registered payloads, pooled buffers); gob = the replaced whole-envelope encoding/gob path (wire.Legacy)")
	t.Note("bytes are full UDP datagram payloads (envelope included); allocations measured with testing.AllocsPerRun over %d iterations, encode path, warm buffer", cfg.Iters)
	t.Note("ratios are gob/wire: higher means the compact codec saves more; UpdateMsg is the hot path (one datagram per child per slot)")
	return t, nil
}

// allocRatio guards the zero-allocation encode case (ratio would be
// +Inf, which JSON cannot carry).
func allocRatio(gobAllocs, wireAllocs float64) float64 {
	if wireAllocs == 0 {
		wireAllocs = 0.5 // report against half an allocation instead of dividing by zero
	}
	return gobAllocs / wireAllocs
}
