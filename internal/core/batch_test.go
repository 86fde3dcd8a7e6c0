package core

// The receiving side of MsgBatch, the one door for child updates: what a
// hostile datagram can cost its decoder, what a one-way batch leaves
// behind, what a handover's hearsay may not do, and a fuzz target that checks handleBatch against a model of
// its verdicts.

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/wire"
)

func encodeBatch(t testing.TB, bm BatchMsg) []byte {
	t.Helper()
	b, err := wire.EncodePayload(bm)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// forgedCountFrame is a BatchMsg payload of size bytes whose length
// prefix claims 2^20 elements, followed by fill.
func forgedCountFrame(size int, fill byte) []byte {
	e := wire.Encoder{}
	e.Byte(codeBatchMsg)
	e.Uvarint(1 << 20)
	return append(e.Buf, bytes.Repeat([]byte{fill}, size-len(e.Buf))...)
}

// TestMinBatchElemBytes derives the decoder's preallocation divisor from
// the codec, so a field added to an element cannot leave it stale: an
// all-zero element is the shortest there is (varints and empty strings
// take one byte, floats a fixed eight).
func TestMinBatchElemBytes(t *testing.T) {
	one := encodeBatch(t, BatchMsg{Elems: make([]BatchElem, 1)})
	two := encodeBatch(t, BatchMsg{Elems: make([]BatchElem, 2)})
	if got := len(two) - len(one); got != minBatchElemBytes {
		t.Fatalf("a zero BatchElem encodes in %d bytes; minBatchElemBytes is %d", got, minBatchElemBytes)
	}
}

// TestForgedBatchCountAllocatesLittle: a frame cannot make its decoder
// allocate more elements than it has bytes for. An element is ~216 B in
// memory, so capping the count by bytes/2 let one 64 KiB datagram
// preallocate 7 MB before its first element failed to decode.
func TestForgedBatchCountAllocatesLittle(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill byte
	}{
		{"first-elem-malformed", 0xff},
		{"elems-run-out", 0}, // ~1 100 zero elements decode, then the frame ends
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := forgedCountFrame(64<<10, tc.fill) // the largest datagram there is
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err := wire.DecodePayload(frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("a frame with 2^20 claimed elements decoded to %T", v)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 512<<10 {
				t.Errorf("decoding a %d-byte frame allocated %d bytes; budget is 512 KiB", len(frame), grew)
			}
		})
	}
}

// TestOneWayDetachBatch: the failover courtesy detach travels as a
// one-way one-element MsgBatch. The receiver drops the child and puts
// nothing on the wire in return.
func TestOneWayDetachBatch(t *testing.T) {
	r := newWarmRing(t, 1, NodeConfig{})
	key := r.keys[0]
	r.eng.RunFor(3500 * time.Millisecond) // past the third round's acks, short of the fourth tick
	parent, child := -1, transport.Addr("")
	for i, d := range r.dats {
		if kids := d.ChildrenInfo(key); len(kids) > 0 {
			parent, child = i, kids[0].Addr
			break
		}
	}
	if parent < 0 {
		t.Fatal("no node of the warm ring has a child")
	}
	var from transport.Endpoint
	for _, d := range r.dats {
		if d.ep.Addr() == child {
			from = d.ep
		}
	}
	type datagram struct {
		from, to transport.Addr
		typ      string
		oneWay   bool
	}
	var seen []datagram
	r.net.SetTap(transport.TapFunc(func(from, to transport.Addr, typ string, oneWay bool) {
		seen = append(seen, datagram{from, to, typ, oneWay})
	}))
	bm := BatchMsg{Elems: []BatchElem{{Kind: batchKindDetach, Detach: DetachMsg{Key: key}}}}
	if err := from.Send(r.dats[parent].ep.Addr(), MsgBatch, bm); err != nil {
		t.Fatal(err)
	}
	r.eng.RunFor(100 * time.Millisecond)
	for _, k := range r.dats[parent].ChildrenInfo(key) {
		if k.Addr == child {
			t.Errorf("%s is still a child after its detach", child)
		}
	}
	want := datagram{child, r.dats[parent].ep.Addr(), MsgBatch, true}
	if len(seen) != 1 || seen[0] != want {
		t.Errorf("datagrams = %+v, want only %+v: a one-way batch is not answered", seen, want)
	}
}

// TestHandoverHearsayStrikesNobody: a handover update names the root its
// sender could not reach. That is a third node's claim, not this node's
// evidence, so two of them naming a live neighbour — forged or mistaken
// — must leave the neighbour in the receiver's routing tables.
func TestHandoverHearsayStrikesNobody(t *testing.T) {
	r := newWarmRing(t, 1, NodeConfig{})
	n := r.dats[0]
	neighbour := n.ch.Successor().Addr
	um := testUpdate(1)
	um.Key, um.Slot = r.keys[0], int64(time.Second)
	um.Handover, um.FailedRoot = true, neighbour
	for i := 0; i < 2; i++ {
		bm := BatchMsg{Elems: []BatchElem{{Kind: batchKindUpdate, Update: um}}}
		n.handleBatch(transport.NewRequest("sim/stranger", MsgBatch, bm, func(any, error) {}))
	}
	rt := n.ch.Routing()
	routed := rt.Pred.Addr == neighbour
	for _, ref := range append(append([]chord.NodeRef{}, rt.Succs...), rt.Fingers...) {
		routed = routed || ref.Addr == neighbour
	}
	if !routed {
		t.Fatalf("two handover updates naming %s evicted it from %s's routing tables", neighbour, n.ep.Addr())
	}
}

// FuzzHandleBatch: whatever bytes decode as a BatchMsg are handed to
// handleBatch on a fresh warm ring, from a stranger's address, and the
// reply is checked against a model: one ack per element, "bad-elem" for
// an unknown kind, "no-slot" for an update that would enrol the node
// with a slot below minRemoteSlot, OK for everything else — and exactly
// one new tree per key an accepted continuous update enrols: an
// on-demand element never adds one. The engine never runs: only what
// the handler itself does is under test.
func FuzzHandleBatch(f *testing.F) {
	// The forged-count frames, at a size the fuzzer can still minimise.
	f.Add(forgedCountFrame(1<<10, 0xff))
	f.Add(forgedCountFrame(1<<10, 0))
	um := testUpdate(1)
	f.Add(encodeBatch(f, BatchMsg{}))
	f.Add(encodeBatch(f, BatchMsg{Elems: []BatchElem{{Kind: batchKindUpdate, Update: um}}}))
	um.Slot = 1 // a 1 ns slot would pin the clock loop
	f.Add(encodeBatch(f, BatchMsg{Elems: []BatchElem{{Kind: batchKindUpdate, Update: um}}}))
	um.Slot = int64(time.Second)
	dm := DetachMsg{Key: um.Key, Sender: um.Sender}
	f.Add(encodeBatch(f, BatchMsg{Elems: []BatchElem{
		{Kind: batchKindUpdate, Update: um},
		{Kind: batchKindUpdate, Update: UpdateMsg{Key: 9, Demand: true, Epoch: 4, Seq: 1}},
		{Kind: batchKindDetach, Detach: dm},
		{Kind: 77, Update: um, Detach: dm},
		{Kind: batchKindUpdate, Update: um},
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wire.DecodePayload(data)
		bm, ok := v.(BatchMsg)
		if err != nil || !ok {
			return
		}
		r := newWarmRing(t, 1, NodeConfig{})
		n := r.dats[0]
		const stranger = transport.Addr("sim/stranger") // nobody's parent: never a "cycle"

		enrolled := map[ident.ID]bool{r.keys[0]: true}
		want := make([]UpdateAck, len(bm.Elems))
		newTrees := 0
		for i, el := range bm.Elems {
			want[i] = UpdateAck{OK: true}
			switch u := el.Update; {
			case el.Kind == batchKindDetach:
			case el.Kind != batchKindUpdate:
				want[i] = UpdateAck{Reason: "bad-elem"}
			case u.Demand || enrolled[u.Key]:
			case time.Duration(u.Slot) < minRemoteSlot:
				want[i] = UpdateAck{Reason: "no-slot"}
			default:
				newTrees++
				enrolled[u.Key] = true
			}
		}

		trees := len(n.ActiveKeys())
		replied := false
		n.handleBatch(transport.NewRequest(stranger, MsgBatch, bm, func(payload any, err error) {
			replied = true
			ba, ok := payload.(BatchAck)
			if err != nil || !ok || len(ba.Acks) != len(want) {
				t.Fatalf("%d elements answered %#v, %v", len(want), payload, err)
			}
			for i, ack := range ba.Acks {
				if ack != want[i] {
					t.Errorf("element %d (%+v) answered %+v, want %+v", i, bm.Elems[i], ack, want[i])
				}
			}
		}))
		if !replied {
			t.Fatal("handleBatch did not reply")
		}
		if grew := len(n.ActiveKeys()) - trees; grew != newTrees {
			t.Errorf("the batch enrols %d trees, and grew the tree table by %d", newTrees, grew)
		}
		// The same batch as a one-way datagram: applied, nothing to answer.
		r.dats[1].handleBatch(transport.NewRequest(stranger, MsgBatch, bm, nil))
	})
}

// TestStrangerDemandCannotGrowTables: a stranger's 1 000 on-demand
// updates, each for its own (key, epoch), add no tree row on any node,
// and the epoch buckets they make, at the receiver and at the relays it
// flushes them to, are all gone once their life has passed.
func TestStrangerDemandCannotGrowTables(t *testing.T) {
	r := newWarmRing(t, 1, NodeConfig{})
	n := r.dats[0]
	const stranger = transport.Addr("sim/stranger")
	rows := make([]int, len(r.dats))
	for i, d := range r.dats {
		rows[i] = len(d.ActiveKeys())
	}
	for i := 0; i < 1000; i++ {
		um := UpdateMsg{Key: ident.ID(7 + 61*i), Epoch: int64(i), Nodes: 1, Demand: true, Seq: 1}
		um.Agg.AddSample(1)
		bm := BatchMsg{Elems: []BatchElem{{Kind: batchKindUpdate, Update: um}}}
		n.handleBatch(transport.NewRequest(stranger, MsgBatch, bm, func(any, error) {}))
	}
	if held := len(n.epochs); held != 1000 {
		t.Fatalf("1 000 contributions made %d buckets", held)
	}
	r.eng.RunFor(demandDebounce + n.EpochLifeForTest() + time.Millisecond)
	if held := len(n.epochs); held != 0 {
		t.Fatalf("%d buckets outlived their life at the receiver", held)
	}
	r.eng.RunFor(time.Duration(len(r.dats)) * (demandDebounce + n.EpochLifeForTest()))
	for i, d := range r.dats {
		if got := len(d.ActiveKeys()); got != rows[i] {
			t.Errorf("node %d runs %d trees, %d before", i, got, rows[i])
		}
		if held := len(d.epochs); held != 0 {
			t.Errorf("node %d holds %d buckets", i, held)
		}
	}
}
