package wire_test

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestInternTableIsBounded: a sender forging a fresh From per datagram
// fills the table once and then stops growing it; strings it did learn
// keep coming back as the one shared copy.
func TestInternTableIsBounded(t *testing.T) {
	wire.KeepInternTable(t)
	known := wire.Intern([]byte("127.0.0.1:9001"))
	frame := func(from string) []byte {
		env := wire.Envelope{Kind: 1, Type: "maan.range", From: from}
		data, _, err := wire.Compact{}.Append(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i := 0; i < 10000; i++ {
		from := fmt.Sprintf("10.%d.%d.%d:%d", i>>16, i>>8&0xff, i&0xff, 1024+i)
		env, _, err := wire.Compact{}.Decode(frame(from))
		if err != nil || env.From != from {
			t.Fatalf("forged frame %d: From %q, %v", i, env.From, err)
		}
	}
	if n := wire.InternedLen(); n > wire.InternMaxEntries {
		t.Errorf("intern table holds %d strings, cap is %d", n, wire.InternMaxEntries)
	}
	long := make([]byte, wire.InternMaxLen+1)
	for i := range long {
		long[i] = 'x'
	}
	before := wire.InternedLen()
	wire.Intern(long)
	if wire.IsInterned(string(long)) || wire.InternedLen() != before {
		t.Errorf("a %d-byte string was interned; the limit is %d", len(long), wire.InternMaxLen)
	}
	env, _, err := wire.Compact{}.Decode(frame("127.0.0.1:9001"))
	if err != nil {
		t.Fatal(err)
	}
	if again := wire.Intern([]byte("127.0.0.1:9001")); again != known || env.From != known {
		t.Error("a learned string changed")
	}
	if allocs := testing.AllocsPerRun(100, func() { wire.Intern([]byte("127.0.0.1:9001")) }); allocs != 0 {
		t.Errorf("interning a learned string allocates %.0f", allocs)
	}
}

// TestInternBoundedByBatchSenders: the sender addresses inside a batch
// go through the same table, so they get the same bound — 10 000 forged
// Sender.Addr values (and as many FailedRoot ones), 32 elements to the
// datagram, decode to what was sent and leave the table at its cap, and
// an honest peer's address still decodes to the one shared copy.
func TestInternBoundedByBatchSenders(t *testing.T) {
	wire.KeepInternTable(t)
	const honest = transport.Addr("127.0.0.1:9001")
	known := wire.Intern([]byte(honest))
	decode := func(bm core.BatchMsg) core.BatchMsg {
		t.Helper()
		env := wire.Envelope{Kind: 2, Type: core.MsgBatch, From: string(honest), Payload: bm}
		data, _, err := wire.Compact{}.Append(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := wire.Compact{}.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return got.Payload.(core.BatchMsg)
	}
	for i := 0; i < 10000; i += 32 {
		var bm core.BatchMsg
		for j := i; j < i+32; j++ {
			forged := transport.Addr(fmt.Sprintf("10.%d.%d.%d:%d", j>>16, j>>8&0xff, j&0xff, 1024+j))
			bm.Elems = append(bm.Elems, core.BatchElem{Kind: 1, Update: core.UpdateMsg{
				Key: 7, Sender: chord.NodeRef{ID: 1, Addr: forged}, Handover: true, FailedRoot: "x" + forged,
			}})
		}
		for j, el := range decode(bm).Elems {
			if want := bm.Elems[j].Update; el.Update.Sender != want.Sender || el.Update.FailedRoot != want.FailedRoot {
				t.Fatalf("forged element %d decoded to %+v, sent %+v", i+j, el.Update, want)
			}
		}
	}
	if n := wire.InternedLen(); n > wire.InternMaxEntries {
		t.Errorf("intern table holds %d strings, cap is %d", n, wire.InternMaxEntries)
	}
	el := decode(core.BatchMsg{Elems: []core.BatchElem{
		{Kind: 1, Update: core.UpdateMsg{Sender: chord.NodeRef{ID: 1, Addr: honest}}},
		{Kind: 2, Detach: core.DetachMsg{Sender: chord.NodeRef{ID: 1, Addr: honest}}},
	}}).Elems
	for _, addr := range []transport.Addr{el[0].Update.Sender.Addr, el[1].Detach.Sender.Addr} {
		if addr != honest || unsafe.StringData(string(addr)) != unsafe.StringData(known) {
			t.Errorf("a learned address decoded to %q, not to the shared copy", addr)
		}
	}
}
