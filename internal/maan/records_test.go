package maan

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ident"
	"repro/internal/transport"
)

func host(i int, cpu float64) Resource {
	return Resource{
		Name:   fmt.Sprintf("host%03d", i),
		Values: map[string]float64{"cpu-usage": cpu, "memory-size": float64(i * 16)},
	}
}

func hosts(n int) []Resource {
	rs := make([]Resource, n)
	for i := range rs {
		rs[i] = host(i, float64(i%100))
	}
	return rs
}

// TestRecordsDecode: the originator's view of a run — sorted by name,
// the first record of a name in walk order kept, and nothing accepted
// that is not exactly N well-formed records.
func TestRecordsDecode(t *testing.T) {
	schema := testSchema(t, ident.New(16))
	stale, fresh := host(2, 10), host(2, 90)
	run := RecordsOf(host(5, 50), stale, host(1, 20), fresh)
	got, err := run.decode(schema)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Resource{host(1, 20), stale, host(5, 50)}; !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
	if got, err := (Records{}).decode(schema); err != nil || got != nil {
		t.Errorf("empty run decoded to %v, %v", got, err)
	}

	bad := map[string]Records{
		"count too high":      {N: run.N + 1, Run: run.Run},
		"count too low":       {N: run.N - 1, Run: run.Run},
		"count beyond bytes":  {N: 1 << 40, Run: run.Run},
		"negative count":      {N: -1, Run: run.Run},
		"truncated":           {N: run.N, Run: run.Run[:len(run.Run)-3]},
		"trailing garbage":    {N: run.N, Run: append(bytes.Clone(run.Run), 0xff)},
		"bytes without count": {N: 0, Run: run.Run},
		"forged map length":   {N: 1, Run: []byte{1, 'x', 0xff, 0xff, 0xff, 0xff, 0x0f, 0}},
	}
	for name, r := range bad {
		if got, err := r.decode(schema); err == nil {
			t.Errorf("%s: decoded to %d resources without error", name, len(got))
		}
	}
}

// TestRecordsDecodeSharesSchemaNames: attribute names come from the
// schema, not from a copy per record.
func TestRecordsDecodeSharesSchemaNames(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	schema := testSchema(t, ident.New(16))
	// Per record: the name, the Values map and its bucket. Per run: the
	// slice. Nothing per attribute.
	for _, n := range []int{8, 64} {
		run := RecordsOf(hosts(n)...)
		allocs := testing.AllocsPerRun(50, func() {
			if got, err := run.decode(schema); err != nil || len(got) != n {
				t.Fatalf("decode: %d resources, %v", len(got), err)
			}
		})
		if max := float64(3*n + 2); allocs > max {
			t.Errorf("decoding %d records allocates %.0f, want at most %.0f (O(results))", n, allocs, max)
		}
	}
}

// TestRecordsWithCopiesOnAppend: a hop never writes into the bytes it
// received, whatever spare capacity they have — a duplicated delivery,
// or the sender on an in-memory network, may still hold them.
func TestRecordsWithCopiesOnAppend(t *testing.T) {
	carried := RecordsOf(host(1, 10), host(2, 20))
	spare := make([]byte, len(carried.Run), len(carried.Run)+256)
	copy(spare, carried.Run)
	received := Records{N: carried.N, Run: spare}
	window := spare[:cap(spare)]
	before := bytes.Clone(window)

	a, b := RecordsOf(host(3, 30)), RecordsOf(host(4, 40))
	first := received.with([][]byte{a.Run}, len(a.Run))
	firstBytes := bytes.Clone(first.Run)
	second := received.with([][]byte{b.Run}, len(b.Run))

	if !bytes.Equal(window, before) {
		t.Error("with wrote into the received run's backing array")
	}
	if !bytes.Equal(first.Run, firstBytes) {
		t.Error("a second extension of the same run changed the first")
	}
	if first.N != 3 || second.N != 3 {
		t.Errorf("counts %d, %d; want 3, 3", first.N, second.N)
	}
	if same := received.with(nil, 0); same.N != received.N || &same.Run[0] != &received.Run[0] {
		t.Error("extending by nothing should hand the received run on as it is")
	}
}

// FuzzResultRunDecode: whatever count and bytes a forwarder hands the
// originator, decode returns an error or a valid set — sorted, no name
// twice, no more resources than claimed — and never sizes anything by a
// count the bytes cannot back.
func FuzzResultRunDecode(f *testing.F) {
	good := RecordsOf(host(1, 10), host(2, 20), host(1, 30))
	f.Add(good.N, good.Run)
	f.Add(good.N+1, good.Run)
	f.Add(1<<30, good.Run)
	f.Add(good.N, good.Run[:len(good.Run)/2])
	f.Add(good.N, append(bytes.Clone(good.Run), 0, 0, 0))
	f.Add(0, []byte(nil))
	f.Add(1, []byte{0, 0, 0})
	f.Add(1, []byte{1, 'x', 0xff, 0xff, 0xff, 0xff, 0x0f, 0})
	schema, err := NewSchema(ident.New(16), Attribute{Name: "cpu-usage", Min: 0, Max: 100})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, n int, run []byte) {
		got, err := Records{N: n, Run: run}.decode(schema)
		if err != nil {
			return
		}
		if len(got) > n || n > len(run) {
			t.Fatalf("%d resources from a claim of %d in %d bytes", len(got), n, len(run))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Name >= got[i].Name {
				t.Fatalf("names not strictly ascending: %q then %q", got[i-1].Name, got[i].Name)
			}
		}
	})
}

// hopFixture is a warm 4-node ring with a MAAN service on node 1 that
// owns three matching entries; handing its handleRange a request makes
// it a forwarding hop (the span ends further on), which the fixture
// checks once.
func hopFixture(tb testing.TB) (*Service, func(carried int) *transport.Request) {
	tb.Helper()
	c, err := cluster.New(cluster.Options{N: 4, Seed: 7, IDs: cluster.EvenIDs})
	if err != nil {
		tb.Fatal(err)
	}
	schema, err := NewSchema(c.Space,
		Attribute{Name: "cpu-usage", Min: 0, Max: 100},
		Attribute{Name: "memory-size", Min: 0, Max: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	svc := NewService(c.Chord[1], c.Endpoint(1), c.Net.Clock(), schema)
	tb.Cleanup(svc.Close)
	for i := 0; i < 3; i++ {
		svc.insert("cpu-usage", ownedEntry{value: float64(30 + i), res: host(900+i, float64(30+i))})
	}
	rt := c.Chord[1].Routing()
	request := func(carried int) *transport.Request {
		return transport.NewRequest(c.NodeAddr(0), MsgRange, RangeReq{
			QueryID: 1, Origin: c.NodeAddr(3), Start: c.NodeAddr(0),
			Pred:  Range("cpu-usage", 0, 100),
			LoKey: rt.Pred.ID, HiKey: rt.Pred.ID - 1, // the whole ring
			Found: RecordsOf(hosts(carried)...), Hops: 1,
		}, nil)
	}
	forwarded := 0
	c.Net.SetTap(transport.TapFunc(func(_, to transport.Addr, typ string, _ bool) {
		if typ == MsgRange && to == c.NodeAddr(2) {
			forwarded++
		}
	}))
	svc.handleRange(request(2))
	c.RunFor(5 * time.Millisecond)
	c.Net.SetTap(nil)
	if forwarded != 1 {
		tb.Fatalf("fixture hop forwarded %d requests to its successor, want 1", forwarded)
	}
	return svc, request
}

// TestRangeHopAllocsIndependentOfCarried: a forwarding hop does not
// parse what earlier hops found, so what it allocates does not depend
// on how much that is.
func TestRangeHopAllocsIndependentOfCarried(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	svc, request := hopFixture(t)
	perHop := func(carried int) float64 {
		req := request(carried)
		return testing.AllocsPerRun(100, func() { svc.handleRange(req) })
	}
	none, many := perHop(0), perHop(64)
	if none != many {
		t.Errorf("a hop allocates %.0f carrying nothing and %.0f carrying 64 records", none, many)
	}
	// The extended run, the boxed request, the network's delivery record.
	if many > 4 {
		t.Errorf("a hop allocates %.0f; budget is 4", many)
	}
}

// TestWarmQueryStartAllocs: starting a walk from the owner-arc table
// costs the query's record (its timer is that record), the boxed
// request and the network's delivery — no lookup, no closure.
func TestWarmQueryStartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	svc, _ := hopFixture(t)
	// The fixture's node is the second of four evenly spaced: values
	// in (0, 25] hash into its arc.
	pred := Range("cpu-usage", 10, 12)
	for i := 0; i < 3; i++ {
		svc.insert("cpu-usage", ownedEntry{value: float64(10 + i), res: host(800+i, float64(10+i))})
	}
	lo, _, err := svc.schema.predicateKeys(pred)
	if err != nil {
		t.Fatal(err)
	}
	svc.arcs.learn(lo, svc.ch.Self())
	answered := 0
	cb := func(res []Resource, _ int, err error) {
		if err != nil || len(res) != 3 {
			t.Errorf("query: %d resources, %v", len(res), err)
		}
		answered++
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { svc.query(pred, nil, cb) })
	if allocs > 3 {
		t.Errorf("a table-started query allocates %.0f before its first datagram is out; budget is 3", allocs)
	}
	// Every one of them was a real query: delivered, verified by the
	// owner, answered.
	svc.clock.(transport.SimClock).Engine.RunFor(time.Second)
	if answered != runs+1 { // AllocsPerRun warms up with one extra call
		t.Errorf("%d of %d queries answered", answered, runs+1)
	}
	if pending := len(svc.pending); pending != 0 {
		t.Errorf("%d queries still pending", pending)
	}
}
