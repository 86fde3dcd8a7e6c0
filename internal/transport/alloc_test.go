package transport

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// The pooled-record contract (DESIGN.md §15): a steady-state one-way sim
// delivery — Send through fault injection, latency sampling, scheduling,
// fire, handler dispatch — reuses a pooled simMsg and an arena slot and
// allocates nothing. These tests are the regression gate, following the
// PR 5 codec-allocs pattern.

func newSendPair(tb testing.TB) (*sim.Engine, Endpoint, Addr, *int) {
	tb.Helper()
	engine := sim.NewEngine(1)
	net := NewSimNetwork(engine, SimConfig{})
	a := net.Endpoint("sim/a")
	b := net.Endpoint("sim/b")
	handled := 0
	b.Handle(func(r *Request) { handled++ })
	return engine, a, b.Addr(), &handled
}

// TestSimNetSendAllocs pins the one-way delivery path at zero
// allocations per message. The payload is boxed once outside the loop:
// boxing a value into `any` is the caller's allocation, not the
// network's.
func TestSimNetSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	engine, a, to, handled := newSendPair(t)
	var payload any = &struct{ v int }{v: 42}
	// Warm the record pool and the engine arena.
	for i := 0; i < 64; i++ {
		if err := a.Send(to, "bench.ping", payload); err != nil {
			t.Fatal(err)
		}
	}
	engine.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := a.Send(to, "bench.ping", payload); err != nil {
			t.Fatal(err)
		}
		engine.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state sim Send+deliver allocates %.1f/op; budget is 0", allocs)
	}
	if *handled == 0 {
		t.Fatal("handler never ran")
	}
}

// TestSimNetCallAllocs pins a request/response round trip — Call, both
// deliveries, the handler's Reply, the callback — at one allocation, the
// call record, and the reply's tap type at one interned string. Both
// payloads are pointer-shaped: boxing is the caller's allocation.
func TestSimNetCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	engine := sim.NewEngine(1)
	net := NewSimNetwork(engine, SimConfig{})
	a, srv := net.Endpoint("sim/a"), net.Endpoint("sim/b")
	srv.Handle(func(r *Request) { r.Reply(r.Payload) })
	var replyTypes []string
	net.SetTap(TapFunc(func(_, _ Addr, typ string, _ bool) {
		if typ != "bench.echo" && len(replyTypes) < 4 {
			replyTypes = append(replyTypes, typ)
		}
	}))
	var payload any = &struct{ v int }{v: 42}
	done := 0
	cb := func(got any, err error) {
		if err == nil && got == payload {
			done++
		}
	}
	call := func() {
		a.Call(srv.Addr(), "bench.echo", payload, cb)
		engine.Run()
	}
	for i := 0; i < 64; i++ { // warm the record pool, the arena and the interned type
		call()
	}
	if allocs := testing.AllocsPerRun(1000, call); allocs != 1 {
		t.Errorf("sim Call+Reply round trip allocates %.1f/op; budget is 1 (the call record)", allocs)
	}
	if done < 1000 {
		t.Fatalf("only %d calls completed with their reply", done)
	}
	if len(replyTypes) < 2 || replyTypes[0] != "bench.echo:reply" {
		t.Fatalf("tap saw reply types %q", replyTypes)
	}
	for _, typ := range replyTypes[1:] {
		if unsafe.StringData(typ) != unsafe.StringData(replyTypes[0]) {
			t.Fatal("the reply's tap type is a fresh string per reply, not the interned one")
		}
	}
}

// BenchmarkSimNetSend measures the full one-way path: Send, fault/latency
// pipeline, event fire, handler dispatch.
func BenchmarkSimNetSend(b *testing.B) {
	engine, a, to, handled := newSendPair(b)
	var payload any = &struct{ v int }{v: 42}
	for i := 0; i < 64; i++ {
		_ = a.Send(to, "bench.ping", payload)
	}
	engine.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Send(to, "bench.ping", payload)
		engine.Run()
	}
	if *handled == 0 {
		b.Fatal("handler never ran")
	}
}

// BenchmarkSimNetCall measures the request/response exchange. Calls
// cannot be pooled (a handler may retain the *Request past the delivery
// event); the call record is the exchange's one allocation.
func BenchmarkSimNetCall(b *testing.B) {
	engine := sim.NewEngine(1)
	net := NewSimNetwork(engine, SimConfig{})
	a := net.Endpoint("sim/a")
	srv := net.Endpoint("sim/b")
	srv.Handle(func(r *Request) { r.Reply(r.Payload) })
	var payload any = &struct{ v int }{v: 42}
	done := 0
	cb := func(any, error) { done++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Call(srv.Addr(), "bench.echo", payload, cb)
		engine.Run()
	}
	if done != b.N {
		b.Fatalf("completed %d calls, want %d", done, b.N)
	}
}
