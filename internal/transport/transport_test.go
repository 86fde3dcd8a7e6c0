package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// --- SimNetwork ---

func newSimPair(t *testing.T, cfg SimConfig) (*sim.Engine, *SimNetwork, Endpoint, Endpoint) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := NewSimNetwork(eng, cfg)
	a := net.Endpoint("sim/a")
	b := net.Endpoint("sim/b")
	return eng, net, a, b
}

func TestSimSendDelivers(t *testing.T) {
	eng, _, a, b := newSimPair(t, SimConfig{})
	var got []string
	b.Handle(func(r *Request) {
		got = append(got, fmt.Sprintf("%s/%s/%v/oneway=%v", r.From, r.Type, r.Payload, r.OneWay()))
	})
	if err := a.Send(b.Addr(), "ping", 42); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0] != "sim/a/ping/42/oneway=true" {
		t.Fatalf("got %v", got)
	}
}

func TestSimCallRoundTrip(t *testing.T) {
	eng, _, a, b := newSimPair(t, SimConfig{Latency: sim.ConstantLatency(5 * time.Millisecond)})
	b.Handle(func(r *Request) {
		if r.OneWay() {
			t.Error("call delivered as one-way")
		}
		r.Reply(r.Payload.(int) * 2)
	})
	var result int
	var callErr error
	a.Call(b.Addr(), "double", 21, func(p any, err error) {
		callErr = err
		if err == nil {
			result = p.(int)
		}
	})
	eng.Run()
	if callErr != nil || result != 42 {
		t.Fatalf("result=%d err=%v", result, callErr)
	}
	// Round trip = 2 * 5ms.
	if eng.Now() != sim.Time(10*time.Millisecond) {
		t.Fatalf("clock = %v, want 10ms", eng.Now())
	}
}

func TestSimCallErrorReply(t *testing.T) {
	eng, _, a, b := newSimPair(t, SimConfig{})
	boom := errors.New("boom")
	b.Handle(func(r *Request) { r.ReplyError(boom) })
	var got error
	a.Call(b.Addr(), "x", nil, func(_ any, err error) { got = err })
	eng.Run()
	if !errors.Is(got, boom) {
		t.Fatalf("err = %v, want boom", got)
	}
}

func TestSimCallTimeoutOnDeadDestination(t *testing.T) {
	eng, _, a, _ := newSimPair(t, SimConfig{CallTimeout: 100 * time.Millisecond})
	var got error
	calls := 0
	a.Call("sim/nonexistent", "x", nil, func(_ any, err error) { got = err; calls++ })
	eng.Run()
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", got)
	}
	if calls != 1 {
		t.Fatalf("callback invoked %d times", calls)
	}
	if eng.Now() != sim.Time(100*time.Millisecond) {
		t.Fatalf("timed out at %v, want 100ms", eng.Now())
	}
}

func TestSimCallTimeoutOnSilentHandler(t *testing.T) {
	eng, _, a, b := newSimPair(t, SimConfig{CallTimeout: 50 * time.Millisecond})
	b.Handle(func(r *Request) { /* never replies */ })
	var got error
	a.Call(b.Addr(), "x", nil, func(_ any, err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", got)
	}
}

func TestSimDropInjection(t *testing.T) {
	eng := sim.NewEngine(3)
	net := NewSimNetwork(eng, SimConfig{Faults: ProbFaults{Drop: 1}, CallTimeout: 10 * time.Millisecond})
	a := net.Endpoint("sim/a")
	b := net.Endpoint("sim/b")
	delivered := 0
	b.Handle(func(r *Request) { delivered++; r.Reply(nil) })
	var got error
	a.Call(b.Addr(), "x", nil, func(_ any, err error) { got = err })
	a.Send(b.Addr(), "y", nil)
	eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d messages despite a drop-all plan", delivered)
	}
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", got)
	}
	if net.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", net.Dropped())
	}
}

func TestSimDuplicateInjectionCallbackOnce(t *testing.T) {
	eng := sim.NewEngine(3)
	net := NewSimNetwork(eng, SimConfig{Faults: ProbFaults{Dup: 1}})
	a := net.Endpoint("sim/a")
	b := net.Endpoint("sim/b")
	handled := 0
	b.Handle(func(r *Request) { handled++; r.Reply("ok") })
	cbCount := 0
	a.Call(b.Addr(), "x", nil, func(p any, err error) {
		cbCount++
		if err != nil || p.(string) != "ok" {
			t.Errorf("p=%v err=%v", p, err)
		}
	})
	eng.Run()
	if cbCount != 1 {
		t.Fatalf("callback invoked %d times, want exactly 1", cbCount)
	}
	if handled < 2 {
		t.Fatalf("handler saw %d deliveries, want >= 2 (duplicate)", handled)
	}
	if net.Duplicated() == 0 {
		t.Fatal("no duplicates recorded")
	}
}

func TestSimTapSeesTraffic(t *testing.T) {
	eng, net, a, b := newSimPair(t, SimConfig{})
	var lines []string
	net.SetTap(TapFunc(func(from, to Addr, typ string, oneWay bool) {
		lines = append(lines, fmt.Sprintf("%s->%s %s oneway=%v", from, to, typ, oneWay))
	}))
	b.Handle(func(r *Request) { r.Reply(nil) })
	a.Send(b.Addr(), "notify", nil)
	a.Call(b.Addr(), "ask", nil, func(any, error) {})
	eng.Run()
	want := map[string]bool{
		"sim/a->sim/b notify oneway=true":     true,
		"sim/a->sim/b ask oneway=false":       true,
		"sim/b->sim/a ask:reply oneway=false": true,
	}
	if len(lines) != 3 {
		t.Fatalf("tap saw %d messages: %v", len(lines), lines)
	}
	for _, l := range lines {
		if !want[l] {
			t.Fatalf("unexpected tap line %q", l)
		}
	}
}

func TestSimCloseSemantics(t *testing.T) {
	eng, net, a, b := newSimPair(t, SimConfig{CallTimeout: 20 * time.Millisecond})
	b.Handle(func(r *Request) { r.Reply(nil) })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close errored:", err)
	}
	var got error
	a.Call(b.Addr(), "x", nil, func(_ any, err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("call to closed endpoint: err=%v, want timeout", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("sim/b", "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed endpoint err=%v", err)
	}
	var cerr error
	a.Call("sim/b", "x", nil, func(_ any, err error) { cerr = err })
	if !errors.Is(cerr, ErrClosed) {
		t.Fatalf("call on closed endpoint err=%v", cerr)
	}
	// A fresh endpoint can reuse the freed address.
	_ = net.Endpoint("sim/b")
}

func TestSimDuplicateEndpointPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewSimNetwork(eng, SimConfig{})
	net.Endpoint("sim/a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate endpoint did not panic")
		}
	}()
	net.Endpoint("sim/a")
}

func TestDuplicateReplyPanics(t *testing.T) {
	eng, _, a, b := newSimPair(t, SimConfig{})
	b.Handle(func(r *Request) {
		r.Reply(1)
		defer func() {
			if recover() == nil {
				t.Error("duplicate reply did not panic")
			}
		}()
		r.Reply(2)
	})
	a.Call(b.Addr(), "x", nil, func(any, error) {})
	eng.Run()
}

func TestOneWayReplyIsNoOp(t *testing.T) {
	eng, _, a, b := newSimPair(t, SimConfig{})
	b.Handle(func(r *Request) {
		r.Reply(1) // must be a silent no-op for one-way messages
		r.ReplyError(errors.New("x"))
	})
	a.Send(b.Addr(), "notify", nil)
	eng.Run()
}

// --- Clocks ---

func TestSimClock(t *testing.T) {
	eng := sim.NewEngine(1)
	c := SimClock{Engine: eng}
	fired := 0
	count := taskFunc(func(int32) { fired++ })
	c.AfterRun(10*time.Millisecond, count, 0)
	ticks := 0
	stopTicks := c.Every(5*time.Millisecond, 0, func() { ticks++ })
	eng.RunUntil(sim.Time(26 * time.Millisecond))
	stopTicks()
	if fired != 1 {
		t.Fatalf("AfterRun fired %d times", fired)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if c.Now() != 26*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
	// Cancellation.
	if !c.AfterRun(10*time.Millisecond, count, 0).Stop() {
		t.Fatal("Stop before fire did not report it")
	}
	eng.RunFor(50 * time.Millisecond)
	if fired != 1 {
		t.Fatal("stopped timer fired")
	}
}

func TestRealClock(t *testing.T) {
	c := &RealClock{}
	t0 := c.Now()
	var fired atomic.Int32
	tm := c.AfterRun(10*time.Millisecond, taskFunc(func(int32) { fired.Add(1) }), 0)
	defer tm.Stop()
	var ticks atomic.Int32
	stopTicks := c.Every(10*time.Millisecond, 5*time.Millisecond, func() { ticks.Add(1) })
	time.Sleep(80 * time.Millisecond)
	stopTicks()
	stopTicks() // double-stop safe
	if fired.Load() != 1 {
		t.Fatalf("AfterRun fired %d times", fired.Load())
	}
	if ticks.Load() == 0 {
		t.Fatal("ticker never fired")
	}
	if c.Now() <= t0 {
		t.Fatal("clock did not advance")
	}
	n := ticks.Load()
	time.Sleep(50 * time.Millisecond)
	// One in-flight tick may complete concurrently with the stop; more
	// than that means the stop did not take.
	if got := ticks.Load(); got > n+1 {
		t.Fatalf("stopped ticker kept firing: %d -> %d", n, got)
	}
}

func TestCallNilCallbackPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewSimNetwork(eng, SimConfig{})
	a := net.Endpoint("sim/a")
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	a.Call("sim/b", "x", nil, nil)
}

func TestSimOneWayDuplicateDelivery(t *testing.T) {
	eng := sim.NewEngine(5)
	net := NewSimNetwork(eng, SimConfig{Faults: ProbFaults{Dup: 1}})
	a := net.Endpoint("sim/dup-a")
	b := net.Endpoint("sim/dup-b")
	got := 0
	b.Handle(func(r *Request) { got++ })
	a.Send(b.Addr(), "x", nil)
	eng.Run()
	if got != 2 {
		t.Fatalf("one-way delivered %d times under a duplicate-all plan, want 2", got)
	}
	if net.Duplicated() != 1 {
		t.Fatalf("Duplicated = %d", net.Duplicated())
	}
}

func TestSetDropProbRuntime(t *testing.T) {
	eng := sim.NewEngine(6)
	net := NewSimNetwork(eng, SimConfig{})
	a := net.Endpoint("sim/sdp-a")
	b := net.Endpoint("sim/sdp-b")
	got := 0
	b.Handle(func(r *Request) { got++ })
	a.Send(b.Addr(), "x", nil)
	eng.Run()
	net.SetDropProb(1.0)
	a.Send(b.Addr(), "y", nil)
	eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want 1 (second dropped)", got)
	}
	net.SetDropProb(0)
	a.Send(b.Addr(), "z", nil)
	eng.Run()
	if got != 2 {
		t.Fatalf("delivered %d after re-enabling, want 2", got)
	}
}

// --- Fault injection: partitions, fault plans, duplicate reordering ---

// TestSimDuplicateIndependentLatency is the regression test for the old
// behavior where a duplicate was scheduled at a fixed offset after the
// original (d + d/2 + 1ms), which meant the copy could never overtake the
// original and reordering was unexercisable. With an independent latency
// sample from a wide uniform model, the duplicate must sometimes arrive
// first.
func TestSimDuplicateIndependentLatency(t *testing.T) {
	eng := sim.NewEngine(7)
	net := NewSimNetwork(eng, SimConfig{
		Latency: sim.UniformLatency{Min: time.Millisecond, Max: 100 * time.Millisecond},
		Faults:  ProbFaults{Dup: 1},
	})
	a := net.Endpoint("sim/dil-a")
	b := net.Endpoint("sim/dil-b")

	// Tag each send with a sequence number; record arrival order. If a
	// later copy of message k arrives before its original would have
	// (i.e. the two arrivals of one message are split by a different
	// message, or the gap between the two arrivals of one message varies),
	// reordering is live. The robust check: over many sends, at least one
	// message's two arrivals must NOT be adjacent in the arrival log.
	var arrivals []int
	b.Handle(func(r *Request) { arrivals = append(arrivals, r.Payload.(int)) })
	for i := 0; i < 50; i++ {
		if err := a.Send(b.Addr(), "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(arrivals) != 100 {
		t.Fatalf("got %d arrivals, want 100", len(arrivals))
	}
	// If every message's two copies arrived back-to-back, walking the log
	// two at a time always sees matching pairs; any mismatch means some
	// copy overtook another message.
	interleaved := false
	for i := 0; i+1 < len(arrivals); i += 2 {
		if arrivals[i] != arrivals[i+1] {
			interleaved = true
			break
		}
	}
	if !interleaved {
		t.Fatal("no interleaving across 50 duplicated messages; duplicates still ride the original's latency")
	}
}

// TestSimDuplicateConstantLatencyDistinctTicks pins the tie-break: under a
// constant latency model the independent sample is identical, and the copy
// must be nudged off the original's instant rather than delivered in the
// same engine event batch.
func TestSimDuplicateConstantLatencyDistinctTicks(t *testing.T) {
	eng := sim.NewEngine(8)
	net := NewSimNetwork(eng, SimConfig{
		Latency: sim.ConstantLatency(time.Millisecond),
		Faults:  ProbFaults{Dup: 1},
	})
	a := net.Endpoint("sim/dct-a")
	b := net.Endpoint("sim/dct-b")
	var times []sim.Time
	b.Handle(func(r *Request) { times = append(times, eng.Now()) })
	if err := a.Send(b.Addr(), "x", nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(times))
	}
	if times[0] == times[1] {
		t.Fatalf("original and duplicate both arrived at %v; want distinct instants", times[0])
	}
}

func TestSimPartitionBlocksBothDirections(t *testing.T) {
	eng := sim.NewEngine(9)
	net := NewSimNetwork(eng, SimConfig{})
	a := net.Endpoint("sim/part-a")
	b := net.Endpoint("sim/part-b")
	c := net.Endpoint("sim/part-c")
	got := map[Addr]int{}
	count := func(ep Endpoint) {
		ep.Handle(func(r *Request) { got[ep.Addr()]++ })
	}
	count(a)
	count(b)
	count(c)

	net.Partition(a.Addr(), b.Addr())
	if !net.Partitioned(b.Addr(), a.Addr()) {
		t.Fatal("Partitioned not symmetric")
	}
	// a<->b severed in both directions; a<->c untouched.
	if err := a.Send(b.Addr(), "x", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.Addr(), "x", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(c.Addr(), "x", nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got[a.Addr()] != 0 || got[b.Addr()] != 0 {
		t.Fatalf("messages crossed a severed link: %v", got)
	}
	if got[c.Addr()] != 1 {
		t.Fatalf("bystander link affected: %v", got)
	}
	if net.PartitionDropped() != 2 {
		t.Fatalf("PartitionDropped = %d, want 2", net.PartitionDropped())
	}

	// Calls across the partition time out rather than hanging.
	var callErr error
	a.Call(b.Addr(), "ping", nil, func(_ any, err error) { callErr = err })
	eng.Run()
	if !errors.Is(callErr, ErrTimeout) {
		t.Fatalf("call across partition: err = %v, want ErrTimeout", callErr)
	}

	// Heal restores delivery; HealAll clears everything.
	net.Heal(b.Addr(), a.Addr())
	if net.Partitioned(a.Addr(), b.Addr()) {
		t.Fatal("still partitioned after Heal")
	}
	if err := a.Send(b.Addr(), "x", nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got[b.Addr()] != 1 {
		t.Fatalf("delivery not restored after heal: %v", got)
	}

	net.Partition(a.Addr(), b.Addr())
	net.Partition(a.Addr(), c.Addr())
	net.HealAll()
	if net.Partitioned(a.Addr(), b.Addr()) || net.Partitioned(a.Addr(), c.Addr()) {
		t.Fatal("links still severed after HealAll")
	}
}

// TestSimPartitionAllowsReplyCut covers the asymmetric-failure shape the
// harness relies on: the request crosses before the partition, the reply is
// cut by it, and the caller times out.
func TestSimPartitionCutsReply(t *testing.T) {
	eng := sim.NewEngine(10)
	net := NewSimNetwork(eng, SimConfig{CallTimeout: 50 * time.Millisecond})
	a := net.Endpoint("sim/pcr-a")
	b := net.Endpoint("sim/pcr-b")
	b.Handle(func(r *Request) {
		// Sever the link while the request is "being processed", then reply.
		net.Partition(a.Addr(), b.Addr())
		r.Reply("pong")
	})
	var callErr error
	replied := false
	a.Call(b.Addr(), "ping", nil, func(p any, err error) { replied = p != nil; callErr = err })
	eng.Run()
	if replied || !errors.Is(callErr, ErrTimeout) {
		t.Fatalf("reply crossed a severed link: replied=%v err=%v", replied, callErr)
	}
}

func TestSimFaultPlanRuntimeSwap(t *testing.T) {
	eng := sim.NewEngine(11)
	net := NewSimNetwork(eng, SimConfig{Faults: ProbFaults{}})
	a := net.Endpoint("sim/fp-a")
	b := net.Endpoint("sim/fp-b")
	got := 0
	b.Handle(func(r *Request) { got++ })
	if err := a.Send(b.Addr(), "x", nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 1 {
		t.Fatalf("with clean plan installed got %d deliveries, want exactly 1", got)
	}

	// Swap in a drop-everything plan at runtime.
	net.SetFaultPlan(ProbFaults{Drop: 1.0})
	if err := a.Send(b.Addr(), "x", nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 1 {
		t.Fatalf("drop-all plan leaked a message: got %d", got)
	}
	if net.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", net.Dropped())
	}
}

func TestProbFaultsDelayJitter(t *testing.T) {
	eng := sim.NewEngine(12)
	net := NewSimNetwork(eng, SimConfig{
		Latency: sim.ConstantLatency(time.Millisecond),
		Faults:  ProbFaults{DelayJitter: 50 * time.Millisecond},
	})
	a := net.Endpoint("sim/dj-a")
	b := net.Endpoint("sim/dj-b")
	var arrivals []int
	b.Handle(func(r *Request) { arrivals = append(arrivals, r.Payload.(int)) })
	for i := 0; i < 20; i++ {
		if err := a.Send(b.Addr(), "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(arrivals) != 20 {
		t.Fatalf("got %d arrivals, want 20", len(arrivals))
	}
	reordered := false
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Fatal("DelayJitter wider than base latency produced no reordering across 20 sends")
	}
}
