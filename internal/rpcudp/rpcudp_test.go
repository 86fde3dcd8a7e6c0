package rpcudp

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

type testPayload struct {
	N int
	S string
}

func init() {
	wire.Register(wire.CodeTestBase, testPayload{},
		func(e *wire.Encoder, v any) {
			p := v.(testPayload)
			e.Varint(int64(p.N))
			e.String(p.S)
		},
		func(d *wire.Decoder) (any, error) {
			var p testPayload
			p.N = int(d.Varint())
			p.S = d.String()
			return p, nil
		})
}

func listen(t testing.TB, cfg Config) *Endpoint {
	t.Helper()
	e, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestSendDelivers(t *testing.T) {
	a := listen(t, Config{})
	b := listen(t, Config{})
	got := make(chan *transport.Request, 1)
	b.Handle(func(r *transport.Request) { got <- r })
	if err := a.Send(b.Addr(), "ping", testPayload{N: 42, S: "hi"}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.Type != "ping" || r.From != a.Addr() || !r.OneWay() {
			t.Fatalf("request = %+v", r)
		}
		p := r.Payload.(testPayload)
		if p.N != 42 || p.S != "hi" {
			t.Fatalf("payload = %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send not delivered")
	}
}

func TestCallRoundTrip(t *testing.T) {
	a := listen(t, Config{})
	b := listen(t, Config{})
	b.Handle(func(r *transport.Request) {
		p := r.Payload.(testPayload)
		r.Reply(testPayload{N: p.N * 2, S: p.S + "!"})
	})
	done := make(chan struct{})
	a.Call(b.Addr(), "double", testPayload{N: 21, S: "ok"}, func(p any, err error) {
		defer close(done)
		if err != nil {
			t.Error(err)
			return
		}
		resp := p.(testPayload)
		if resp.N != 42 || resp.S != "ok!" {
			t.Errorf("resp = %+v", resp)
		}
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("call did not complete")
	}
}

func TestCallErrorReply(t *testing.T) {
	a := listen(t, Config{})
	b := listen(t, Config{})
	b.Handle(func(r *transport.Request) { r.ReplyError(errors.New("nope")) })
	done := make(chan error, 1)
	a.Call(b.Addr(), "x", testPayload{}, func(_ any, err error) { done <- err })
	select {
	case err := <-done:
		if err == nil || err.Error() != "nope" {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply")
	}
}

// TestCallTimeoutAndRetransmit: an unanswered call is one datagram,
// never resent, and fails with transport.ErrTimeout at its deadline.
func TestCallTimeoutAndRetransmit(t *testing.T) {
	a := listen(t, Config{CallTimeout: 50 * time.Millisecond})
	b := listen(t, Config{})
	var attempts atomic.Int32
	b.Handle(func(r *transport.Request) {
		attempts.Add(1) // swallow the request
	})
	done := make(chan error, 1)
	start := time.Now()
	a.Call(b.Addr(), "void", testPayload{}, func(_ any, err error) { done <- err })
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("err = %v, want timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call never timed out")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("gave up after %v, before the 50ms deadline", elapsed)
	}
	// Give a resent request time to land, were there one.
	time.Sleep(150 * time.Millisecond)
	if got := attempts.Load(); got != 1 {
		t.Fatalf("receiver saw %d requests, want exactly 1", got)
	}
}

func TestCallToDeadAddressTimesOut(t *testing.T) {
	a := listen(t, Config{CallTimeout: 40 * time.Millisecond})
	done := make(chan error, 1)
	a.Call("127.0.0.1:1", "x", testPayload{}, func(_ any, err error) { done <- err })
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never timed out")
	}
}

func TestCloseFailsPending(t *testing.T) {
	a := listen(t, Config{CallTimeout: 5 * time.Second})
	b := listen(t, Config{})
	b.Handle(func(r *transport.Request) { /* never reply */ })
	done := make(chan error, 1)
	a.Call(b.Addr(), "x", testPayload{}, func(_ any, err error) { done <- err })
	time.Sleep(50 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("err = %v, want closed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not failed on close")
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close:", err)
	}
	if err := a.Send(b.Addr(), "x", testPayload{}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	calls := make(chan error, 1)
	a.Call(b.Addr(), "x", testPayload{}, func(_ any, err error) { calls <- err })
	if err := <-calls; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	server := listen(t, Config{})
	server.Handle(func(r *transport.Request) {
		p := r.Payload.(testPayload)
		r.Reply(testPayload{N: p.N + 1})
	})
	client := listen(t, Config{})
	const calls = 100
	var wg sync.WaitGroup
	var bad atomic.Int32
	for i := 0; i < calls; i++ {
		wg.Add(1)
		i := i
		client.Call(server.Addr(), "inc", testPayload{N: i}, func(p any, err error) {
			defer wg.Done()
			if err != nil || p.(testPayload).N != i+1 {
				bad.Add(1)
			}
		})
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent calls did not finish")
	}
	if bad.Load() != 0 {
		t.Fatalf("%d bad responses", bad.Load())
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	a := listen(t, Config{MaxPacket: 512})
	err := a.Send("127.0.0.1:9", "big", testPayload{S: string(make([]byte, 4096))})
	if err == nil {
		t.Fatal("oversize send accepted")
	}
}

func TestNilCallbackPanics(t *testing.T) {
	a := listen(t, Config{})
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	a.Call("127.0.0.1:9", "x", testPayload{}, nil)
}

// gobFrame is a genuine whole-envelope gob datagram (a one-way
// "ping" from 127.0.0.1:1, nil payload), captured from the codec that
// spoke gob before it was deleted: what a reflection-driven decoder
// would accept and this endpoint must not.
const gobFrame = "P\x7f\x03\x01\x01\bEnvelope\x01\xff\x80\x00\x01\x06\x01\x04Kind\x01\x06\x00\x01\x03Seq\x01\x06\x00" +
	"\x01\x04Type\x01\f\x00\x01\x04From\x01\f\x00\x01\aPayload\x01\x10\x00\x01\aErrText\x01\f\x00\x00\x00" +
	"\x18\xff\x80\x01\x01\x02\x04ping\x01\v127.0.0.1:1\x00"

// TestMalformedPacketIgnored: garbage and gob datagrams are counted as
// decode errors, reach no handler, and must not kill the read loop or
// corrupt subsequent traffic.
func TestMalformedPacketIgnored(t *testing.T) {
	var decodeErrors, handled atomic.Int32
	b := listen(t, Config{Obs: obs.TransportHooks{DecodeError: func() { decodeErrors.Add(1) }}})
	b.Handle(func(r *transport.Request) {
		handled.Add(1)
		r.Reply(testPayload{N: 1})
	})

	// Raw bytes straight at the socket.
	conn, err := netDial(string(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hostile := []string{"\x00\xff definitely not a frame", gobFrame}
	for _, frame := range hostile {
		if _, err := conn.Write([]byte(frame)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)

	// The endpoint still answers real requests.
	a := listen(t, Config{})
	done := make(chan error, 1)
	a.Call(b.Addr(), "ping", testPayload{}, func(_ any, err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("endpoint dead after malformed packet")
	}
	if n := decodeErrors.Load(); int(n) != len(hostile) {
		t.Errorf("DecodeError fired %d times, want %d", n, len(hostile))
	}
	if n := handled.Load(); n != 1 {
		t.Errorf("handler saw %d requests, want only the real call", n)
	}
}

// TestSendUnregisteredPayload: a payload type without a wire
// registration fails at the sender and puts nothing on the socket.
func TestSendUnregisteredPayload(t *testing.T) {
	type unregistered struct{ X int }
	var wireSent, sendErrors atomic.Int32
	a := listen(t, Config{Obs: obs.TransportHooks{
		WireSent:  func(int) { wireSent.Add(1) },
		SendError: func(string) { sendErrors.Add(1) },
	}})
	b := listen(t, Config{})
	got := make(chan *transport.Request, 2)
	b.Handle(func(r *transport.Request) { got <- r })

	err := a.Send(b.Addr(), "unreg", unregistered{X: 1})
	if !errors.Is(err, wire.ErrUnregistered) {
		t.Fatalf("Send error = %v, want wire.ErrUnregistered", err)
	}
	if wireSent.Load() != 0 || sendErrors.Load() != 1 {
		t.Errorf("after a failed encode: %d frames written, %d send errors; want 0 and 1", wireSent.Load(), sendErrors.Load())
	}
	// The next datagram b sees is the next one a really sends.
	if err := a.Send(b.Addr(), "reg", testPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.Type != "reg" {
			t.Errorf("first delivery is %q, want the registered send", r.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("registered send not delivered")
	}
}

func netDial(addr string) (*net.UDPConn, error) {
	udp, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, udp)
}

// TestLateReplyIgnored: a reply arriving after the call gave up must be
// dropped silently (no panic, no double callback).
func TestLateReplyIgnored(t *testing.T) {
	a := listen(t, Config{CallTimeout: 30 * time.Millisecond})
	b := listen(t, Config{})
	var reqs []*transport.Request
	var mu sync.Mutex
	b.Handle(func(r *transport.Request) {
		mu.Lock()
		reqs = append(reqs, r) // hold the reply hostage
		mu.Unlock()
	})
	calls := 0
	done := make(chan error, 1)
	a.Call(b.Addr(), "slow", testPayload{}, func(_ any, err error) {
		calls++
		done <- err
	})
	if err := <-done; !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	// Now release the reply: it must be ignored.
	mu.Lock()
	for _, r := range reqs {
		r.Reply(testPayload{N: 99})
	}
	mu.Unlock()
	time.Sleep(100 * time.Millisecond)
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
}
