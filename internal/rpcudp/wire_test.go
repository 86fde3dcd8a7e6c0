package rpcudp

// Live-socket tests for the wire seam: the byte-count telemetry hooks
// and the resolved-address cache.

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestWireTelemetry covers the WireSent/WireReceived hooks: one frame's
// bytes are counted once on each side, and agree.
func TestWireTelemetry(t *testing.T) {
	var sentBytes, recvBytes atomic.Int64
	a := listen(t, Config{Obs: obs.TransportHooks{WireSent: func(n int) { sentBytes.Add(int64(n)) }}})
	b := listen(t, Config{Obs: obs.TransportHooks{WireReceived: func(n int) { recvBytes.Add(int64(n)) }}})
	got := make(chan *transport.Request, 1)
	b.Handle(func(r *transport.Request) { got <- r })

	if err := a.Send(b.Addr(), "reg", testPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("send not delivered")
	}
	if s, r := sentBytes.Load(), recvBytes.Load(); s == 0 || s != r {
		t.Errorf("wire byte counters: sent=%d recv=%d, want equal and non-zero", s, r)
	}
}

// TestResolveCache pins the satellite: one ResolveUDPAddr per distinct
// destination, with every later send served from the cache.
func TestResolveCache(t *testing.T) {
	e := listen(t, Config{})
	first, err := e.resolve("127.0.0.1:9999")
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.resolve("127.0.0.1:9999")
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("second resolve did not hit the cache")
	}
	if _, err := e.resolve("127.0.0.1:9998"); err != nil {
		t.Fatal(err)
	}
	e.addrMu.RLock()
	n := len(e.addrs)
	e.addrMu.RUnlock()
	if n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
	if _, err := e.resolve("not-an-address"); err == nil {
		t.Error("bad address resolved without error")
	}
}
