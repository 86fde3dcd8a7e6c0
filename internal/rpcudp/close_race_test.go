package rpcudp

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestCloseWhileCalling races Close against goroutines inside Call. A
// Call once registered its pendingCall and armed its timer in two
// steps, and Close dereferenced the nil timer of a call caught between
// them. Nothing answers and the call timeout is long, so every
// callback must be transport.ErrClosed, delivered exactly once per
// call — by Close for calls it found pending, by Call itself afterwards.
func TestCloseWhileCalling(t *testing.T) {
	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	to := transport.Addr(silent.LocalAddr().String())

	const rounds, callers, perCaller = 40, 8, 64
	for round := 0; round < rounds; round++ {
		e, err := Listen("127.0.0.1:0", Config{CallTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		var delivered [callers * perCaller]atomic.Int32
		var wrong atomic.Int32
		var issued atomic.Int32
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perCaller; i++ {
					slot := &delivered[g*perCaller+i]
					issued.Add(1)
					e.Call(to, "x", testPayload{N: i}, func(_ any, err error) {
						slot.Add(1)
						if !errors.Is(err, transport.ErrClosed) {
							wrong.Add(1)
						}
					})
				}
			}(g)
		}
		close(start)
		for issued.Load() < int32(round%perCaller)+1 {
			runtime.Gosched() // let the callers get going, a different distance each round
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for i := range delivered {
			if n := delivered[i].Load(); n != 1 {
				t.Fatalf("round %d: call %d got %d callbacks, want exactly 1", round, i, n)
			}
		}
		if n := wrong.Load(); n != 0 {
			t.Fatalf("round %d: %d callbacks carried an error other than ErrClosed", round, n)
		}
	}
}
