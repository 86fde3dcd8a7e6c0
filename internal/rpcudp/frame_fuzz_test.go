package rpcudp

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

func frame(t testing.TB, env wire.Envelope) []byte {
	t.Helper()
	b, _, err := wire.Compact{}.Append(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzEndpointFrame writes arbitrary datagrams at a loopback Endpoint
// from a raw socket and checks what its inbound path does with them
// against a model: a frame that does not decode, or decodes to an
// unknown kind, reaches no handler; a one-way or call frame reaches the
// handler exactly once; and a reply or error frame completes a pending
// call only if its Seq names one. Each datagram is followed by a
// sentinel one-way frame the fuzzer cannot forge, so once the handler
// sees the sentinel the datagram before it has been fully handled. The
// handler never replies: a fuzzed From must not become a destination.
func FuzzEndpointFrame(f *testing.F) {
	f.Add(frame(f, wire.Envelope{Kind: kindOneWay, Type: "ping", From: "127.0.0.1:1", Payload: testPayload{N: 1}}))
	f.Add(frame(f, wire.Envelope{Kind: kindCall, Seq: 7, Type: "ping", From: "127.0.0.1:1", Payload: testPayload{S: "x"}}))
	f.Add(frame(f, wire.Envelope{Kind: kindReply, Seq: 1, Type: "ping", From: "127.0.0.1:1", Payload: testPayload{N: 2}}))
	f.Add(frame(f, wire.Envelope{Kind: kindReply, Seq: 99, Type: "ping", From: "127.0.0.1:1"}))
	f.Add(frame(f, wire.Envelope{Kind: kindError, Seq: 1, Type: "ping", ErrText: "refused"}))
	f.Add(frame(f, wire.Envelope{Kind: 9, Seq: 1, Type: "ping", From: "127.0.0.1:1"}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	e := listen(f, Config{CallTimeout: time.Hour})
	sink := listen(f, Config{}) // no handler: drops every request, so the probe call stays pending
	type record struct{ typ, from string }
	got := make(chan record, 16) // one datagram and its sentinel reach it per input: room to spare
	e.Handle(func(r *transport.Request) { got <- record{r.Type, string(r.From)} })
	raw, err := net.DialUDP("udp", nil, e.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { raw.Close() })

	// probe is the one call in flight; seq is its sequence number, the
	// count of Calls this endpoint has made.
	var probeDone atomic.Bool
	seq := uint64(0)
	arm := func() {
		probeDone.Store(false)
		seq++
		e.Call(sink.Addr(), "probe", testPayload{}, func(any, error) { probeDone.Store(true) })
	}
	arm()
	iter := 0

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 60000 {
			return // beyond one UDP datagram
		}
		iter++
		sentinel := fmt.Sprintf("sentinel-%d", iter)
		if _, err := raw.Write(data); err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(frame(t, wire.Envelope{Kind: kindOneWay, Type: "sentinel", From: sentinel, Payload: testPayload{}})); err != nil {
			t.Fatal(err)
		}
		var seen []record
		timeout := time.After(5 * time.Second)
		for done := false; !done; {
			select {
			case r := <-got:
				if r.typ == "sentinel" && r.from == sentinel {
					done = true
				} else {
					seen = append(seen, r)
				}
			case <-timeout:
				t.Fatal("the endpoint stopped reading")
			}
		}

		env, _, err := wire.Compact{}.Decode(data)
		wantRecords, completes := 0, false
		if err == nil {
			switch env.Kind {
			case kindOneWay, kindCall:
				wantRecords = 1
			case kindReply, kindError:
				completes = env.Seq == seq
			}
		}
		if len(seen) != wantRecords || (wantRecords == 1 && seen[0].typ != env.Type) {
			t.Fatalf("frame %+v (decode err %v) reached the handler as %+v", env, err, seen)
		}
		if probeDone.Load() != completes || (e.PendingCalls() == 0) != completes {
			t.Fatalf("frame %+v: pending call %d completed=%v with %d pending, want completed=%v",
				env, seq, probeDone.Load(), e.PendingCalls(), completes)
		}
		if completes {
			arm()
		}
	})
}
