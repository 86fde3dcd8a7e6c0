// Package transporttest is the one contract every transport.Endpoint
// keeps, written once and run against each implementation: the
// simulated network (internal/transport) and the UDP RPC manager
// (internal/rpcudp). A call is one datagram with one deadline and
// exactly one answer on both, which is what lets the Chord and DAT
// layers run unchanged over either (paper §4).
package transporttest

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Payload is the value the contract's calls carry, registered with the
// wire codec so that a transport which serializes carries it too.
type Payload struct{ N int }

func init() {
	wire.Register(wire.CodeTestBase+1, Payload{},
		func(e *wire.Encoder, v any) { e.Varint(int64(v.(Payload).N)) },
		func(d *wire.Decoder) (any, error) { return Payload{N: int(d.Varint())}, nil })
}

// Pair is two endpoints of one network, built fresh for every case: A
// calls, B answers.
type Pair struct {
	A, B transport.Endpoint
	// Timeout is the deadline A's Call gives a request.
	Timeout time.Duration
	// Slack is how late a deadline may fire: zero on a simulated
	// network, scheduling noise on a real one. Keep it under 9/10 of
	// Timeout, so a deadline of Timeout/10 is told apart from Timeout.
	Slack time.Duration
	// Now reads the network's clock; Run lets d of its time pass —
	// virtual time on a simulated network, wall time on a real one.
	Now func() time.Duration
	Run func(d time.Duration)
}

// answer is one invocation of a call's callback.
type answer struct {
	payload any
	err     error
	at      time.Duration
}

// calls records the answers of n calls and the requests that reached
// B. Real transports call back on their own goroutines, so it locks.
type calls struct {
	p    Pair
	mu   sync.Mutex
	got  [][]answer
	reqs []*transport.Request
}

func newCalls(p Pair, n int) *calls { return &calls{p: p, got: make([][]answer, n)} }

// cb is call i's callback.
func (c *calls) cb(i int) transport.ResponseFunc {
	return func(payload any, err error) {
		at := c.p.Now()
		c.mu.Lock()
		c.got[i] = append(c.got[i], answer{payload, err, at})
		c.mu.Unlock()
	}
}

// hold is B's handler when a case replies by hand, or never.
func (c *calls) hold(r *transport.Request) {
	c.mu.Lock()
	c.reqs = append(c.reqs, r)
	c.mu.Unlock()
}

func (c *calls) answers(i int) []answer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]answer(nil), c.got[i]...)
}

func (c *calls) held() []*transport.Request {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*transport.Request(nil), c.reqs...)
}

func (c *calls) answered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.got {
		if len(a) == 0 {
			return false
		}
	}
	return true
}

// await runs the network until cond holds or limit of its time passed.
func (c *calls) await(limit time.Duration, cond func() bool) {
	for end := c.p.Now() + limit; !cond() && c.p.Now() < end; {
		c.p.Run(limit/50 + 1)
	}
}

// one fails t unless call i heard exactly one answer and it is ok.
func (c *calls) one(t *testing.T, i int, want string, ok func(answer) bool) answer {
	t.Helper()
	got := c.answers(i)
	if len(got) != 1 || !ok(got[0]) {
		t.Fatalf("call %d heard %+v, want one answer: %s", i, got, want)
	}
	return got[0]
}

func isErr(target error) func(answer) bool {
	return func(a answer) bool { return errors.Is(a.err, target) }
}

// Run checks the Endpoint contract on pairs from newPair, which
// registers the endpoints' cleanup with t.
func Run(t *testing.T, newPair func(t *testing.T) Pair) {
	t.Run("round-trip", func(t *testing.T) {
		p := newPair(t)
		p.B.Handle(func(r *transport.Request) { r.Reply(Payload{N: 2 * r.Payload.(Payload).N}) })
		c := newCalls(p, 1)
		p.A.Call(p.B.Addr(), "double", Payload{N: 21}, c.cb(0))
		c.await(p.Timeout, c.answered)
		p.Run(p.Timeout / 10)
		c.one(t, 0, "Payload{42}", func(a answer) bool { return a.err == nil && a.payload == Payload{N: 42} })
	})

	t.Run("error-reply", func(t *testing.T) {
		p := newPair(t)
		p.B.Handle(func(r *transport.Request) { r.ReplyError(errors.New("nope")) })
		c := newCalls(p, 1)
		p.A.Call(p.B.Addr(), "refuse", Payload{}, c.cb(0))
		c.await(p.Timeout, c.answered)
		c.one(t, 0, `error "nope"`, func(a answer) bool { return a.err != nil && a.err.Error() == "nope" && a.payload == nil })
	})

	// One request reaches a handler that never replies, and ErrTimeout
	// comes at the call's own deadline: Call's is the endpoint's
	// Timeout, CallWithin's the one it is given, shorter or longer.
	for name, within := range map[string]int{"call-default": 0, "within-shorter": 1, "within-longer": 20} {
		t.Run("silent-"+name, func(t *testing.T) {
			p := newPair(t)
			c := newCalls(p, 1)
			p.B.Handle(c.hold)
			d, start := p.Timeout*time.Duration(within)/10, p.Now()
			if within == 0 {
				d = p.Timeout
				p.A.Call(p.B.Addr(), "void", Payload{}, c.cb(0))
			} else {
				p.A.CallWithin(p.B.Addr(), "void", Payload{}, d, c.cb(0))
			}
			c.await(d+p.Slack+p.Timeout, c.answered)
			p.Run(p.Timeout) // room for a resend or a second answer, were there one
			a := c.one(t, 0, "ErrTimeout", isErr(transport.ErrTimeout))
			if at := a.at - start; at < d || at > d+p.Slack {
				t.Fatalf("ErrTimeout %v after the call, want %v (slack %v)", at, d, p.Slack)
			}
			if n := len(c.held()); n != 1 {
				t.Fatalf("%d requests reached the handler, want exactly 1", n)
			}
		})
	}

	// Replies leave B a millisecond apart around the instant the
	// deadline passes: on a simulated network one lands on that very
	// instant, on a real one some race the deadline's timer. Each call
	// still hears exactly one answer, its reply or ErrTimeout.
	t.Run("reply-races-deadline", func(t *testing.T) {
		p := newPair(t)
		const n = 8
		c := newCalls(p, n)
		p.B.Handle(c.hold)
		d, start := p.Timeout/2, p.Now()
		for i := 0; i < n; i++ {
			p.A.CallWithin(p.B.Addr(), "race", Payload{N: i}, d, c.cb(i))
		}
		c.await(d/2, func() bool { return len(c.held()) == n })
		reqs := c.held()
		if len(reqs) != n {
			t.Fatalf("%d of %d requests arrived within %v", len(reqs), n, d/2)
		}
		for i, r := range reqs {
			if wait := start + d + time.Duration(i-n/2)*time.Millisecond - p.Now(); wait > 0 {
				p.Run(wait)
			}
			r.Reply(Payload{N: -1})
		}
		p.Run(d + p.Slack)
		for i := 0; i < n; i++ {
			c.one(t, i, "its reply or ErrTimeout", func(a answer) bool {
				return errors.Is(a.err, transport.ErrTimeout) || a.err == nil && a.payload == Payload{N: -1}
			})
		}
	})

	t.Run("late-reply-ignored", func(t *testing.T) {
		p := newPair(t)
		c := newCalls(p, 1)
		p.B.Handle(c.hold)
		d := p.Timeout / 4
		p.A.CallWithin(p.B.Addr(), "slow", Payload{}, d, c.cb(0))
		c.await(d+p.Slack+p.Timeout, c.answered)
		for _, r := range c.held() {
			r.Reply(Payload{N: 99})
		}
		p.Run(d)
		c.one(t, 0, "ErrTimeout, the late reply dropped", isErr(transport.ErrTimeout))
	})

	t.Run("nil-callback-panics", func(t *testing.T) {
		p := newPair(t)
		for name, call := range map[string]func(){
			"Call":       func() { p.A.Call(p.B.Addr(), "x", Payload{}, nil) },
			"CallWithin": func() { p.A.CallWithin(p.B.Addr(), "x", Payload{}, p.Timeout, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with a nil callback did not panic", name)
					}
				}()
				call()
			}()
		}
	})

	t.Run("closed", func(t *testing.T) {
		p := newPair(t)
		p.B.Handle(func(r *transport.Request) { r.Reply(Payload{}) })
		if err := p.A.Close(); err != nil {
			t.Fatal(err)
		}
		c := newCalls(p, 2)
		p.A.Call(p.B.Addr(), "x", Payload{}, c.cb(0))
		p.A.CallWithin(p.B.Addr(), "x", Payload{}, p.Timeout, c.cb(1))
		c.await(p.Timeout, c.answered)
		c.one(t, 0, "ErrClosed", isErr(transport.ErrClosed))
		c.one(t, 1, "ErrClosed", isErr(transport.ErrClosed))
		if err := p.A.Send(p.B.Addr(), "x", Payload{}); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("Send after Close: %v, want ErrClosed", err)
		}
	})
}
