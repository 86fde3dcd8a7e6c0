// Package transport defines the messaging interface shared by the Chord
// and DAT layers and provides the simulated implementation.
//
// The paper's prototype (§4) runs the same Chord/DAT code over either a
// UDP RPC manager or a discrete event simulation engine; this package is
// the seam that makes that possible here. Protocol code is written in a
// non-blocking, continuation-passing style against Endpoint, so a single
// implementation runs unchanged over:
//
//   - SimNetwork: deliveries scheduled on a sim.Engine with a pluggable
//     latency model, deterministic and single-threaded, for 8192-node runs;
//   - rpcudp.Endpoint (sibling package): real UDP sockets, real
//     goroutines — the one the race detector exercises.
//
// Serialization lives below this seam, not in it: SimNetwork passes
// payload values over untouched (simulation traces never touch the
// codec), while the UDP transport serializes each message with
// wire.Compact (internal/wire, DESIGN.md §11). Payload types crossing
// Endpoint.Send/Call or Request.Reply must be registered with that
// codec next to their declaration — the wirereg datlint analyzer
// enforces it.
package transport

import (
	"errors"
	"fmt"
	"time"
)

// Addr identifies an endpoint. The format is implementation-defined
// ("sim/42", "127.0.0.1:9123"); protocol layers treat it as opaque.
type Addr string

// DefaultCallTimeout is the deadline Call gives a request on every
// transport unless the endpoint was configured with another.
const DefaultCallTimeout = 2 * time.Second

// Common transport errors.
var (
	ErrTimeout = errors.New("transport: request timed out")
	ErrClosed  = errors.New("transport: endpoint closed")
	// ErrTooLarge reports a message the transport cannot carry in one
	// datagram. Like ErrClosed it says nothing about the destination.
	ErrTooLarge = errors.New("transport: message too large")
)

// NewRequest assembles an inbound Request for delivery to a Handler.
// Transport implementations outside this package (e.g. the UDP RPC
// layer) use it to attach their reply path; pass a nil reply for one-way
// messages.
func NewRequest(from Addr, typ string, payload any, reply func(payload any, err error)) *Request {
	r := &Request{From: from, Type: typ, Payload: payload}
	if reply != nil {
		r.reply = replyFunc(reply)
	}
	return r
}

// replier is a two-way Request's way back to its caller. It is an
// interface rather than a func so that a transport whose exchange is
// already a record (SimNetwork's simCall) can be its own reply path,
// where a method value bound per exchange would be a second allocation.
type replier interface {
	reply(payload any, err error)
}

// replyFunc is the replier NewRequest wraps a plain func in.
type replyFunc func(payload any, err error)

func (f replyFunc) reply(payload any, err error) { f(payload, err) }

// Request is an inbound message delivered to a Handler. For two-way calls
// the handler must eventually invoke Reply or ReplyError exactly once;
// for one-way messages both are no-ops.
type Request struct {
	From    Addr
	Type    string
	Payload any

	reply replier // nil for one-way messages
	done  bool
}

// OneWay reports whether the sender expects no reply.
func (r *Request) OneWay() bool { return r.reply == nil }

// Reply sends a successful response. Replying twice panics: it indicates
// a protocol-handler bug that would otherwise corrupt request matching.
func (r *Request) Reply(payload any) {
	if r.reply == nil {
		return
	}
	if r.done {
		panic(fmt.Sprintf("transport: duplicate reply to %s request from %s", r.Type, r.From))
	}
	r.done = true
	r.reply.reply(payload, nil)
}

// ReplyError sends an error response.
func (r *Request) ReplyError(err error) {
	if r.reply == nil {
		return
	}
	if r.done {
		panic(fmt.Sprintf("transport: duplicate reply to %s request from %s", r.Type, r.From))
	}
	r.done = true
	r.reply.reply(nil, err)
}

// Handler consumes inbound messages and requests.
type Handler func(*Request)

// ResponseFunc receives the outcome of a Call. It is invoked exactly once.
type ResponseFunc func(payload any, err error)

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() Addr
	// Send fires a one-way message. Delivery is best-effort.
	Send(to Addr, typ string, payload any) error
	// Call is CallWithin under the endpoint's configured call timeout
	// (DefaultCallTimeout unless set).
	Call(to Addr, typ string, payload any, cb ResponseFunc)
	// CallWithin issues a request as one datagram, never resent, and
	// invokes cb exactly once: with the reply, the error the callee
	// replied with, ErrClosed, or ErrTimeout once d has passed without
	// an answer (d <= 0 is due at once). A reply after that is dropped.
	// The deadline is the transport's alone: a caller that wants a
	// verdict by some instant passes the time left until it, and arms no
	// timer of its own. cb may run on another goroutine for real
	// transports, or inline within the event loop for simulated ones —
	// callers must do their own locking. A nil cb panics.
	CallWithin(to Addr, typ string, payload any, d time.Duration, cb ResponseFunc)
	// Handle registers the inbound handler. It must be set before the
	// endpoint receives traffic; registering twice replaces the handler.
	Handle(h Handler)
	// Close detaches the endpoint: it stops receiving, and Send and Call
	// on it fail with ErrClosed from then on. What becomes of a Call
	// already in flight is the implementation's business: rpcudp fails
	// it with ErrClosed at once; SimNetwork does not track it, so it
	// completes with its reply if one comes and with ErrTimeout
	// otherwise, and a request addressed to the closed endpoint is
	// dropped like UDP to a dead host.
	Close() error
}

// Tap observes every message delivered by a network, for metrics.
// typ is the message type; oneWay distinguishes fire-and-forget messages
// from request/response pairs (responses are reported with typ suffixed
// ":reply"). Implementations must be safe for concurrent use when
// attached to concurrent networks.
type Tap interface {
	Message(from, to Addr, typ string, oneWay bool)
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(from, to Addr, typ string, oneWay bool)

// Message implements Tap.
func (f TapFunc) Message(from, to Addr, typ string, oneWay bool) { f(from, to, typ, oneWay) }
