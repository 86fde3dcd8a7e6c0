// Package transport is a fixture standing in for repro/internal/transport;
// locksafe and senderr recognize its Send/Call/Close/Reply methods by the
// bare package path "transport".
package transport

import (
	"errors"
	"time"
)

// Addr is a network address.
type Addr string

// ErrClosed reports a send on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Endpoint is the messaging surface, mirroring the real interface.
type Endpoint interface {
	Addr() Addr
	Send(to Addr, typ string, payload any) error
	Call(to Addr, typ string, payload any, cb func(resp any, err error))
	CallWithin(to Addr, typ string, payload any, d time.Duration, cb func(resp any, err error))
	Close() error
}

// Request is one inbound message.
type Request struct {
	From    Addr
	Type    string
	Payload any
	reply   func(resp any, err error)
}

// Reply answers the request.
func (r *Request) Reply(payload any) {
	if r.reply != nil {
		r.reply(payload, nil)
	}
}

// ReplyError answers the request with an error.
func (r *Request) ReplyError(err error) {
	if r.reply != nil {
		r.reply(nil, err)
	}
}

// Tap observes every delivered message, mirroring the real interface.
type Tap interface {
	Message(from, to Addr, typ string, oneWay bool)
}

// TapFunc adapts a function to Tap.
type TapFunc func(from, to Addr, typ string, oneWay bool)

// Message implements Tap.
func (f TapFunc) Message(from, to Addr, typ string, oneWay bool) { f(from, to, typ, oneWay) }
