// Package wirereg is the wirereg analyzer fixture: locally-declared
// payload types sent over the transport must be wire.Register-ed;
// registered types, foreign types, and justified exceptions must pass.
package wirereg

import (
	"transport"
	"wire"
)

// GoodMsg is registered below, so sending it is clean.
type GoodMsg struct {
	N uint64
}

// BadMsg is declared here but never registered: every send over a
// socket fails to encode.
type BadMsg struct {
	S string
}

// ReplyMsg is an unregistered response payload.
type ReplyMsg struct {
	OK bool
}

// Exempt is deliberately unregistered; the pragma documents why.
type Exempt struct {
	X int
}

func init() {
	wire.Register(0x10, GoodMsg{},
		func(e *wire.Encoder, v any) {},
		func(d *wire.Decoder) (any, error) { return GoodMsg{}, nil })
}

// Node sends protocol messages.
type Node struct {
	ep   transport.Endpoint
	succ transport.Addr
}

// GoodRegistered sends a registered payload.
func (n *Node) GoodRegistered() error {
	return n.ep.Send(n.succ, "good", GoodMsg{N: 1})
}

// GoodNilPayload sends no payload at all.
func (n *Node) GoodNilPayload() error {
	return n.ep.Send(n.succ, "ping", nil)
}

// BadSend ships an unregistered local type.
func (n *Node) BadSend() error {
	return n.ep.Send(n.succ, "bad", BadMsg{S: "x"}) // want `payload type BadMsg is sent over the transport but never wire\.Register-ed; it fails to encode \(wire\.ErrUnregistered\)`
}

// BadCall ships one as a request payload.
func (n *Node) BadCall() {
	n.ep.Call(n.succ, "bad", BadMsg{S: "y"}, func(resp any, err error) { // want `payload type BadMsg is sent over the transport but never wire\.Register-ed; it fails to encode \(wire\.ErrUnregistered\)`
		if err != nil {
			return
		}
		use(resp)
	})
}

// BadReply ships one as a response payload.
func (n *Node) BadReply(r *transport.Request) {
	r.Reply(ReplyMsg{OK: true}) // want `payload type ReplyMsg is sent over the transport but never wire\.Register-ed; it fails to encode \(wire\.ErrUnregistered\)`
}

// BadPointer ships a pointer to an unregistered local type; the
// analyzer sees through the indirection.
func (n *Node) BadPointer() error {
	m := &BadMsg{S: "z"}
	return n.ep.Send(n.succ, "bad", m) // want `payload type BadMsg is sent over the transport but never wire\.Register-ed; it fails to encode \(wire\.ErrUnregistered\)`
}

// Justified documents a deliberately unregistered payload with the pragma.
func (n *Node) Justified() error {
	return n.ep.Send(n.succ, "exempt", Exempt{X: 1}) //datlint:ignore wirereg fixture: experimental message, simulator only
}

// GoodForeign sends a type declared elsewhere: registering it is that
// package's job, not this one's.
func (n *Node) GoodForeign() error {
	return n.ep.Send(n.succ, "foreign", transport.Request{})
}

// GoodVariable sends an interface-typed value the analyzer cannot (and
// should not) resolve.
func (n *Node) GoodVariable(payload any) error {
	return n.ep.Send(n.succ, "opaque", payload)
}

func use(any) {}
