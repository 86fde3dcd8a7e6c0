// Package senderr is the senderr analyzer fixture: discarded errors
// from transport send paths must be flagged; handled errors and
// explicitly justified fire-and-forget sites must not.
package senderr

import (
	"errors"
	"time"

	"transport"
)

// Node pairs an endpoint with a failure detector hook.
type Node struct {
	ep   transport.Endpoint
	succ transport.Addr
}

func (n *Node) suspect(transport.Addr) {}

// BadDropped discards the send error in statement position.
func (n *Node) BadDropped() {
	n.ep.Send(n.succ, "ping", nil) // want `transport send error silently dropped`
}

// BadBlank discards it through the blank identifier.
func (n *Node) BadBlank() {
	_ = n.ep.Send(n.succ, "ping", nil) // want `transport send error discarded with _`
}

// GoodHandled feeds the failure to the detector.
func (n *Node) GoodHandled() {
	if err := n.ep.Send(n.succ, "ping", nil); err != nil {
		n.suspect(n.succ)
	}
}

// GoodReturned propagates the error to the caller.
func (n *Node) GoodReturned() error {
	return n.ep.Send(n.succ, "ping", nil)
}

// Justified documents a genuinely fire-and-forget site with the pragma.
func (n *Node) Justified() {
	n.ep.Send(n.succ, "gossip", nil) //datlint:ignore senderr fixture: best-effort gossip, loss is priced in
}

// BadCallBlankErr discards the response error with the blank
// identifier: an ack timeout would vanish without a detector strike.
func (n *Node) BadCallBlankErr() {
	n.ep.Call(n.succ, "ping", nil, func(resp any, _ error) { // want `Call response error ignored by the callback`
		use(resp)
	})
}

// BadCallUnnamedErr elides the parameter names entirely.
func (n *Node) BadCallUnnamedErr() {
	n.ep.Call(n.succ, "ping", nil, func(any, error) {}) // want `Call response error ignored by the callback`
}

// BadCallUnusedErr names the error but never reads it — legal Go, but
// the timeout signal still goes nowhere.
func (n *Node) BadCallUnusedErr() {
	n.ep.Call(n.succ, "ping", nil, func(resp any, err error) { // want `Call response error err is never read in the callback`
		use(resp)
	})
}

// BadCallWithinUnusedErr ignores the error of a call with its own
// deadline: that deadline's ErrTimeout goes nowhere either.
func (n *Node) BadCallWithinUnusedErr() {
	n.ep.CallWithin(n.succ, "ping", nil, time.Second, func(resp any, err error) { // want `Call response error err is never read in the callback`
		use(resp)
	})
}

// GoodCallHandled feeds the callback error to the failure detector.
func (n *Node) GoodCallHandled() {
	n.ep.Call(n.succ, "ping", nil, func(resp any, err error) {
		if err != nil {
			n.suspect(n.succ)
			return
		}
		use(resp)
	})
}

// GoodCallShadow reads the error through a shadowing use.
func (n *Node) GoodCallShadow() {
	n.ep.Call(n.succ, "ping", nil, func(resp any, err error) {
		use(err)
	})
}

// JustifiedCall documents a reply-agnostic probe with the pragma.
func (n *Node) JustifiedCall() {
	n.ep.Call(n.succ, "probe", nil, func(any, error) {}) //datlint:ignore senderr fixture: liveness probe, reply content irrelevant
}

// errOverload stands in for the send machine's typed local refusal
// (core.ErrSendClosed): it arrives through the same callback error as an
// ack timeout.
var errOverload = errors.New("send queues over budget")

// BadOverloadErrDropped drops the Call error even though the send
// machine delivers its typed refusal through it: a refused update would
// look delivered.
func (n *Node) BadOverloadErrDropped() {
	n.ep.Call(n.succ, "update", nil, func(resp any, _ error) { // want `Call response error ignored by the callback`
		use(resp)
	})
}

// GoodShedPathInvokesCallback is the refusal contract: a callback
// refused locally is still invoked — with the typed error — and the call
// site reads it, so nothing is lost silently.
func (n *Node) GoodShedPathInvokesCallback(full bool) {
	cb := func(resp any, err error) {
		if err != nil {
			if errors.Is(err, errOverload) {
				return // local refusal: no peer evidence, no strike
			}
			n.suspect(n.succ)
			return
		}
		use(resp)
	}
	if full {
		cb(nil, errOverload) // refused: the callback still fires, typed
		return
	}
	n.ep.Call(n.succ, "update", nil, cb)
}

func use(...any) {}
