package chord

import (
	"sort"

	"repro/internal/ident"
	"repro/internal/transport"
)

// Broadcast disseminates an application payload to every ring member
// using the classic finger-range flooding scheme (the "broadcast" routine
// of §4): each node forwards the message to every distinct finger inside
// its assigned range, handing each finger the sub-range up to the next
// finger. Over converged finger tables every node receives the payload
// exactly once, for n-1 messages total and O(log n) depth.
//
// The payload is delivered locally through the OnBroadcast upcall as
// well, including on the origin.
func (n *Node) Broadcast(payloadType string, payload []byte) {
	self := n.Self()
	msg := BroadcastMsg{
		Origin:  self,
		Limit:   self.ID, // (self, self) == the whole remaining ring
		Type:    payloadType,
		Payload: payload,
	}
	n.deliverUpcall(msg)
	n.forwardBroadcast(msg)
}

func (n *Node) handleBroadcast(req *transport.Request) {
	msg, ok := req.Payload.(BroadcastMsg)
	if !ok {
		return
	}
	n.deliverUpcall(msg)
	msg.Hops++
	n.forwardBroadcast(msg)
}

func (n *Node) deliverUpcall(msg BroadcastMsg) {
	n.mu.Lock()
	fn := n.upcalls[msg.Type]
	n.mu.Unlock()
	if fn != nil {
		fn(msg.Origin, msg.Payload)
	}
}

// forwardBroadcast relays msg to each distinct routing neighbor inside
// (self, msg.Limit), assigning each the sub-range ending at the next
// neighbor.
func (n *Node) forwardBroadcast(msg BroadcastMsg) {
	rt := n.Routing()
	self := rt.Self
	space := n.space
	seen := map[transport.Addr]bool{self.Addr: true}
	var targets []NodeRef
	add := func(ref NodeRef) {
		if ref.IsZero() || seen[ref.Addr] {
			return
		}
		seen[ref.Addr] = true
		targets = append(targets, ref)
	}
	for _, f := range rt.Fingers {
		add(f)
	}
	for _, s := range rt.Succs {
		add(s)
	}

	// Order targets clockwise from self and keep those inside the range.
	sort.Slice(targets, func(i, j int) bool {
		return space.Dist(self.ID, targets[i].ID) < space.Dist(self.ID, targets[j].ID)
	})
	var inRange []NodeRef
	for _, t := range targets {
		if inBroadcastRange(space, t.ID, self.ID, msg.Limit) {
			inRange = append(inRange, t)
		}
	}
	for i, t := range inRange {
		sub := msg
		if i+1 < len(inRange) {
			sub.Limit = inRange[i+1].ID
		} else {
			sub.Limit = msg.Limit
		}
		n.Send(t.Addr, MsgBroadcast, sub)
	}
}

// inBroadcastRange reports whether x is inside the open interval
// (self, limit); limit == self denotes the full remaining circle.
func inBroadcastRange(space ident.Space, x, self, limit ident.ID) bool {
	if self == limit {
		return x != self
	}
	return space.Between(x, self, limit)
}
