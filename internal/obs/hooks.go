package obs

import (
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
)

// The hook structs below are the one-way seams between the protocol
// layers and this package: chord, core, and the transports accept a
// hooks value in their Config, maan.Service through Observe, and invoke
// the non-nil fields at the named events. The zero value disables everything, so un-instrumented
// stacks pay only a nil check. Hooks are invoked outside the caller's
// locks and must not block; Observer's implementations only bump
// atomic instruments or append to the span ring.

// ChordHooks receives overlay-protocol telemetry from internal/chord.
type ChordHooks struct {
	// LookupDone fires once per completed Lookup with the number of
	// remote hops taken and the terminal error (nil on success).
	LookupDone func(hops int, err error)
	// StabilizeRound fires at the start of each stabilization round that
	// runs. A quiet ring stretches the stabilize period, and a round it
	// skips is never scheduled, so it does not fire.
	StabilizeRound func()
	// JoinDone fires when a Join attempt completes, with its latency on
	// the node's clock.
	JoinDone func(d time.Duration, err error)
	// Suspected fires on each ring strike a peer earns in the peer-health
	// record; Evicted when the second removes it (DESIGN.md §10).
	Suspected func(addr transport.Addr)
	Evicted   func(addr transport.Addr)
}

// CoreHooks receives DAT aggregation telemetry from internal/core. A
// node has one set — an Observer's, or the zero value — and no protocol
// state depends on any of them firing.
type CoreHooks struct {
	// Span fires at the receiver for every value-update hop.
	Span func(s Span)
	// RoundDone fires after a node finishes its part of a continuous
	// round: root tells whether this node completed the round at the
	// DAT root, fanIn is the number of child partials folded, nodes the
	// contributing node count, latency the time from the slot boundary
	// to completion on the node's clock.
	RoundDone func(key ident.ID, slot int64, root bool, fanIn int, nodes uint64, latency time.Duration)
	// UpdateApplied fires when an inbound child update for key is
	// accepted into the child cache; UpdateRejected when it is
	// discarded, with a short reason ("cycle", "no-slot").
	UpdateApplied  func(key ident.ID, demand bool)
	UpdateRejected func(key ident.ID, reason string)
	// ChildExpired fires when TTL expiry drops n cached child entries.
	ChildExpired func(n int)
	// UpdateRetried fires for every delivery attempt after the first of
	// an acked update for key (retry of the same parent or a failover
	// re-send).
	UpdateRetried func(key ident.ID)
	// ParentFailover fires when an ack timeout makes a child re-route a
	// pending update to a different parent candidate (DESIGN.md §10).
	ParentFailover func()
	// RootHandover fires when an update destined for an unreachable key
	// root is re-routed to the next live successor-list entry.
	RootHandover func()
	// DeliveryDone fires when a delivery attempt chain ends: ok tells
	// whether any parent acked, attempts is the total send count, and
	// latency the time from first send to the terminal event.
	DeliveryDone func(ok bool, attempts int, latency time.Duration)
	// BatchFlush fires when the send machine puts one destination
	// queue on the wire: reason is the flush trigger ("bytes", "elems",
	// "deadline", "drain"), elems the element count, and bytesSaved the
	// estimated per-datagram overhead avoided by coalescing
	// (DESIGN.md §12).
	BatchFlush func(reason string, elems, bytesSaved int)
	// TreeSent fires once per outbound element attributable to an
	// aggregation key: each element a send-machine flush puts on the
	// wire, detaches included. typ is the wire type
	// ("dat.update", "dat.detach") and bytes the element's estimated
	// payload size. It feeds the Observer's per-tree table and nothing
	// else: the node's own load scalars are counted by core.Node at the
	// same site (DESIGN.md §13).
	TreeSent func(key ident.ID, typ string, bytes int)
	// Breaker fires on every transition of a peer's avoid-as-DAT-parent
	// verdict with the new state ("open", "half-open", "closed").
	Breaker func(peer transport.Addr, state string)
}

// MAANHooks receives directory telemetry from internal/maan.
type MAANHooks struct {
	// OwnerArc fires when a range query consults the owner-arc table
	// ("hit": the walk starts at a cached owner; "miss": a lookup
	// resolves it) and when an arc is found stale and dropped
	// ("stale": the named node refused, or a table-started query
	// failed).
	OwnerArc func(result string)
}

// TransportHooks receives error-path telemetry from transport
// implementations (rpcudp today).
type TransportHooks struct {
	// SendError fires when a packet write or send fails.
	SendError func(typ string)
	// DecodeError fires when an inbound packet fails to decode.
	DecodeError func()
	// WireSent fires per encoded outbound frame with its byte length.
	WireSent func(n int)
	// WireReceived fires per decoded inbound frame with its byte
	// length.
	WireReceived func(n int)
}
