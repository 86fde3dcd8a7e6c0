package transport

import (
	"time"

	"repro/internal/sim"
)

// SimConfig parameterizes a SimNetwork.
type SimConfig struct {
	// Latency models one-way message delay. Nil means ConstantLatency(1ms).
	Latency sim.LatencyModel
	// CallTimeout is the deadline Call gives a request. Zero means
	// DefaultCallTimeout of virtual time.
	CallTimeout time.Duration
	// Faults, if non-nil, decides drops/duplicates/extra delay per
	// message (request, reply or one-way). Nil is a clean network. See
	// FaultPlan; ProbFaults is the i.i.d. loss and duplication plan.
	Faults FaultPlan
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Latency == nil {
		c.Latency = sim.ConstantLatency(time.Millisecond)
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = DefaultCallTimeout
	}
	return c
}

// SimNetwork delivers messages through a sim.Engine: every delivery is an
// event delayed by the latency model. It is deterministic and strictly
// single-threaded — all endpoints, handlers and callbacks run on the
// engine's event loop, so protocol code needs no locking but must never
// block. Not safe for concurrent use from multiple goroutines.
//
// Deliveries are pooled records (simMsg) fired through the engine's
// Runner seam rather than per-message closures, and endpoints live in a
// dense slice indexed by an addr map, so the steady-state one-way send
// path allocates nothing (DESIGN.md §15). One consequence of pooling:
// the *Request passed to a handler for a ONE-WAY message is only valid
// for the duration of the handler call — handlers must copy what they
// keep. (Two-way requests are pinned by their call records and stay
// valid until replied to.)
//
// A Call allocates exactly one object, its call record: the record is
// the timeout's Runner, holds the inbound Request and is that Request's
// reply path. It is not pooled because nothing says when it is dead — a
// handler may keep the *Request and reply after the caller's timeout
// has fired, so only the garbage collector knows the last use.
//
// Payloads cross by reference, in both directions: no codec runs, so
// the value a handler reads is the value the caller passed and the
// value a callback receives is the value the handler replied with —
// slices and maps inside them included. A sender may go on sharing
// what it sent (chord answers every GetState under one routing version
// with the same slices), so handlers and callers must treat payloads as
// read-only and copy what they want to change.
type SimNetwork struct {
	engine *sim.Engine
	cfg    SimConfig
	tap    Tap

	// Dense endpoint index: eps holds endpoints in creation order (nil
	// holes after Close, recycled via epFree); epIndex maps a live
	// address to its slot. Destination resolution happens at fire time
	// through epIndex — an in-flight message to an address that closed
	// and was re-created (cluster rejoins reuse addresses) reaches the
	// new endpoint, exactly like the historical per-delivery map lookup.
	eps     []*simEndpoint
	epIndex map[Addr]int32
	epFree  []int32

	// msgPool is the free list of delivery records.
	msgPool *simMsg

	// replyTypes interns typ+":reply", the type a reply is shown to the
	// tap and the fault plan under: one concatenation per message type
	// the network ever carries (a handful of protocol constants), not one
	// per reply.
	replyTypes map[string]string

	// partitions holds the currently severed links; a message in either
	// direction across a severed pair is dropped before the fault plan is
	// consulted.
	partitions map[pairKey]bool

	// Counters for failure-injection assertions in tests.
	dropped          uint64
	duplicated       uint64
	partitionDropped uint64
}

// NewSimNetwork creates a network on the given engine.
func NewSimNetwork(engine *sim.Engine, cfg SimConfig) *SimNetwork {
	return &SimNetwork{
		engine:     engine,
		cfg:        cfg.withDefaults(),
		epIndex:    make(map[Addr]int32),
		partitions: make(map[pairKey]bool),
		replyTypes: make(map[string]string),
	}
}

// SetTap installs a metrics observer for every delivered message.
func (n *SimNetwork) SetTap(t Tap) { n.tap = t }

// SetDropProb installs ProbFaults{Drop: p} in place of any fault plan,
// letting experiments converge a clean overlay first and inject loss
// afterwards. The plan draws one Float64 per message, and only while
// p > 0.
func (n *SimNetwork) SetDropProb(p float64) { n.cfg.Faults = ProbFaults{Drop: p} }

// SetFaultPlan installs (or, with nil, removes) a pluggable fault plan.
func (n *SimNetwork) SetFaultPlan(p FaultPlan) { n.cfg.Faults = p }

// Partition severs the link between a and b in both directions: every
// message between them is dropped until Heal. Severing an already-severed
// link is a no-op. Partitioning is orthogonal to the fault plan and is
// applied first.
func (n *SimNetwork) Partition(a, b Addr) { n.partitions[makePair(a, b)] = true }

// Heal restores the link between a and b. Healing an intact link is a
// no-op. Messages dropped while the link was severed are gone; only new
// sends get through.
func (n *SimNetwork) Heal(a, b Addr) { delete(n.partitions, makePair(a, b)) }

// HealAll restores every severed link.
func (n *SimNetwork) HealAll() {
	for k := range n.partitions {
		delete(n.partitions, k)
	}
}

// Partitioned reports whether the link between a and b is severed.
func (n *SimNetwork) Partitioned(a, b Addr) bool { return n.partitions[makePair(a, b)] }

// Dropped returns the number of messages the fault plan dropped
// (partition losses are counted separately).
func (n *SimNetwork) Dropped() uint64 { return n.dropped }

// Duplicated returns the number of injected duplicate deliveries.
func (n *SimNetwork) Duplicated() uint64 { return n.duplicated }

// PartitionDropped returns the number of messages lost to severed links.
func (n *SimNetwork) PartitionDropped() uint64 { return n.partitionDropped }

// Engine returns the underlying simulation engine.
func (n *SimNetwork) Engine() *sim.Engine { return n.engine }

// Clock returns a Clock view of the engine, for protocol timers.
func (n *SimNetwork) Clock() Clock { return SimClock{Engine: n.engine} }

// Endpoint creates (or returns) the endpoint with the given address.
// Creating an endpoint with an address that is already live panics: that
// is a wiring bug in the experiment setup.
func (n *SimNetwork) Endpoint(addr Addr) Endpoint {
	if _, ok := n.epIndex[addr]; ok {
		panic("transport: duplicate sim endpoint " + string(addr))
	}
	var slot int32
	if k := len(n.epFree); k > 0 {
		slot = n.epFree[k-1]
		n.epFree = n.epFree[:k-1]
	} else {
		n.eps = append(n.eps, nil)
		slot = int32(len(n.eps) - 1)
	}
	ep := &simEndpoint{net: n, addr: addr, slot: slot}
	n.eps[slot] = ep
	n.epIndex[addr] = slot
	return ep
}

// replyType returns typ + ":reply", interned.
func (n *SimNetwork) replyType(typ string) string {
	rt, ok := n.replyTypes[typ]
	if !ok {
		rt = typ + ":reply"
		n.replyTypes[typ] = rt
	}
	return rt
}

// lookup resolves a live endpoint by address at fire time.
func (n *SimNetwork) lookup(addr Addr) *simEndpoint {
	slot, ok := n.epIndex[addr]
	if !ok {
		return nil
	}
	return n.eps[slot]
}

// --- pooled delivery records ---

// Message-record kinds. One record serves both copies of a duplicated
// message (refs counts the scheduled fires).
const (
	msgOneWay int8 = iota
	msgRequest
	msgReply
)

// simMsg is one in-flight message: a pooled record scheduled on the
// engine through the Runner seam, replacing the historical per-delivery
// closure. For one-way messages the inbound Request is embedded and
// reused across deliveries (see the SimNetwork doc comment for the
// retention contract).
type simMsg struct {
	net     *SimNetwork
	kind    int8
	oneWay  bool
	from    Addr
	to      Addr
	typ     string
	payload any
	err     error    // reply deliveries: the callee's error
	call    *simCall // request/reply deliveries: the owning exchange
	refs    int32
	next    *simMsg // free-list link
	req     Request // one-way deliveries: reused inbound request
}

func (n *SimNetwork) getMsg() *simMsg {
	m := n.msgPool
	if m == nil {
		m = &simMsg{net: n}
	} else {
		n.msgPool = m.next
		m.next = nil
	}
	m.refs = 1
	return m
}

// release returns the record to the pool once every scheduled fire (the
// original and an injected duplicate) has happened, clearing payload and
// callback references so the pool retains no protocol state.
func (m *simMsg) release() {
	m.refs--
	if m.refs > 0 {
		return
	}
	n := m.net
	*m = simMsg{net: n, next: n.msgPool}
	n.msgPool = m
}

// dispatch pushes a record through partitions and the fault plan and
// schedules its deliveries. The rng draw order (the plan's draws, then
// the latency sample, then a duplicate's independent latency sample)
// matches the historical deliver() exactly — datcheck's golden traces
// pin this down.
func (n *SimNetwork) dispatch(m *simMsg) {
	if n.partitions[makePair(m.from, m.to)] {
		n.partitionDropped++
		m.release()
		return
	}
	var f Fault
	if n.cfg.Faults != nil {
		f = n.cfg.Faults.Apply(n.engine.Rand(), m.from, m.to, m.typ)
	}
	if f.Drop {
		n.dropped++
		m.release()
		return
	}
	d := n.cfg.Latency.Sample(n.engine.Rand(), string(m.from), string(m.to)) + f.Delay
	n.engine.ScheduleRun(d, m, 0)
	if f.Duplicate {
		n.duplicated++
		d2 := n.cfg.Latency.Sample(n.engine.Rand(), string(m.from), string(m.to)) + f.Delay
		if d2 == d {
			// Under a constant-latency model an independent sample ties
			// exactly; nudge the copy so original and duplicate never
			// collapse into the same instant.
			d2 += time.Microsecond
		}
		m.refs++
		n.engine.ScheduleRun(d2, m, 0)
	}
}

// RunEvent implements sim.Runner: one delivery of the message. The tap
// observes the delivery before destination resolution, matching the
// historical wrapper (a message to a dead address is still traffic).
func (m *simMsg) RunEvent(int32) {
	n := m.net
	if n.tap != nil {
		n.tap.Message(m.from, m.to, m.typ, m.oneWay)
	}
	switch m.kind {
	case msgOneWay:
		if dst := n.lookup(m.to); dst != nil && dst.handler != nil {
			m.req = Request{From: m.from, Type: m.typ, Payload: m.payload}
			dst.handler(&m.req)
		}
		// else: dropped, like UDP to a dead host
	case msgRequest:
		if dst := n.lookup(m.to); dst != nil && dst.handler != nil {
			dst.handler(m.call.request())
		}
		// else: the request reached a dead address; the caller's timeout
		// will fire. (Real UDP behaves the same way.)
	case msgReply:
		c := m.call
		c.timeout.Cancel()
		c.finish(m.payload, m.err)
	}
	m.release()
}

// simCall is one request/response exchange, and the one allocation a
// Call makes (see the SimNetwork doc comment for why it is not pooled):
// the record itself is the timeout's Runner, the embedded Request serves
// the first delivery — its From, Type and Payload are the call's — and
// the record is that Request's replier.
type simCall struct {
	net       *SimNetwork
	to        Addr
	cb        ResponseFunc
	done      bool
	delivered bool
	timeout   sim.Event
	req       Request
}

// request returns the inbound *Request for one delivery of the call. An
// injected duplicate gets a fresh Request so each copy carries its own
// reply-once state, as two genuinely distinct datagrams would.
func (c *simCall) request() *Request {
	if !c.delivered {
		c.delivered = true
		return &c.req
	}
	return &Request{From: c.req.From, Type: c.req.Type, Payload: c.req.Payload, reply: c}
}

// reply implements replier, the callee's reply path: route the response
// back through the network's partition/fault/latency pipeline.
func (c *simCall) reply(payload any, err error) {
	m := c.net.getMsg()
	m.kind = msgReply
	m.oneWay = false
	m.from, m.to = c.to, c.req.From
	m.typ = c.net.replyType(c.req.Type)
	m.payload, m.err = payload, err
	m.call = c
	c.net.dispatch(m)
}

func (c *simCall) finish(payload any, err error) {
	if c.done {
		return
	}
	c.done = true
	c.cb(payload, err)
}

// RunEvent implements sim.Runner: the call timeout.
func (c *simCall) RunEvent(int32) { c.finish(nil, ErrTimeout) }

type simEndpoint struct {
	net     *SimNetwork
	addr    Addr
	slot    int32
	handler Handler
	closed  bool
}

func (e *simEndpoint) Addr() Addr       { return e.addr }
func (e *simEndpoint) Handle(h Handler) { e.handler = h }

func (e *simEndpoint) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.net.eps[e.slot] = nil
	e.net.epFree = append(e.net.epFree, e.slot)
	delete(e.net.epIndex, e.addr)
	return nil
}

func (e *simEndpoint) Send(to Addr, typ string, payload any) error {
	if e.closed {
		return ErrClosed
	}
	m := e.net.getMsg()
	m.kind = msgOneWay
	m.oneWay = true
	m.from, m.to = e.addr, to
	m.typ = typ
	m.payload = payload
	e.net.dispatch(m)
	return nil
}

func (e *simEndpoint) Call(to Addr, typ string, payload any, cb ResponseFunc) {
	e.CallWithin(to, typ, payload, e.net.cfg.CallTimeout, cb)
}

func (e *simEndpoint) CallWithin(to Addr, typ string, payload any, d time.Duration, cb ResponseFunc) {
	if cb == nil {
		panic("transport: Call with nil callback")
	}
	if e.closed {
		cb(nil, ErrClosed)
		return
	}
	c := &simCall{net: e.net, to: to, cb: cb}
	c.req = Request{From: e.addr, Type: typ, Payload: payload, reply: c}
	// The timeout is scheduled before the request delivery, preserving
	// the historical event sequence order.
	c.timeout = e.net.engine.ScheduleRun(d, c, 0)
	m := e.net.getMsg()
	m.kind = msgRequest
	m.oneWay = false
	m.from, m.to = e.addr, to
	m.typ = typ
	m.payload = payload
	m.call = c
	e.net.dispatch(m)
}
