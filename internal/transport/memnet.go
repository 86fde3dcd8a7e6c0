package transport

//datlint:allow-realtime MemNetwork is the real-goroutine in-process
// transport used by race-detector tests; its delays are genuine timers,
// not simulated ones.

import (
	"sync"
	"sync/atomic"
	"time"
)

// MemConfig parameterizes a MemNetwork.
type MemConfig struct {
	// Delay is an optional fixed one-way delivery delay.
	Delay time.Duration
	// CallTimeout bounds request/response exchanges. Zero means 2s.
	CallTimeout time.Duration
	// InboxSize is each endpoint's delivery queue length; when full,
	// further messages are dropped like UDP datagrams. Zero means 4096.
	InboxSize int
}

func (c MemConfig) withDefaults() MemConfig {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.InboxSize <= 0 {
		c.InboxSize = 4096
	}
	return c
}

// MemNetwork is an in-process, fully concurrent transport: each endpoint
// runs an actor goroutine that executes its handler serially, and
// deliveries hop between goroutines through buffered channels. It is safe
// for concurrent use and exercises the same locking discipline in protocol
// code as the UDP transport, making it the right substrate for
// race-detector tests.
type MemNetwork struct {
	cfg MemConfig

	mu        sync.RWMutex
	endpoints map[Addr]*memEndpoint
	tap       Tap
	drops     atomic.Uint64
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork(cfg MemConfig) *MemNetwork {
	return &MemNetwork{cfg: cfg.withDefaults(), endpoints: make(map[Addr]*memEndpoint)}
}

// SetTap installs a metrics observer. The tap must be safe for concurrent
// use. Install it before traffic starts.
func (n *MemNetwork) SetTap(t Tap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tap = t
}

// Clock returns a new real-time clock suitable for protocol timers
// alongside this transport. The caller owns it: its timer loop starts
// with the first timer and runs until RealClock.Stop.
func (n *MemNetwork) Clock() *RealClock { return &RealClock{} }

// Dropped returns the number of messages dropped because the
// destination was missing or its inbox was full (the UDP-style loss
// this transport models).
func (n *MemNetwork) Dropped() uint64 { return n.drops.Load() }

// Endpoint creates the endpoint with the given address. It panics if the
// address is already live (a wiring bug).
func (n *MemNetwork) Endpoint(addr Addr) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[addr]; ok {
		panic("transport: duplicate mem endpoint " + string(addr))
	}
	ep := &memEndpoint{
		net:   n,
		addr:  addr,
		inbox: make(chan *Request, n.cfg.InboxSize),
		quit:  make(chan struct{}),
	}
	go ep.loop()
	n.endpoints[addr] = ep
	return ep
}

func (n *MemNetwork) lookup(addr Addr) *memEndpoint {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.endpoints[addr]
}

func (n *MemNetwork) observe(from, to Addr, typ string, oneWay bool) {
	n.mu.RLock()
	t := n.tap
	n.mu.RUnlock()
	if t != nil {
		t.Message(from, to, typ, oneWay)
	}
}

type memEndpoint struct {
	net   *MemNetwork
	addr  Addr
	inbox chan *Request
	quit  chan struct{}

	mu      sync.Mutex
	handler Handler
	closed  bool
}

func (e *memEndpoint) loop() {
	for {
		select {
		case <-e.quit:
			return
		case req := <-e.inbox:
			e.mu.Lock()
			h := e.handler
			e.mu.Unlock()
			e.net.observe(req.From, e.addr, req.Type, req.OneWay())
			if h == nil {
				req.ReplyError(ErrNoHandler)
				continue
			}
			h(req)
		}
	}
}

func (e *memEndpoint) Addr() Addr { return e.addr }

func (e *memEndpoint) Handle(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

func (e *memEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()
	return nil
}

func (e *memEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// enqueue hands a request to the destination after the configured delay.
// Returns false if the destination does not exist or its inbox is full
// (the message is dropped, UDP-style).
func (e *memEndpoint) enqueue(to Addr, req *Request) bool {
	deliver := func() bool {
		dst := e.net.lookup(to)
		if dst == nil {
			e.net.drops.Add(1)
			return false
		}
		select {
		case dst.inbox <- req:
			return true
		default:
			e.net.drops.Add(1)
			return false // inbox full: drop
		}
	}
	if e.net.cfg.Delay > 0 {
		time.AfterFunc(e.net.cfg.Delay, func() { deliver() })
		return true // fate unknown yet; treated as best-effort
	}
	return deliver()
}

func (e *memEndpoint) Send(to Addr, typ string, payload any) error {
	if e.isClosed() {
		return ErrClosed
	}
	e.enqueue(to, &Request{From: e.addr, Type: typ, Payload: payload})
	return nil
}

func (e *memEndpoint) Call(to Addr, typ string, payload any, cb ResponseFunc) {
	if cb == nil {
		panic("transport: Call with nil callback")
	}
	if e.isClosed() {
		cb(nil, ErrClosed)
		return
	}
	var once sync.Once
	finish := func(payload any, err error) {
		once.Do(func() { cb(payload, err) })
	}
	timer := time.AfterFunc(e.net.cfg.CallTimeout, func() {
		finish(nil, ErrTimeout)
	})
	req := &Request{
		From:    e.addr,
		Type:    typ,
		Payload: payload,
		reply: func(respPayload any, respErr error) {
			e.net.observe(to, e.addr, typ+":reply", false)
			timer.Stop()
			finish(respPayload, respErr)
		},
	}
	if !e.enqueue(to, req) {
		timer.Stop()
		finish(nil, ErrUnreachable)
	}
}
