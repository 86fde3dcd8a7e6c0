// Package rpcudp implements the paper's UDP-based RPC manager (§4): a
// socket-level transport that carries the same Chord/DAT messages as the
// simulated network, so the protocol stack runs unchanged on real
// sockets. Requests are matched to responses by a per-endpoint sequence
// number. A call is one datagram, never resent: an unanswered request
// fails with transport.ErrTimeout at its deadline, and recovering a lost
// datagram is the protocol layers' business (DESIGN.md §10), exactly as
// on the simulated network.
//
// Frames are serialized by wire.Compact (DESIGN.md §11), which encodes
// registered payload types with hand-written field codecs. Every
// concrete payload type must be registered with internal/wire (the
// chord, core, and maan packages do so in their init functions; the
// wirereg datlint analyzer enforces it): sending an unregistered one
// fails with wire.ErrUnregistered. A datagram that does not decode is
// dropped and counted (Obs.DecodeError).
package rpcudp

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config parameterizes a UDP endpoint.
type Config struct {
	// CallTimeout is the deadline Call gives a request. Default
	// transport.DefaultCallTimeout.
	CallTimeout time.Duration
	// MaxPacket is the receive buffer size. Default 64KiB (max UDP).
	MaxPacket int
	// Logger receives structured transport diagnostics (decode failures,
	// send errors). Nil means silence.
	Logger *slog.Logger
	// Tap, when set, observes every inbound delivery — requests,
	// one-ways, and replies (reported with a ":reply" type suffix) —
	// mirroring the simulated networks' taps. Must be safe for
	// concurrent use.
	Tap transport.Tap
	// Obs receives error-path telemetry (send errors, decode errors)
	// and wire-level byte counts. The zero value disables it.
	Obs obs.TransportHooks
}

func (c Config) withDefaults() Config {
	if c.CallTimeout <= 0 {
		c.CallTimeout = transport.DefaultCallTimeout
	}
	if c.MaxPacket <= 0 {
		c.MaxPacket = 64 << 10
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

const (
	kindOneWay byte = 1
	kindCall   byte = 2
	kindReply  byte = 3
	kindError  byte = 4
)

// readBuffer is the socket receive buffer Listen asks for. Slot
// boundaries sit on one shared epoch, so every child of a busy DAT
// parent flushes its batches at the same instant; with 32 peers of 240
// trees on one host that fan-in overflowed the kernel's 208 KB default,
// and each datagram it dropped cost a subtree its slot.
const readBuffer = 2 << 20

// Endpoint is a UDP transport endpoint. Create with Listen.
type Endpoint struct {
	cfg  Config
	conn *net.UDPConn
	addr transport.Addr

	mu      sync.Mutex
	handler transport.Handler
	pending map[uint64]*pendingCall
	closed  bool

	// addrMu guards the resolved-destination cache. write() used to
	// call net.ResolveUDPAddr on every single send; destinations are a
	// small, stable peer set, so each is resolved once and reused (the
	// map is never evicted — it is bounded by the number of distinct
	// peers this endpoint ever talks to).
	addrMu sync.RWMutex
	addrs  map[transport.Addr]*net.UDPAddr

	seq atomic.Uint64
	wg  sync.WaitGroup
}

// pendingCall is one call awaiting its answer. Whoever takes it off the
// pending map — the reply, the deadline timer or Close — answers it.
type pendingCall struct {
	e     *Endpoint
	seq   uint64
	cb    transport.ResponseFunc
	timer *time.Timer
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Listen opens a UDP endpoint on the given address ("127.0.0.1:0" picks
// a free port). The returned endpoint's Addr is the concrete bound
// address, which is what peers must dial.
func Listen(addr string, cfg Config) (*Endpoint, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcudp: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("rpcudp: listen %q: %w", addr, err)
	}
	// The kernel caps the size at net.core.rmem_max. A socket that keeps
	// a smaller buffer loses more of a burst, and nothing here resends
	// what it drops: the DAT and Chord layers retry above the transport.
	// A refusal is still no reason to fail Listen.
	_ = conn.SetReadBuffer(readBuffer)
	e := &Endpoint{
		cfg:     cfg.withDefaults(),
		conn:    conn,
		addr:    transport.Addr(conn.LocalAddr().String()),
		pending: make(map[uint64]*pendingCall),
		addrs:   make(map[transport.Addr]*net.UDPAddr),
	}
	e.wg.Add(1)
	go e.readLoop()
	return e, nil
}

// Addr implements transport.Endpoint.
func (e *Endpoint) Addr() transport.Addr { return e.addr }

// Handle implements transport.Endpoint.
func (e *Endpoint) Handle(h transport.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Close shuts the socket down and fails all pending calls.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	pend := e.pending
	e.pending = make(map[uint64]*pendingCall)
	for _, p := range pend {
		p.timer.Stop()
	}
	e.mu.Unlock()

	err := e.conn.Close()
	for _, p := range pend {
		p.cb(nil, transport.ErrClosed)
	}
	e.wg.Wait()
	return err
}

// Send implements transport.Endpoint (fire-and-forget datagram).
func (e *Endpoint) Send(to transport.Addr, typ string, payload any) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	env := wire.Envelope{Kind: kindOneWay, Type: typ, From: string(e.addr), Payload: payload}
	err := e.write(to, &env)
	if err != nil {
		if h := e.cfg.Obs.SendError; h != nil {
			h(typ)
		}
	}
	return err
}

// PendingCalls returns the number of in-flight requests awaiting a
// reply or timeout — the endpoint's outbound queue depth, exported as
// a gauge by the observability layer.
func (e *Endpoint) PendingCalls() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// Call implements transport.Endpoint: CallWithin under Config.CallTimeout.
func (e *Endpoint) Call(to transport.Addr, typ string, payload any, cb transport.ResponseFunc) {
	e.CallWithin(to, typ, payload, e.cfg.CallTimeout, cb)
}

// CallWithin implements transport.Endpoint: one request datagram, and
// transport.ErrTimeout after d unless the reply came first. The timer is
// armed under e.mu, where Close finds it.
func (e *Endpoint) CallWithin(to transport.Addr, typ string, payload any, d time.Duration, cb transport.ResponseFunc) {
	if cb == nil {
		panic("rpcudp: Call with nil callback")
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cb(nil, transport.ErrClosed)
		return
	}
	seq := e.seq.Add(1)
	p := &pendingCall{e: e, seq: seq, cb: cb}
	e.pending[seq] = p
	p.timer = time.AfterFunc(d, p.expire)
	e.mu.Unlock()

	env := wire.Envelope{Kind: kindCall, Seq: seq, Type: typ, From: string(e.addr), Payload: payload}
	if err := e.write(to, &env); err != nil {
		if h := e.cfg.Obs.SendError; h != nil {
			h(typ)
		}
		e.cfg.Logger.Warn("rpcudp: send failed", "type", typ, "to", string(to), "err", err)
	}
}

// take removes call seq from the pending map and returns it, or nil if
// another answer took it first.
func (e *Endpoint) take(seq uint64) *pendingCall {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.pending[seq]
	delete(e.pending, seq)
	return p
}

// expire is the call's deadline.
func (p *pendingCall) expire() {
	if p.e.take(p.seq) != nil {
		p.cb(nil, transport.ErrTimeout)
	}
}

// resolve returns the UDP address for a destination, resolving it on
// first use and serving every later send from the cache.
func (e *Endpoint) resolve(to transport.Addr) (*net.UDPAddr, error) {
	e.addrMu.RLock()
	ua := e.addrs[to]
	e.addrMu.RUnlock()
	if ua != nil {
		return ua, nil
	}
	ua, err := net.ResolveUDPAddr("udp", string(to))
	if err != nil {
		return nil, fmt.Errorf("rpcudp: resolve %q: %w", to, err)
	}
	e.addrMu.Lock()
	e.addrs[to] = ua
	e.addrMu.Unlock()
	return ua, nil
}

func (e *Endpoint) write(to transport.Addr, env *wire.Envelope) error {
	udpAddr, err := e.resolve(to)
	if err != nil {
		return err
	}
	buf := wire.GetBuf()
	data, _, err := wire.Compact{}.Append(buf, env)
	if err != nil {
		wire.PutBuf(buf)
		return fmt.Errorf("rpcudp: encode %s: %w", env.Type, err)
	}
	if len(data) > e.cfg.MaxPacket {
		wire.PutBuf(data)
		return fmt.Errorf("rpcudp: message %s of %d bytes: %w", env.Type, len(data), transport.ErrTooLarge)
	}
	if h := e.cfg.Obs.WireSent; h != nil {
		h(len(data))
	}
	_, err = e.conn.WriteToUDP(data, udpAddr)
	wire.PutBuf(data)
	return err
}

func (e *Endpoint) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, e.cfg.MaxPacket)
	for {
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			e.cfg.Logger.Warn("rpcudp: read failed", "err", err)
			continue
		}
		env, _, err := wire.Compact{}.Decode(buf[:n])
		if err != nil {
			if h := e.cfg.Obs.DecodeError; h != nil {
				h()
			}
			e.cfg.Logger.Warn("rpcudp: decode failed", "from", from.String(), "err", err)
			continue
		}
		if h := e.cfg.Obs.WireReceived; h != nil {
			h(n)
		}
		e.handle(env)
	}
}

func (e *Endpoint) handle(env wire.Envelope) {
	if t := e.cfg.Tap; t != nil {
		switch env.Kind {
		case kindOneWay:
			t.Message(transport.Addr(env.From), e.addr, env.Type, true)
		case kindCall:
			t.Message(transport.Addr(env.From), e.addr, env.Type, false)
		case kindReply, kindError:
			t.Message(transport.Addr(env.From), e.addr, env.Type+":reply", false)
		}
	}
	switch env.Kind {
	case kindOneWay, kindCall:
		e.mu.Lock()
		h := e.handler
		e.mu.Unlock()
		if h == nil {
			return // no handler yet: drop, UDP-style
		}
		var reply func(payload any, err error)
		if env.Kind == kindCall {
			seq := env.Seq
			to := transport.Addr(env.From)
			typ := env.Type
			reply = func(payload any, err error) {
				resp := wire.Envelope{Seq: seq, Type: typ, From: string(e.addr)}
				if err != nil {
					resp.Kind = kindError
					resp.ErrText = err.Error()
				} else {
					resp.Kind = kindReply
					resp.Payload = payload
				}
				if werr := e.write(to, &resp); werr != nil {
					if h := e.cfg.Obs.SendError; h != nil {
						h(typ)
					}
					e.cfg.Logger.Warn("rpcudp: reply failed", "type", typ, "to", string(to), "err", werr)
				}
			}
		}
		h(transport.NewRequest(transport.Addr(env.From), env.Type, env.Payload, reply))
	case kindReply, kindError:
		p := e.take(env.Seq)
		if p == nil {
			return // late reply, or a forged sequence number
		}
		p.timer.Stop()
		if env.Kind == kindError {
			p.cb(nil, errors.New(env.ErrText))
		} else {
			p.cb(env.Payload, nil)
		}
	default:
		e.cfg.Logger.Warn("rpcudp: unknown envelope kind", "kind", env.Kind)
	}
}
