package dat

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/gma"
	"repro/internal/ident"
	"repro/internal/maan"
	"repro/internal/obs"
	"repro/internal/rpcudp"
	"repro/internal/transport"
)

// PeerConfig configures a live UDP peer.
type PeerConfig struct {
	// Listen is the UDP listen address; "127.0.0.1:0" picks a free port.
	// Required.
	Listen string
	// Name identifies this host in the MAAN directory. Defaults to the
	// bound address.
	Name string
	// Bits is the identifier-space width (must match the whole ring).
	// Default 32.
	Bits uint
	// Scheme selects the DAT parent rule; see core.NodeConfig.Scheme
	// (default Basic).
	Scheme Scheme
	// Attributes declares the MAAN schema (must match the whole ring).
	// Optional; without it resource indexing is disabled.
	Attributes []Attribute
	// Stabilize, FixFingers, Ping override the overlay maintenance
	// cadence: the first two are base periods that a quiet ring
	// stretches up to 4x. Defaults suit LAN deployments (300ms/500ms/1s).
	Stabilize  time.Duration
	FixFingers time.Duration
	Ping       time.Duration
	// ShareResults makes the attribute root broadcast each completed slot
	// result so LatestResult is fresh on every peer that monitors the
	// attribute; the others drop it (costs n-1 messages per slot).
	ShareResults bool
	// CallTimeout bounds a call: one request datagram, never resent,
	// fails with a timeout when no answer came within it. Default 2s
	// (transport.DefaultCallTimeout). DAT updates and on-demand queries
	// carry deadlines of their own (Delivery.AckTimeout, the query
	// window plus AckTimeout).
	CallTimeout time.Duration
	// Delivery configures the DAT delivery-assurance layer (acked
	// updates, re-sends, parent failover, root handover — DESIGN.md §10).
	// The zero value is the defaults.
	Delivery DeliveryConfig
	// Batch configures the send machine coalescing updates bound for
	// the same parent into single datagrams (DESIGN.md §12). The zero
	// value is the defaults; Batch.MaxElems 1 sends one datagram per
	// update.
	Batch BatchConfig
	// Overload configures the per-peer circuit breakers (DESIGN.md §14).
	// The zero value is armed breakers with the default thresholds.
	Overload OverloadConfig
	// RPCTimeout bounds blocking convenience calls (Join, Query...).
	// Default 10s.
	RPCTimeout time.Duration
	// Observer wires runtime telemetry — Prometheus instruments,
	// aggregation-round spans, the /healthz probe, and the /debug/dat
	// view — through the whole stack (DESIGN.md §9). Use one Observer
	// per peer; instruments are process-wide names, not per-peer ones.
	Observer *obs.Observer
	// SelfMon enables the self-monitoring plane (DESIGN.md §13): the
	// peer publishes its own load scalars as dat.load.* sensors
	// and StartSelfMonitor feeds them into dedicated monitoring trees,
	// so ClusterLoad answers cluster-wide load questions through the
	// DAT itself. SelfMon.Slot defaults to 2s.
	SelfMon obs.SelfMonConfig
	// Logger receives structured logs from the transport and protocol
	// layers. Nil means silent.
	Logger *slog.Logger
}

// Peer is one live DAT node over real UDP sockets: the full P-GMA stack
// of the paper — sensors and a producer (GMA layer), MAAN indexing, and
// the Chord + DAT overlay — in a single process.
type Peer struct {
	cfg      PeerConfig
	space    ident.Space
	ep       *rpcudp.Endpoint
	clock    *transport.RealClock
	chord    *chord.Node
	dat      *core.Node
	maan     *maan.Service
	producer *gma.Producer

	mu       sync.Mutex
	announce func() // stop function of the MAAN announcer
	closed   bool
}

// NewPeer opens the UDP endpoint and assembles the protocol stack. The
// peer is passive until Create or Join.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.Listen == "" {
		return nil, errors.New("dat: PeerConfig.Listen is required")
	}
	if cfg.Bits == 0 {
		cfg.Bits = 32
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	space := ident.New(cfg.Bits)
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	rpcCfg := rpcudp.Config{CallTimeout: cfg.CallTimeout, Logger: logger.With("layer", "rpcudp")}
	if cfg.Observer != nil {
		rpcCfg.Tap = cfg.Observer.Tap()
		rpcCfg.Obs = cfg.Observer.TransportHooks()
	}
	ep, err := rpcudp.Listen(cfg.Listen, rpcCfg)
	if err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = string(ep.Addr())
	}
	// The identifier is the hash of the bound address; probing joins may
	// replace it before the peer enters the ring.
	id := space.Hash([]byte(ep.Addr()))
	// Seed the live clock's maintenance jitter from the identifier:
	// distinct per node (no lock-step maintenance across a deployment)
	// yet fully determined by the bound address, so runs replay.
	clock := transport.NewRealClock(int64(id))
	nodeLogger := logger.With("node", string(ep.Addr()))
	chordCfg := chord.Config{
		Space:           space,
		StabilizeEvery:  cfg.Stabilize,
		FixFingersEvery: cfg.FixFingers,
		PingEvery:       cfg.Ping,
		Logger:          nodeLogger.With("layer", "chord"),
	}
	coreCfg := core.NodeConfig{
		Scheme:       cfg.Scheme,
		ShareResults: cfg.ShareResults,
		Delivery:     cfg.Delivery,
		Batch:        cfg.Batch,
		Overload:     cfg.Overload,
		Logger:       nodeLogger.With("layer", "dat"),
	}
	if cfg.SelfMon.Enable && cfg.SelfMon.Slot <= 0 {
		cfg.SelfMon.Slot = 2 * time.Second
	}
	if cfg.Observer != nil {
		chordCfg.Obs = cfg.Observer.ChordHooks()
		coreCfg.Obs = cfg.Observer.CoreHooks()
	}
	cn := chord.New(ep, clock, id, chordCfg)
	p := &Peer{
		cfg:   cfg,
		space: space,
		ep:    ep,
		clock: clock,
		chord: cn,
	}
	p.producer = gma.NewProducer(cfg.Name, space, clock)
	coreCfg.Local = p.producer.Local
	p.dat = core.NewNode(cn, ep, clock, coreCfg)
	if cfg.SelfMon.Enable {
		// The peer's own load counters become ordinary sensors: the
		// monitoring trees aggregate them exactly like any grid metric.
		p.AddSensor(obs.LoadAttrMsgs, func() (float64, bool) {
			msgs, _ := p.dat.Load()
			return float64(msgs), true
		})
		p.AddSensor(obs.LoadAttrBytes, func() (float64, bool) {
			_, bytes := p.dat.Load()
			return float64(bytes), true
		})
	}
	if len(cfg.Attributes) > 0 {
		schema, err := maan.NewSchema(space, cfg.Attributes...)
		if err != nil {
			ep.Close()
			return nil, err
		}
		p.maan = maan.NewService(cn, ep, clock, schema)
	}
	if o := cfg.Observer; o != nil {
		if p.maan != nil {
			p.maan.Observe(o.MAANHooks())
			o.AddDebug("maan directory "+string(ep.Addr()), p.maan.WriteDebug)
		}
		o.Reg.GaugeFunc("dat_transport_pending_calls",
			"In-flight UDP requests awaiting a reply or timeout.",
			func() float64 { return float64(ep.PendingCalls()) })
		// Overload-layer gauges read the node's own counters so open →
		// half-open → open cycles cannot double-count the way a
		// hook-driven gauge would.
		o.Reg.GaugeFunc("dat_queue_bytes",
			"Estimated bytes queued across the send machine's destination queues.",
			func() float64 { return float64(p.dat.OverloadStats().QueuedBytes) })
		o.Reg.GaugeFunc("dat_breakers_open",
			"Peers currently isolated by an open or half-open circuit breaker.",
			func() float64 { return float64(p.dat.OverloadStats().BreakersOpen) })
		o.SetHealth(p.health)
		o.AddDebug("dat node "+string(ep.Addr()), p.dat.WriteDebug)
		o.SetOverload(p.dat.WriteOverloadDebug)
		if cfg.SelfMon.Enable {
			// /debug/load's cluster section serves the cached root
			// result — never a live protocol query on the scrape path.
			o.SetLoadSummary(p.ClusterLoad)
		}
	}
	return p, nil
}

// health is the /healthz probe: the peer reports running once its chord
// node participates in a ring.
func (p *Peer) health() obs.Health {
	rt := p.chord.Routing()
	h := obs.Health{
		Running:       p.chord.Running(),
		Addr:          string(rt.Self.Addr),
		ID:            rt.Self.ID.String(),
		EstimatedSize: rt.EstimatedNetworkSize(),
		ActiveKeys:    len(p.dat.ActiveKeys()),
	}
	if s := rt.Successor(); !s.IsZero() {
		h.Successor = string(s.Addr)
	}
	if pred := rt.Pred; !pred.IsZero() {
		h.Predecessor = string(pred.Addr)
	}
	return h
}

// Addr returns the peer's bound UDP address — what other peers pass as
// the bootstrap address.
func (p *Peer) Addr() string { return string(p.ep.Addr()) }

// ID returns the peer's ring identifier.
func (p *Peer) ID() uint64 { return uint64(p.chord.Self().ID) }

// Create bootstraps a new ring with this peer as its only member.
func (p *Peer) Create() { p.chord.Create() }

// Join enters the ring known to the bootstrap address. It blocks until
// the join completes or the RPC timeout expires.
func (p *Peer) Join(bootstrap string) error {
	done := make(chan error, 1)
	p.chord.Join(transport.Addr(bootstrap), func(err error) { done <- err })
	return p.await(done, "join")
}

// JoinProbed enters the ring using the identifier-probing join, which
// keeps node spacing even and balanced DATs flat. It blocks like Join.
func (p *Peer) JoinProbed(bootstrap string) error {
	done := make(chan error, 1)
	p.chord.JoinProbed(transport.Addr(bootstrap), func(_ ident.ID, err error) { done <- err })
	return p.await(done, "probed join")
}

func (p *Peer) await(done chan error, op string) error {
	// A stopped timer is released at once; time.After would keep one
	// alive for the full timeout after every answered call.
	t := time.NewTimer(p.cfg.RPCTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("dat: %s timed out after %v", op, p.cfg.RPCTimeout)
	}
}

// AddSensor publishes a local sensor under an attribute name. The sensor
// feeds both DAT aggregation (the peer's contribution to the global
// aggregate named attr) and MAAN announcements. It is read on the peer's
// timer loop (see StartMonitor) and must not block.
func (p *Peer) AddSensor(attr string, sensor func() (float64, bool)) {
	p.producer.AddSensor(attr, gma.SensorFunc(func(time.Duration) (float64, bool) { return sensor() }))
}

// SetLabel publishes a static string attribute (e.g. os-name, site) in
// the MAAN directory for exact-match discovery (dat.Eq predicates).
func (p *Peer) SetLabel(attr, value string) { p.producer.SetLabel(attr, value) }

// AddCPUSensor publishes the host's real CPU utilization from /proc/stat
// under the attribute name (Linux; reports no value elsewhere).
func (p *Peer) AddCPUSensor(attr string) {
	p.producer.AddSensor(attr, gma.NewProcCPUSensor())
}

// StartMonitor begins continuous aggregation of attr with the given slot
// duration. Every ring member monitoring attr must use the same slot.
// If this peer currently owns the attribute's rendezvous key it acts as
// the tree root; onResult (may be nil) fires there once per slot. Only
// a second StartMonitor of attr fails.
//
// onResult, like the sensors of AddSensor, runs on the peer's timer
// loop: one goroutine runs every timer callback of the peer, one at a
// time. Return promptly and hand long work to another goroutine — while
// a callback runs, the peer's slot ticks, ack timeouts and ring
// maintenance wait — and do not call Close or Leave from it: they wait
// for that loop to end.
func (p *Peer) StartMonitor(attr string, slot time.Duration, onResult func(slot int64, agg Aggregate)) error {
	return p.dat.StartContinuous(p.space.HashString(attr), slot, onResult)
}

// StartSelfMonitor joins the dat.load.* monitoring trees (DESIGN.md
// §13) with the configured self-monitoring slot: this peer contributes
// its own load counters and relays others'. Call it on every ring
// member after Create/Join, like any monitored attribute. Requires
// PeerConfig.SelfMon.Enable.
func (p *Peer) StartSelfMonitor() error {
	if !p.cfg.SelfMon.Enable {
		return errors.New("dat: self-monitoring not enabled in PeerConfig")
	}
	for _, attr := range obs.SelfMonAttrs {
		if err := p.StartMonitor(attr, p.cfg.SelfMon.Slot, nil); err != nil {
			return fmt.Errorf("dat: start self-monitor %s: %w", attr, err)
		}
	}
	return nil
}

// ClusterLoad returns the latest cluster-wide load summary computed by
// the dat.load.msgs monitoring tree: per-node load statistics and the
// live imbalance factor (max/mean), coverage-qualified. It reads the
// cached root result and never blocks; ok is false until a monitoring
// round has completed (or been shared/cached on this peer).
func (p *Peer) ClusterLoad() (obs.LoadSummary, bool) {
	key := p.space.HashString(obs.LoadAttrMsgs)
	slot, agg, ok := p.dat.LastResult(key)
	if !ok || agg.Count == 0 {
		return obs.LoadSummary{}, false
	}
	return obs.NewLoadSummary(slot, agg.Count, agg.Sum, agg.Min, agg.Max, agg.Coverage, agg.Degraded), true
}

// QueryClusterLoad asks the cluster for its load distribution with one
// on-demand protocol query against the dat.load.msgs tree, blocking
// like Query. It works on any ring member whose peers registered the
// load sensors (SelfMon.Enable), even without continuous monitoring.
func (p *Peer) QueryClusterLoad(window time.Duration) (obs.LoadSummary, error) {
	agg, err := p.Query(obs.LoadAttrMsgs, window)
	if err != nil {
		return obs.LoadSummary{}, err
	}
	return obs.NewLoadSummary(0, agg.Count, agg.Sum, agg.Min, agg.Max, agg.Coverage, agg.Degraded), nil
}

// StopMonitor halts continuous aggregation of attr on this peer.
func (p *Peer) StopMonitor(attr string) {
	p.dat.StopContinuous(p.space.HashString(attr))
}

// LatestResult returns attr's latest root result on this peer, computed
// here as the root or broadcast by it (ShareResults). The result lives
// with the tree: after StopMonitor(attr) it reports false.
func (p *Peer) LatestResult(attr string) (Aggregate, bool) {
	_, agg, ok := p.dat.LastResult(p.space.HashString(attr))
	return agg, ok
}

// Query performs an on-demand aggregation of attr: the request routes to
// the attribute's root, which collects over the window and replies. It
// blocks until the result arrives or the RPC timeout expires.
func (p *Peer) Query(attr string, window time.Duration) (Aggregate, error) {
	type result struct {
		agg Aggregate
		err error
	}
	done := make(chan result, 1)
	p.dat.Query(p.space.HashString(attr), window, func(r core.QueryResp, err error) {
		done <- result{r.Agg, err}
	})
	t := time.NewTimer(p.cfg.RPCTimeout + window)
	defer t.Stop()
	select {
	case r := <-done:
		return r.agg, r.err
	case <-t.C:
		return Aggregate{}, fmt.Errorf("dat: query %q timed out", attr)
	}
}

// Announce registers this peer's current sensor readings in the MAAN
// directory and keeps refreshing them at the given period. Requires
// Attributes in the config.
func (p *Peer) Announce(period time.Duration) error {
	if p.maan == nil {
		return errors.New("dat: no MAAN schema configured")
	}
	// Start the new announcer before touching p.mu: AnnounceEvery
	// registers synchronously, which routes lookups over the transport
	// and can re-enter this peer inline on the simulated network —
	// never under a node lock (locksafe). Swap the stop handle under
	// the lock, then stop any previous announcer outside it.
	stop := p.producer.AnnounceEvery(p.maan, period)
	p.mu.Lock()
	prev := p.announce
	p.announce = stop
	p.mu.Unlock()
	if prev != nil {
		prev()
	}
	return nil
}

// FindResources answers a conjunctive multi-attribute range query
// against the MAAN directory. It blocks until the result or timeout.
func (p *Peer) FindResources(preds []Predicate) ([]Resource, error) {
	if p.maan == nil {
		return nil, errors.New("dat: no MAAN schema configured")
	}
	type result struct {
		res []Resource
		err error
	}
	done := make(chan result, 1)
	p.maan.MultiAttrQuery(preds, func(res []Resource, _ int, err error) {
		done <- result{res, err}
	})
	t := time.NewTimer(p.cfg.RPCTimeout)
	defer t.Stop()
	select {
	case r := <-done:
		return r.res, r.err
	case <-t.C:
		return nil, errors.New("dat: resource query timed out")
	}
}

// Leave departs the ring gracefully and closes the endpoint.
func (p *Peer) Leave() error { return p.shutdown(true) }

// Close crashes the peer (no goodbye messages) and closes the endpoint.
func (p *Peer) Close() error { return p.shutdown(false) }

func (p *Peer) shutdown(graceful bool) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	stop := p.announce
	p.announce = nil
	p.mu.Unlock()
	if stop != nil {
		stop()
	}
	if p.maan != nil {
		p.maan.Close()
	}
	p.dat.Close() // flush the send machine before the endpoint goes
	p.chord.Stop(graceful)
	err := p.ep.Close()
	// Last, so everything above could still disarm its own timers: once
	// the clock has stopped, no timer callback of this peer runs again.
	p.clock.Stop()
	return err
}
