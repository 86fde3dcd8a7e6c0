package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
)

// DefaultSpanCapacity is the span-ring size used when NewObserver is
// given a non-positive capacity.
const DefaultSpanCapacity = 4096

// Standard bucket layouts. Hop buckets cover ceil(log2 n) for rings up
// to 2^32; latency buckets span sub-millisecond sim rounds to
// multi-second live joins.
var (
	HopBuckets     = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	SecondsBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	FanInBuckets   = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
)

// Observer owns one node's (or one simulated cluster's) instruments
// and span ring, and hands bound hook structs to the protocol layers.
// Create one per datnode / per cluster and wire it through
// dat.PeerConfig.Observer or cluster.Options.Observer.
type Observer struct {
	Reg   *Registry
	Spans *SpanRing
	// Load is this observer's per-tree load table (DESIGN.md §13). The
	// bound CoreHooks feed it; /debug/load and the dat_tree_* metric
	// families are rendered from it at scrape time, so its bounded
	// cardinality is theirs.
	Load *LoadVec

	msgs         *CounterVec
	sendErrors   *Counter
	decodeErrors *Counter
	wireBytes    *CounterVec

	lookups         *CounterVec
	lookupHops      *Histogram
	stabilizeRounds *Counter
	joinSeconds     *Histogram
	suspects        *Counter
	evictions       *Counter

	rounds       *CounterVec
	roundLatency *Histogram
	roundFanIn   *Histogram
	roundNodes   *Gauge
	updates      *CounterVec
	childExpired *Counter
	spansTotal   *Counter

	updateRetries   *Counter
	parentFailovers *Counter
	rootHandovers   *Counter
	deliveries      *CounterVec
	retryLatency    *Histogram
	batchFlushes    *CounterVec
	batchElems      *Histogram
	batchSaved      *Counter

	breakerTransitions *CounterVec

	ownerArcs *CounterVec

	mu          sync.Mutex
	health      func() Health
	debug       []debugSection
	loadSummary func() (LoadSummary, bool)
	overload    func(w io.Writer)
}

type debugSection struct {
	name string
	fn   func(w io.Writer)
}

// NewObserver builds an Observer with every standard instrument
// registered, and a span ring of the given capacity (<=0 means
// DefaultSpanCapacity).
func NewObserver(spanCapacity int) *Observer {
	if spanCapacity <= 0 {
		spanCapacity = DefaultSpanCapacity
	}
	r := NewRegistry()
	o := &Observer{
		Reg:   r,
		Spans: NewSpanRing(spanCapacity),
		Load:  NewLoadVec(DefaultLoadTrees),

		msgs:         r.CounterVec("dat_transport_messages_total", "Messages delivered, by message type (replies carry a :reply suffix).", "type"),
		sendErrors:   r.Counter("dat_transport_send_errors_total", "Failed sends and reply writes."),
		decodeErrors: r.Counter("dat_transport_decode_errors_total", "Inbound packets that failed to decode."),
		wireBytes:    r.CounterVec("rpcudp_wire_bytes_total", "Encoded UDP frame bytes, by direction.", "dir"),

		lookups:         r.CounterVec("chord_lookups_total", "Completed Chord lookups, by result.", "result"),
		lookupHops:      r.Histogram("chord_lookup_hops", "Remote hops taken per completed Chord lookup.", HopBuckets),
		stabilizeRounds: r.Counter("chord_stabilize_rounds_total", "Chord stabilization rounds that ran; a quiet ring stretches the period between them."),
		joinSeconds:     r.Histogram("chord_join_seconds", "Chord join latency in seconds.", SecondsBuckets),
		suspects:        r.Counter("chord_suspects_total", "Failure-detector strikes recorded against peers."),
		evictions:       r.Counter("chord_evictions_total", "Peers evicted after a second failure-detector strike."),

		rounds:       r.CounterVec("dat_rounds_total", "Continuous aggregation rounds completed at this node, by role.", "role"),
		roundLatency: r.Histogram("dat_round_latency_seconds", "Slot boundary to round completion, in seconds.", SecondsBuckets),
		roundFanIn:   r.Histogram("dat_round_fanin", "Child partials folded per aggregation round.", FanInBuckets),
		roundNodes:   r.Gauge("dat_round_nodes", "Contributing nodes reported by the most recent root round."),
		updates:      r.CounterVec("dat_updates_total", "Inbound child value updates, by disposition.", "kind"),
		childExpired: r.Counter("dat_children_expired_total", "Cached child entries dropped by TTL expiry."),
		spansTotal:   r.Counter("dat_spans_total", "Aggregation-round spans recorded."),

		updateRetries:   r.Counter("dat_update_retries_total", "Acked-update send attempts beyond the first (retries and failover re-sends)."),
		parentFailovers: r.Counter("dat_parent_failovers_total", "Pending updates re-routed to a different parent candidate after an ack timeout."),
		rootHandovers:   r.Counter("dat_root_handovers_total", "Updates re-routed from an unreachable key root to a successor-list standby."),
		deliveries:      r.CounterVec("dat_update_deliveries_total", "Completed acked-update delivery chains, by outcome.", "outcome"),
		retryLatency:    r.Histogram("dat_update_retry_latency_seconds", "First send to terminal ack/abandon for deliveries that needed more than one attempt.", SecondsBuckets),
		batchFlushes:    r.CounterVec("dat_batch_flushes_total", "Send-machine queue flushes, by trigger (bytes, elems, deadline, drain).", "reason"),
		batchElems:      r.Histogram("dat_batch_elems_per_flush", "Messages coalesced per send-machine flush.", FanInBuckets),
		batchSaved:      r.Counter("dat_batch_bytes_saved_total", "Estimated per-datagram overhead bytes avoided by coalescing."),

		breakerTransitions: r.CounterVec("dat_breaker_transitions_total", "Per-peer circuit-breaker transitions, by new state.", "state"),

		ownerArcs: r.CounterVec("dat_maan_owner_arcs_total", "Range-query starts by owner-arc table outcome (hit, miss) and arcs dropped as stale.", "result"),
	}
	for _, f := range treeFamilies {
		column := loadSortColumns[f.column]
		r.counterVecFunc(f.name, f.help, "tree", func() []labeledCount {
			rows := o.Load.Snapshot() // o.Load read per scrape: callers may replace it
			counts := make([]labeledCount, 0, len(rows))
			for _, row := range rows {
				if n := column(row); n != 0 {
					counts = append(counts, labeledCount{row.Label, n})
				}
			}
			return counts
		})
	}
	return o
}

// treeFamilies are the dat_tree_* counter families: each a scrape-time
// view of one column of the per-tree table (top-K keys plus `other`), so
// nothing is looked up or mirrored per event.
var treeFamilies = []struct{ name, help, column string }{
	{"dat_tree_updates_sent_total", "Value updates sent, by tree (top-K keys plus an `other` bucket).", "sent"},
	{"dat_tree_updates_recv_total", "Inbound child updates accepted, by tree.", "recv"},
	{"dat_tree_elems_total", "Outbound batch elements (updates, detaches), by tree.", "elems"},
	{"dat_tree_wire_bytes_total", "Estimated outbound payload bytes, by tree.", "bytes"},
	{"dat_tree_fanin_total", "Child partials folded across rounds, by tree.", "fanin"},
	{"dat_tree_retries_total", "Acked-update send attempts beyond the first, by tree.", "retries"},
	{"dat_tree_root_slots_total", "Rounds completed as the tree's root, by tree.", "root"},
}

// Tap returns the transport.Tap feeding the per-type message counter.
// Attach it via SimNetwork.SetTap or rpcudp.Config.Tap.
func (o *Observer) Tap() transport.Tap {
	return transport.TapFunc(func(from, to transport.Addr, typ string, oneWay bool) {
		o.msgs.With(typ).Inc()
	})
}

// ChordHooks returns hooks bound to this observer's chord instruments.
func (o *Observer) ChordHooks() ChordHooks {
	return ChordHooks{
		LookupDone: func(hops int, err error) {
			if err != nil {
				o.lookups.With("error").Inc()
			} else {
				o.lookups.With("ok").Inc()
			}
			o.lookupHops.Observe(float64(hops))
		},
		StabilizeRound: func() { o.stabilizeRounds.Inc() },
		JoinDone: func(d time.Duration, err error) {
			if err == nil {
				o.joinSeconds.Observe(d.Seconds())
			}
		},
		Suspected: func(transport.Addr) { o.suspects.Inc() },
		Evicted:   func(transport.Addr) { o.evictions.Inc() },
	}
}

// CoreHooks returns hooks bound to this observer's DAT instruments and
// span ring.
func (o *Observer) CoreHooks() CoreHooks {
	return CoreHooks{
		Span: func(s Span) {
			o.Spans.Record(s)
			o.spansTotal.Inc()
		},
		RoundDone: func(key ident.ID, slot int64, root bool, fanIn int, nodes uint64, latency time.Duration) {
			role := "relay"
			if root {
				role = "root"
			}
			o.rounds.With(role).Inc()
			o.roundLatency.Observe(latency.Seconds())
			o.roundFanIn.Observe(float64(fanIn))
			if root {
				// Relays only see their subtree; the root's count is the
				// network-wide figure the gauge advertises.
				o.roundNodes.Set(float64(nodes))
			}
			o.Load.Round(key, root, fanIn)
		},
		UpdateApplied: func(key ident.ID, demand bool) {
			if demand {
				o.updates.With("applied-demand").Inc()
			} else {
				o.updates.With("applied").Inc()
			}
			o.Load.Recv(key)
		},
		UpdateRejected: func(key ident.ID, reason string) { o.updates.With("rejected-" + reason).Inc() },
		ChildExpired:   func(n int) { o.childExpired.Add(uint64(n)) },
		UpdateRetried: func(key ident.ID) {
			o.updateRetries.Inc()
			o.Load.Retry(key)
		},
		ParentFailover: func() { o.parentFailovers.Inc() },
		RootHandover:   func() { o.rootHandovers.Inc() },
		DeliveryDone: func(ok bool, attempts int, latency time.Duration) {
			if ok {
				o.deliveries.With("ok").Inc()
			} else {
				o.deliveries.With("abandoned").Inc()
			}
			if attempts > 1 {
				o.retryLatency.Observe(latency.Seconds())
			}
		},
		BatchFlush: func(reason string, elems, bytesSaved int) {
			o.batchFlushes.With(reason).Inc()
			o.batchElems.Observe(float64(elems))
			o.batchSaved.Add(uint64(bytesSaved))
		},
		TreeSent: func(key ident.ID, typ string, bytes int) { o.Load.Sent(key, typ, bytes) },
		Breaker: func(peer transport.Addr, state string) {
			o.breakerTransitions.With(state).Inc()
		},
	}
}

// MAANHooks returns hooks bound to this observer's directory
// instruments.
func (o *Observer) MAANHooks() MAANHooks {
	return MAANHooks{OwnerArc: func(result string) { o.ownerArcs.With(result).Inc() }}
}

// TransportHooks returns hooks bound to this observer's transport
// error counters.
func (o *Observer) TransportHooks() TransportHooks {
	return TransportHooks{
		SendError:    func(string) { o.sendErrors.Inc() },
		DecodeError:  func() { o.decodeErrors.Inc() },
		WireSent:     func(n int) { o.wireBytes.With("tx").Add(uint64(n)) },
		WireReceived: func(n int) { o.wireBytes.With("rx").Add(uint64(n)) },
	}
}

// Health is the /healthz payload. Running=false yields HTTP 503.
type Health struct {
	Running       bool   `json:"running"`
	Addr          string `json:"addr,omitempty"`
	ID            string `json:"id,omitempty"`
	Successor     string `json:"successor,omitempty"`
	Predecessor   string `json:"predecessor,omitempty"`
	EstimatedSize uint64 `json:"estimated_size,omitempty"`
	ActiveKeys    int    `json:"active_keys,omitempty"`
}

// SetHealth installs the /healthz probe. fn is called per request and
// must be safe for concurrent use.
func (o *Observer) SetHealth(fn func() Health) {
	o.mu.Lock()
	o.health = fn
	o.mu.Unlock()
}

// AddDebug registers a named section rendered by /debug/dat. Sections
// appear in registration order.
func (o *Observer) AddDebug(name string, fn func(w io.Writer)) {
	o.mu.Lock()
	o.debug = append(o.debug, debugSection{name: name, fn: fn})
	o.mu.Unlock()
}

// SetLoadSummary installs the cluster-wide section of /debug/load: fn
// returns the latest self-monitoring summary (false while no monitoring
// round has completed). fn is called per request, must be safe for
// concurrent use, and must not block — serve a cached root result, not
// a live protocol query.
func (o *Observer) SetLoadSummary(fn func() (LoadSummary, bool)) {
	o.mu.Lock()
	o.loadSummary = fn
	o.mu.Unlock()
}

// SetOverload installs the /debug/overload renderer: fn writes the
// node's overload-layer state (queue depth and hi-water, breaker
// table — core's Node.WriteOverloadDebug). fn is called per request and
// must be safe for concurrent use.
func (o *Observer) SetOverload(fn func(w io.Writer)) {
	o.mu.Lock()
	o.overload = fn
	o.mu.Unlock()
}

// writeOverload renders /debug/overload.
func (o *Observer) writeOverload(w io.Writer) {
	o.mu.Lock()
	fn := o.overload
	o.mu.Unlock()
	if fn == nil {
		fmt.Fprintln(w, "no overload provider installed")
		return
	}
	fn(w)
}

// writeLoad renders /debug/load: the cluster-wide summary (when a
// provider is installed) followed by this node's per-tree table.
func (o *Observer) writeLoad(w io.Writer, sortBy string) {
	o.mu.Lock()
	fn := o.loadSummary
	o.mu.Unlock()
	fmt.Fprintln(w, "== cluster load (self-monitoring DAT) ==")
	if fn == nil {
		fmt.Fprintln(w, "self-monitoring disabled (no summary provider)")
	} else if s, ok := fn(); ok {
		s.Write(w)
	} else {
		fmt.Fprintln(w, "no self-monitoring round completed yet")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== per-tree load (this node) ==")
	o.Load.WriteTable(w, sortBy)
}

func (o *Observer) currentHealth() (Health, bool) {
	o.mu.Lock()
	fn := o.health
	o.mu.Unlock()
	if fn == nil {
		return Health{Running: true}, false
	}
	return fn(), true
}

func (o *Observer) writeDebug(w io.Writer) {
	o.mu.Lock()
	sections := make([]debugSection, len(o.debug))
	copy(sections, o.debug)
	o.mu.Unlock()
	if len(sections) == 0 {
		fmt.Fprintln(w, "no debug sections registered")
		return
	}
	for i, s := range sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "== %s ==\n", s.name)
		s.fn(w)
	}
}
