package maan

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chord"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// MAAN message types.
const (
	// MsgStore registers one attribute-value entry at its owner node.
	MsgStore = "maan.store"
	// MsgRange is the range query traveling along the successor arc.
	MsgRange = "maan.range"
	// MsgResult returns the collected resources to the query originator.
	MsgResult = "maan.result"
	// MsgReplicate pushes an owner's full entry set to its successor for
	// crash durability (opt-in, see Service.Replicate).
	MsgReplicate = "maan.replicate"
)

// StoreReq registers a resource under one attribute value. Key is the
// hashed ring key (computed by the sender), kept with the entry so the
// owner can hand it off when the key arc changes hands.
type StoreReq struct {
	Attr  string
	Value float64
	Key   ident.ID
	Res   Resource
}

// RangeReq is the in-flight range query state: it accumulates matches as
// it walks the successor arc from successor(H(lo)) to successor(H(hi)).
type RangeReq struct {
	QueryID uint64
	Origin  transport.Addr
	Pred    Predicate
	Filter  []Predicate
	LoKey   ident.ID
	HiKey   ident.ID
	// Start is the first node on the arc; a query over the full value
	// domain terminates when the walk laps back to it. An originator
	// that took the first node from its owner-arc table, not from a
	// lookup, leaves Start empty: the receiver then answers only if it
	// owns LoKey, and fills Start in itself.
	Start transport.Addr
	// Found is what the nodes walked so far matched, in wire form.
	Found Records
	Hops  int
	// Final marks the message as addressed to the terminal node (set by
	// its predecessor), so the receiver answers even if it has not yet
	// learned its own predecessor.
	Final bool
}

// ResultMsg ends a query at its originator: the terminal node delivers
// the result set, or a node that could not pass the walk on says why in
// Err (Found is then empty).
type ResultMsg struct {
	QueryID uint64
	Found   Records
	Hops    int
	Err     string
}

// WireEntry is one stored entry in a replication batch.
type WireEntry struct {
	Attr  string
	Key   ident.ID
	Value float64
	Res   Resource
}

// ReplicateMsg replaces the receiver's replica set for the sender.
type ReplicateMsg struct {
	Owner   transport.Addr
	Entries []WireEntry
}

// ErrQueryTimeout reports an unanswered live range query.
var ErrQueryTimeout = errors.New("maan: query timed out")

// errNotOwner is ResultMsg.Err from a node that was handed the start of
// a walk (RangeReq.Start empty) for a key it does not own. It is wire
// format: the originator compares it to tell a stale arc from a failed
// walk.
const errNotOwner = "maan: not the owner of the range's first key"

// Service is the live MAAN layer of one node: it owns the attribute
// entries whose hashed values fall in this node's arc and participates
// in query forwarding. When a node joins on this node's arc (observed as
// a predecessor change), the entries the joiner now owns are handed off
// through normal routing; entries on a *crashed* node are lost until the
// producer's next periodic announcement (there is no replication, as in
// the paper's prototype).
type Service struct {
	ch     *chord.Node
	ep     transport.Endpoint
	clock  transport.Clock
	schema *Schema

	mu      sync.Mutex
	store   map[string][]ownedEntry // attr -> entries owned by this node
	pending map[uint64]*pendingQuery
	arcs    arcTable // where finished lookups say a walk can start
	nextQID atomic.Uint64
	obs     obs.MAANHooks

	stopTransfer func()
	replicas     map[transport.Addr][]WireEntry // per-origin replica sets

	// Replicate, when set, pushes this node's entries to its immediate
	// successor on every maintenance scan; when the successor inherits
	// the arc (this node crashes), it promotes the replicas and keeps
	// serving them. Off by default: the paper's prototype relies on
	// producer re-announcement instead.
	Replicate bool
	// QueryTimeout bounds live range queries. Default 5s.
	QueryTimeout time.Duration
	// EntryTTL is the soft-state lifetime of a stored entry: entries not
	// refreshed by a producer announcement within the TTL expire. This is
	// what retires stale values — a changed reading hashes to a different
	// owner, so the old entry can only age out, never be overwritten.
	// Default 60s.
	EntryTTL time.Duration
}

// ownedEntry is one stored attribute value with its ring key and
// refresh time (soft state). rec is res in wire form, encoded once when
// the entry is stored and never written again: queries match against
// res and carry rec away.
type ownedEntry struct {
	key   ident.ID
	value float64
	res   Resource
	rec   []byte
	at    time.Duration // clock time of last refresh
}

// pendingQuery is one query in flight at its originator, and the
// record of its timeout timer.
type pendingQuery struct {
	s       *Service
	cb      func([]Resource, int, error)
	req     RangeReq // as first sent, Start still empty
	timeout transport.Timer
	// via is the owner the walk was started at on the table's word, empty
	// once a lookup has named the first node. Guarded by s.mu.
	via transport.Addr
}

// RunEvent implements transport.TimerTask: the query timed out.
func (pq *pendingQuery) RunEvent(int32) {
	pq.s.finishQuery(pq.req.QueryID, nil, 0, ErrQueryTimeout)
}

// NewService attaches a MAAN layer to a Chord node.
func NewService(ch *chord.Node, ep transport.Endpoint, clock transport.Clock, schema *Schema) *Service {
	s := &Service{
		ch:           ch,
		ep:           ep,
		clock:        clock,
		schema:       schema,
		store:        make(map[string][]ownedEntry),
		replicas:     make(map[transport.Addr][]WireEntry),
		pending:      make(map[uint64]*pendingQuery),
		arcs:         arcTable{space: ch.Space()},
		QueryTimeout: 5 * time.Second,
		EntryTTL:     60 * time.Second,
	}
	ch.Handle(MsgStore, s.handleStore)
	ch.Handle(MsgRange, s.handleRange)
	ch.Handle(MsgResult, s.handleResult)
	ch.Handle(MsgReplicate, s.handleReplicate)
	// Key-space hand-off: react immediately when a closer predecessor
	// appears (a node joined on our arc), and re-scan periodically — the
	// first attempt can run before the ring has fully integrated the
	// joiner, in which case the lookup still resolves here and the entry
	// stays until the next scan. The scan is message-free when nothing is
	// misplaced.
	ch.OnPredecessorChange(func(_, _ chord.NodeRef) { s.transferMisplaced() })
	s.stopTransfer = clock.Every(5*time.Second, time.Second, func() {
		s.pruneExpired()
		s.promoteReplicas()
		s.transferMisplaced()
		s.replicateToSuccessor()
	})
	return s
}

// Observe installs the telemetry hooks. Call it before the node enters
// a ring.
func (s *Service) Observe(h obs.MAANHooks) { s.obs = h }

// replicateToSuccessor pushes this node's full entry set to its
// immediate successor (one one-way message per scan; no-op when
// replication is off, the node is alone, or it stores nothing).
func (s *Service) replicateToSuccessor() {
	if !s.Replicate {
		return
	}
	succ := s.ch.Successor()
	if succ.IsZero() || succ.Addr == s.ep.Addr() {
		return
	}
	// Iterate attributes in sorted order: the batch crosses the wire,
	// so its element order must not depend on map iteration (detorder).
	s.mu.Lock()
	attrs := make([]string, 0, len(s.store))
	for attr := range s.store {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	var batch []WireEntry
	for _, attr := range attrs {
		for _, e := range s.store[attr] {
			batch = append(batch, WireEntry{Attr: attr, Key: e.key, Value: e.value, Res: e.res})
		}
	}
	s.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	s.ch.Send(succ.Addr, MsgReplicate, ReplicateMsg{Owner: s.ep.Addr(), Entries: batch})
}

// handleReplicate replaces the replica set held for one origin owner.
func (s *Service) handleReplicate(req *transport.Request) {
	rm, ok := req.Payload.(ReplicateMsg)
	if !ok {
		return
	}
	s.mu.Lock()
	s.replicas[rm.Owner] = rm.Entries
	s.mu.Unlock()
}

// promoteReplicas moves replicated entries whose keys now fall in this
// node's arc into the owned store — the owner died and this node
// inherited its key range. Entries still owned elsewhere stay parked.
func (s *Service) promoteReplicas() {
	if !s.Replicate {
		return
	}
	rt := s.ch.Routing()
	self, pred := rt.Self, rt.Pred
	if pred.IsZero() {
		return
	}
	space := s.ch.Space()
	s.mu.Lock()
	var promote []WireEntry
	for owner, entries := range s.replicas {
		// While the origin is still our direct predecessor it owns its
		// entries; only an arc we inherited is promoted.
		if owner == pred.Addr {
			continue
		}
		kept := entries[:0]
		for _, e := range entries {
			if space.InHalfOpen(e.Key, pred.ID, self.ID) {
				promote = append(promote, e)
			} else {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(s.replicas, owner)
		} else {
			s.replicas[owner] = kept
		}
	}
	s.mu.Unlock()
	for _, e := range promote {
		s.insert(e.Attr, ownedEntry{key: e.Key, value: e.Value, res: e.Res})
	}
}

// pruneExpired drops entries whose producers stopped refreshing them.
func (s *Service) pruneExpired() {
	if s.EntryTTL <= 0 {
		return
	}
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for attr, es := range s.store {
		kept := es[:0]
		for _, e := range es {
			if now-e.at <= s.EntryTTL {
				kept = append(kept, e)
			}
		}
		s.store[attr] = kept
	}
}

// Close stops the service's background hand-off scan. The chord node and
// endpoint are owned by the caller and stay untouched.
func (s *Service) Close() {
	if s.stopTransfer != nil {
		s.stopTransfer()
	}
}

// transferMisplaced re-routes every stored entry whose key no longer
// falls in this node's arc (pred, self]. Entries are removed locally and
// re-registered through normal routing, so they land on (and stay with)
// their current owner even across multi-node arc changes.
func (s *Service) transferMisplaced() {
	rt := s.ch.Routing()
	self, pred := rt.Self, rt.Pred
	if pred.IsZero() || pred.Addr == self.Addr {
		return
	}
	space := s.ch.Space()
	type moved struct {
		attr string
		e    ownedEntry
	}
	// Sorted attribute order: each moved entry triggers a Lookup (and
	// usually a Store RPC), so the issue order must be deterministic
	// for byte-identical sim traces (detorder).
	var out []moved
	s.mu.Lock()
	attrs := make([]string, 0, len(s.store))
	for attr := range s.store {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		es := s.store[attr]
		kept := es[:0]
		for _, e := range es {
			if space.InHalfOpen(e.key, pred.ID, self.ID) {
				kept = append(kept, e)
			} else {
				out = append(out, moved{attr, e})
			}
		}
		s.store[attr] = kept
	}
	s.mu.Unlock()
	for _, m := range out {
		m := m
		s.ch.Lookup(m.e.key, func(owner chord.NodeRef, err error) {
			if err != nil {
				// Could not place it: keep it here rather than lose it.
				s.insert(m.attr, m.e)
				return
			}
			if owner.Addr == s.ep.Addr() {
				s.insert(m.attr, m.e)
				return
			}
			req := StoreReq{Attr: m.attr, Value: m.e.value, Key: m.e.key, Res: m.e.res}
			s.ep.Call(owner.Addr, MsgStore, req, func(_ any, err error) {
				if err != nil {
					s.insert(m.attr, m.e) // transfer failed: keep serving it
				}
			})
		})
	}
}

// insert stores one entry locally, keeping per-attribute value order. A
// resource has one value per attribute, so any previous entry for the
// same (attribute, resource) pair is replaced.
func (s *Service) insert(attr string, e ownedEntry) {
	e.at = s.clock.Now()
	if e.rec == nil {
		e.rec = RecordsOf(e.res).Run
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	es := s.store[attr]
	kept := es[:0]
	for _, old := range es {
		if old.res.Name != e.res.Name {
			kept = append(kept, old)
		}
	}
	es = kept
	i := sort.Search(len(es), func(i int) bool { return es[i].value >= e.value })
	es = append(es, ownedEntry{})
	copy(es[i+1:], es[i:])
	es[i] = e
	s.store[attr] = es
}

// Register stores the resource under each of its attribute values,
// routing every registration to the value's successor node. cb runs once
// with the first error or nil after all registrations land.
func (s *Service) Register(res Resource, cb func(error)) {
	if res.Name == "" {
		cb(fmt.Errorf("maan: resource needs a name"))
		return
	}
	type kv struct {
		attr string
		v    float64
		key  ident.ID
	}
	var kvs []kv
	for attr, v := range res.Values {
		key, err := s.schema.Hash(attr, v)
		if err != nil {
			cb(err)
			return
		}
		kvs = append(kvs, kv{attr, v, key})
	}
	for attr, sv := range res.Strings {
		key, err := s.schema.HashString(attr, sv)
		if err != nil {
			cb(err)
			return
		}
		kvs = append(kvs, kv{attr, 0, key})
	}
	if len(kvs) == 0 {
		cb(fmt.Errorf("maan: resource %q has no attributes", res.Name))
		return
	}
	// kvs was collected from map ranges; sort it so the per-attribute
	// registration lookups go out in a deterministic order (detorder).
	// Attribute names are unique across Values and Strings (the schema
	// declares each name with exactly one kind).
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].attr < kvs[j].attr })
	var mu sync.Mutex
	remaining := len(kvs)
	var firstErr error
	finish := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 {
			cb(firstErr)
		}
	}
	for _, item := range kvs {
		item := item
		s.ch.Lookup(item.key, func(owner chord.NodeRef, err error) {
			if err != nil {
				finish(err)
				return
			}
			s.ep.Call(owner.Addr, MsgStore,
				StoreReq{Attr: item.attr, Value: item.v, Key: item.key, Res: res},
				func(_ any, err error) { finish(err) })
		})
	}
}

// RangeQuery resolves a single-attribute range query. cb runs once with
// the matching resources and the overlay hop count.
func (s *Service) RangeQuery(p Predicate, cb func([]Resource, int, error)) {
	s.query(p, nil, cb)
}

// MultiAttrQuery resolves a conjunctive query with the single-attribute
// dominated approach (§2.2).
func (s *Service) MultiAttrQuery(preds []Predicate, cb func([]Resource, int, error)) {
	if len(preds) == 0 {
		cb(nil, 0, fmt.Errorf("maan: empty query"))
		return
	}
	best, bestSel := 0, 2.0
	for i, p := range preds {
		sel, err := s.schema.Selectivity(p)
		if err != nil {
			cb(nil, 0, err)
			return
		}
		if sel < bestSel {
			best, bestSel = i, sel
		}
	}
	others := make([]Predicate, 0, len(preds)-1)
	others = append(others, preds[:best]...)
	others = append(others, preds[best+1:]...)
	s.query(preds[best], others, cb)
}

// query starts the walk at the owner of loKey. A finished lookup proves
// a whole interval of keys to be that owner's, so the table of such
// arcs usually names the owner at once; a miss is a lookup, which
// teaches the table. The table can be stale — the node it names checks
// (handleRange), and the walk then starts again from a lookup.
func (s *Service) query(p Predicate, filter []Predicate, cb func([]Resource, int, error)) {
	loKey, hiKey, err := s.schema.predicateKeys(p)
	if err != nil {
		cb(nil, 0, err)
		return
	}
	pq := &pendingQuery{s: s, cb: cb, req: RangeReq{
		QueryID: s.nextQID.Add(1),
		Origin:  s.ep.Addr(),
		Pred:    p,
		Filter:  filter,
		LoKey:   loKey,
		HiKey:   hiKey,
	}}
	// Arm before publishing: once the query is in s.pending a result
	// can finish it, and finishing stops the timer.
	pq.timeout = s.clock.AfterRun(s.QueryTimeout, pq, 0)
	s.mu.Lock()
	owner, hit := s.arcs.find(loKey)
	if hit {
		pq.via = owner.Addr
	}
	s.pending[pq.req.QueryID] = pq
	s.mu.Unlock()
	if !hit {
		s.arcResult("miss")
		s.startByLookup(pq)
		return
	}
	s.arcResult("hit")
	if err := s.ep.Send(owner.Addr, MsgRange, pq.req); err != nil {
		s.finishQuery(pq.req.QueryID, nil, 0, err)
	}
}

// startByLookup resolves the walk's first node the long way and
// remembers what the lookup proved.
func (s *Service) startByLookup(pq *pendingQuery) {
	s.ch.Lookup(pq.req.LoKey, func(first chord.NodeRef, err error) {
		if err != nil {
			s.finishQuery(pq.req.QueryID, nil, 0, err)
			return
		}
		s.mu.Lock()
		s.arcs.learn(pq.req.LoKey, first)
		s.mu.Unlock()
		req := pq.req
		req.Start = first.Addr
		if err := s.ep.Send(first.Addr, MsgRange, req); err != nil {
			s.finishQuery(req.QueryID, nil, 0, err)
		}
	})
}

// retryByLookup answers a not-owner result: the arc the query started
// from is stale. A query is restarted once — only a table-started walk
// can be refused, and the restart is not one — so a repeated or forged
// refusal finds via empty and is ignored.
func (s *Service) retryByLookup(qid uint64) {
	s.mu.Lock()
	pq := s.pending[qid]
	if pq == nil || pq.via == "" {
		s.mu.Unlock()
		return
	}
	s.arcs.drop(pq.via)
	pq.via = ""
	s.mu.Unlock()
	s.arcResult("stale")
	s.startByLookup(pq)
}

func (s *Service) arcResult(result string) {
	if h := s.obs.OwnerArc; h != nil {
		h(result)
	}
}

func (s *Service) finishQuery(qid uint64, res []Resource, hops int, err error) {
	s.mu.Lock()
	pq := s.pending[qid]
	if pq == nil {
		s.mu.Unlock()
		return
	}
	delete(s.pending, qid)
	// A table-started walk that failed may have failed because its arc
	// is stale (a crashed owner shows only as a timeout). Forgetting a
	// good arc costs one lookup.
	stale := err != nil && pq.via != ""
	if stale {
		s.arcs.drop(pq.via)
	}
	s.mu.Unlock()
	if stale {
		s.arcResult("stale")
	}
	pq.timeout.Stop()
	pq.cb(res, hops, err)
}

// --- handlers ---

func (s *Service) handleStore(req *transport.Request) {
	sr, ok := req.Payload.(StoreReq)
	if !ok {
		req.ReplyError(fmt.Errorf("maan: bad store payload %T", req.Payload))
		return
	}
	s.insert(sr.Attr, ownedEntry{key: sr.Key, value: sr.Value, res: sr.Res})
	req.Reply(chord.AckResp{})
}

func (s *Service) handleRange(req *transport.Request) {
	rr, ok := req.Payload.(RangeReq)
	if !ok {
		return
	}
	rt := s.ch.Routing()
	self, pred, succ := rt.Self, rt.Pred, rt.Successor()
	space := s.ch.Space()
	if rr.Start == "" {
		// The originator chose this node from its owner-arc table. Only
		// the owner of LoKey may start the walk; a node that cannot
		// tell (no predecessor yet) says no, and the originator asks
		// the ring.
		alone := succ.Addr == self.Addr
		if !alone && (pred.IsZero() || !space.InHalfOpen(rr.LoKey, pred.ID, self.ID)) {
			// Best effort: unanswered, the query times out and the
			// originator drops the arc all the same.
			_ = s.ch.Send(rr.Origin, MsgResult, ResultMsg{QueryID: rr.QueryID, Err: errNotOwner})
			return
		}
		rr.Start = self.Addr
	}
	// Collect this node's matches as the records stored with them; what
	// earlier hops found travels on unread. The records are immutable,
	// so they outlive the lock.
	var few [8][]byte
	own, size := few[:0], 0
	s.mu.Lock()
	es := s.store[rr.Pred.Attr]
	for i := range es {
		e := &es[i]
		if !rr.Pred.Exact && (e.value < rr.Pred.Lo || e.value > rr.Pred.Hi) {
			continue
		}
		if e.res.matches(rr.Pred) && e.res.Matches(rr.Filter) {
			own = append(own, e.rec)
			size += len(e.rec)
		}
	}
	s.mu.Unlock()
	rr.Found = rr.Found.with(own, size)

	// Terminal test: we own HiKey AND the queried span actually ends here
	// (a full-domain query resolves both bounds to the same node but must
	// still lap the ring; the span test tells the two cases apart).
	spanEndsHere := space.Dist(rr.LoKey, rr.HiKey) <= space.Dist(rr.LoKey, self.ID) ||
		self.ID == rr.HiKey
	lastHop := rr.Final ||
		succ.Addr == self.Addr || // alone
		(!pred.IsZero() && space.InHalfOpen(rr.HiKey, pred.ID, self.ID) && spanEndsHere)
	// Hop cap: a query must never lap the ring twice (possible only with
	// badly stale neighbor state); 2x the size estimate is generous.
	if !lastHop && uint64(rr.Hops) > 2*rt.EstimatedNetworkSize()+16 {
		lastHop = true
	}
	if lastHop {
		if err := s.ch.Send(rr.Origin, MsgResult, ResultMsg{QueryID: rr.QueryID, Found: rr.Found, Hops: rr.Hops}); err != nil {
			s.abandon(rr, err)
		}
		return
	}
	rr.Hops++
	// If the successor is the terminal node — it owns the upper bound, or
	// the walk is about to lap back to its starting node — say so
	// explicitly in case its predecessor pointer is still unset.
	rr.Final = (space.InHalfOpen(rr.HiKey, self.ID, succ.ID) && spanEndsAt(space, rr, succ.ID)) ||
		succ.Addr == rr.Start
	if err := s.ch.Send(succ.Addr, MsgRange, rr); err != nil {
		s.abandon(rr, err)
	}
}

// abandon tells the originator that the walk ended here without an
// answer, so its query fails now and not at the timeout.
func (s *Service) abandon(rr RangeReq, cause error) {
	// Best effort: with the originator out of reach too, the timeout is
	// what remains.
	_ = s.ch.Send(rr.Origin, MsgResult, ResultMsg{QueryID: rr.QueryID, Hops: rr.Hops, Err: cause.Error()})
}

// spanEndsAt reports whether the queried span [LoKey, HiKey] ends at or
// before the given node position going clockwise from LoKey.
func spanEndsAt(space ident.Space, rr RangeReq, at ident.ID) bool {
	return space.Dist(rr.LoKey, rr.HiKey) <= space.Dist(rr.LoKey, at) || at == rr.HiKey
}

func (s *Service) handleResult(req *transport.Request) {
	rm, ok := req.Payload.(ResultMsg)
	if !ok {
		return
	}
	// Decode for a live query only: a duplicate or forged result costs
	// a map lookup, not a parse.
	s.mu.Lock()
	_, live := s.pending[rm.QueryID]
	s.mu.Unlock()
	if !live {
		return
	}
	if rm.Err == errNotOwner {
		s.retryByLookup(rm.QueryID)
		return
	}
	if rm.Err != "" {
		s.finishQuery(rm.QueryID, nil, rm.Hops, fmt.Errorf("maan: query abandoned at %s: %s", req.From, rm.Err))
		return
	}
	found, err := rm.Found.decode(s.schema)
	if err != nil {
		s.finishQuery(rm.QueryID, nil, rm.Hops, fmt.Errorf("maan: result from %s: %w", req.From, err))
		return
	}
	s.finishQuery(rm.QueryID, found, rm.Hops, nil)
}

// WriteDebug renders the directory state for /debug/dat.
func (s *Service) WriteDebug(w io.Writer) {
	s.mu.Lock()
	arcs := len(s.arcs.arcs)
	s.mu.Unlock()
	fmt.Fprintf(w, "owner arcs cached  %d of %d\n", arcs, maxOwnerArcs)
}

// LocalEntries returns how many entries this node currently owns.
func (s *Service) LocalEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, es := range s.store {
		total += len(es)
	}
	return total
}
