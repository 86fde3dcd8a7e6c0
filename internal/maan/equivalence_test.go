package maan

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestServiceMatchesIndexOracle: on random rings with random
// registrations — some repeated with a changed value, which leaves the
// stale entry at its old owner beside the fresh one at the new — the
// live Service answers random one- and two-predicate queries exactly as
// the offline Index does. The Index walks the same arc and keeps the
// first record of a name it meets, so equality also says which of a
// stale/fresh pair survives. Then again with the network duplicating
// deliveries: a duplicated request forks the walk, every fork delivers
// its own result, and each must decode to the same set (forks share the
// bytes they carry).
func TestServiceMatchesIndexOracle(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(400 + trial)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { oracleTrial(t, seed) })
	}
}

func oracleTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(57)
	c, err := cluster.New(cluster.Options{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(c.Space,
		Attribute{Name: "cpu-usage", Min: 0, Max: 100},
		Attribute{Name: "memory-size", Min: 0, Max: 4096})
	if err != nil {
		t.Fatal(err)
	}
	index := NewIndex(schema, c.Ring())
	services := make([]*Service, n)
	// delivered[node][qid] is every result set handed to that originator
	// for that query, duplicates and forks included.
	type delivery struct {
		res []Resource
		err error
	}
	delivered := make([]map[uint64][]delivery, n)
	for i := range services {
		svc := NewService(c.Chord[i], c.Endpoint(i), c.Net.Clock(), schema)
		svc.EntryTTL = 0 // stale entries stay: that is the case under test
		t.Cleanup(svc.Close)
		services[i] = svc
		log := map[uint64][]delivery{}
		delivered[i] = log
		c.Chord[i].Handle(MsgResult, func(req *transport.Request) {
			if rm, ok := req.Payload.(ResultMsg); ok {
				res, err := rm.Found.decode(schema)
				log[rm.QueryID] = append(log[rm.QueryID], delivery{res, err})
			}
			svc.handleResult(req)
		})
	}

	register := func(res Resource) {
		from := rng.Intn(n)
		if _, err := index.Register(c.NodeID(from), res); err != nil {
			t.Fatal(err)
		}
		done := false
		services[from].Register(res, func(err error) {
			if err != nil {
				t.Errorf("register %s: %v", res.Name, err)
			}
			done = true
		})
		c.RunFor(time.Second)
		if !done {
			t.Fatalf("register %s never completed", res.Name)
		}
	}
	reading := func(i int) Resource {
		return Resource{Name: fmt.Sprintf("host%03d", i), Values: map[string]float64{
			"cpu-usage":   rng.Float64() * 100,
			"memory-size": rng.Float64() * 4096,
		}}
	}
	m := 20 + rng.Intn(41)
	for i := 0; i < m; i++ {
		register(reading(i))
	}
	for i := 0; i < m/3; i++ {
		register(reading(rng.Intn(m))) // a new reading for a known host
	}
	stored := 0
	for _, svc := range services {
		stored += svc.LocalEntries()
	}
	if stored <= 2*m {
		t.Fatalf("%d entries stored for %d hosts: no stale entry survived, the trial tests nothing", stored, m)
	}

	forked := 0
	ask := func() {
		preds := randomPreds(rng)
		from := rng.Intn(n)
		want, _, err := index.MultiAttrQuery(c.NodeID(from), preds)
		if err != nil {
			t.Fatal(err)
		}
		var got []Resource
		answered := false
		services[from].MultiAttrQuery(preds, func(res []Resource, _ int, err error) {
			if err != nil {
				t.Errorf("query %v: %v", preds, err)
			}
			got, answered = res, true
		})
		qid := services[from].nextQID.Load()
		c.RunFor(3 * time.Second) // long enough for every fork to arrive
		if !answered {
			t.Fatalf("query %v never answered", preds)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %v from node %d:\n got %v\nwant %v", preds, from, got, want)
		}
		all := delivered[from][qid]
		if len(all) == 0 {
			t.Fatalf("query %v: no result delivery recorded", preds)
		}
		if len(all) > 1 {
			forked++
		}
		for k, d := range all {
			if d.err != nil || !reflect.DeepEqual(d.res, want) {
				t.Errorf("query %v, delivery %d of %d: %v, %v\nwant %v", preds, k+1, len(all), d.res, d.err, want)
			}
		}
	}
	for q := 0; q < 30; q++ {
		ask()
	}
	if forked != 0 {
		t.Errorf("%d queries delivered twice on a clean network", forked)
	}
	c.Net.SetFaultPlan(transport.ProbFaults{Dup: 0.1})
	for q := 0; q < 30; q++ {
		ask()
	}
	if forked == 0 {
		t.Error("duplication never produced a second delivery: the aliasing half tested nothing")
	}
}

// randomPreds draws a query: one range on either attribute, the whole
// ring, or a conjunction of two ranges.
func randomPreds(rng *rand.Rand) []Predicate {
	cpu := func() Predicate {
		lo := rng.Float64() * 100
		return Range("cpu-usage", lo, lo+rng.Float64()*(100-lo))
	}
	mem := func() Predicate {
		lo := rng.Float64() * 4096
		return Range("memory-size", lo, lo+rng.Float64()*(4096-lo))
	}
	switch rng.Intn(4) {
	case 0:
		return []Predicate{cpu()}
	case 1:
		return []Predicate{mem()}
	case 2:
		return []Predicate{Range("cpu-usage", 0, 100)} // the whole ring
	default:
		return []Predicate{cpu(), mem()}
	}
}

// arcRing is a 64-node simulated ring with a MAAN service on every
// node, a fixed set of resources, and the offline Index over the nodes
// now running. Queries go out one at a time, so the owner-arc outcomes
// a service reports between asking and answering belong to that query.
type arcRing struct {
	t        *testing.T
	c        *cluster.Cluster
	schema   *Schema
	services []*Service
	outcomes []map[string]int // per node: OwnerArc results by label
	hosts    []Resource
	index    *Index
}

func newArcRing(t *testing.T, n int, seed int64) *arcRing {
	c, err := cluster.New(cluster.Options{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(c.Space,
		Attribute{Name: "cpu-usage", Min: 0, Max: 100},
		Attribute{Name: "memory-size", Min: 0, Max: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r := &arcRing{t: t, c: c, schema: schema}
	for i := 0; i < n; i++ {
		r.attach(i)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 120; i++ {
		r.hosts = append(r.hosts, Resource{Name: fmt.Sprintf("host%03d", i), Values: map[string]float64{
			"cpu-usage":   rng.Float64() * 100,
			"memory-size": rng.Float64() * 4096,
		}})
	}
	r.announce()
	return r
}

// attach gives node i (the next one) its service.
func (r *arcRing) attach(i int) {
	svc := NewService(r.c.Chord[i], r.c.Endpoint(i), r.c.Net.Clock(), r.schema)
	svc.EntryTTL = 0
	r.t.Cleanup(svc.Close)
	seen := map[string]int{}
	svc.Observe(obs.MAANHooks{OwnerArc: func(result string) { seen[result]++ }})
	r.services = append(r.services, svc)
	r.outcomes = append(r.outcomes, seen)
}

// announce registers every host again, as its producer would, on the
// ring and in a fresh Index over the nodes now running.
func (r *arcRing) announce() {
	r.index = NewIndex(r.schema, r.c.Ring())
	from := 0
	for !r.c.Chord[from].Running() {
		from++
	}
	pending := len(r.hosts)
	for _, h := range r.hosts {
		if _, err := r.index.Register(r.c.NodeID(from), h); err != nil {
			r.t.Fatal(err)
		}
		h := h
		r.services[from].Register(h, func(err error) {
			if err != nil {
				r.t.Errorf("register %s: %v", h.Name, err)
			}
			pending--
		})
	}
	r.c.RunFor(10 * time.Second)
	if pending != 0 {
		r.t.Fatalf("%d registrations never completed", pending)
	}
}

// asked is one query's outcome: the answer, and what the originator's
// owner-arc table did for it.
type asked struct {
	res              []Resource
	err              error
	hit, miss, stale int
}

// ask runs one query from node `from` to its end and checks the two
// things no amount of churn excuses: a query consults the table once
// and restarts at most once, and the table stays well-formed.
func (r *arcRing) ask(from int, preds []Predicate) asked {
	r.t.Helper()
	svc, seen := r.services[from], r.outcomes[from]
	before := asked{hit: seen["hit"], miss: seen["miss"], stale: seen["stale"]}
	var a asked
	answered := false
	svc.MultiAttrQuery(preds, func(res []Resource, _ int, err error) {
		a.res, a.err, answered = res, err, true
	})
	for waited := time.Duration(0); !answered && waited < 2*svc.QueryTimeout; waited += 20 * time.Millisecond {
		r.c.RunFor(20 * time.Millisecond)
	}
	if !answered {
		r.t.Fatalf("query %v from node %d never ended", preds, from)
	}
	a.hit, a.miss, a.stale = seen["hit"]-before.hit, seen["miss"]-before.miss, seen["stale"]-before.stale
	if a.hit+a.miss != 1 || a.stale > 1 || a.stale > a.hit {
		r.t.Fatalf("query %v from node %d: %d hits, %d misses, %d stale arcs; want one consultation and at most one restart",
			preds, from, a.hit, a.miss, a.stale)
	}
	checkArcs(r.t, &svc.arcs)
	return a
}

// want is the oracle's answer.
func (r *arcRing) want(from int, preds []Predicate) []Resource {
	r.t.Helper()
	res, _, err := r.index.MultiAttrQuery(r.c.NodeID(from), preds)
	if err != nil {
		r.t.Fatal(err)
	}
	return res
}

func (r *arcRing) forget(i int) { r.services[i].arcs.arcs = nil }

// TestOwnerArcsMatchOracle: starting a walk from the owner-arc table
// changes what a query costs and nothing else.
func TestOwnerArcsMatchOracle(t *testing.T) {
	const n = 64
	r := newArcRing(t, n, 1907)
	rng := rand.New(rand.NewSource(1908))
	origins := []int{3, 17, 42, 60}

	// The same queries with the table cold (every walk starts from a
	// lookup, as before there was a table) and warm: same sets, and the
	// oracle's.
	type query struct {
		from  int
		preds []Predicate
		cold  []Resource
	}
	queries := make([]query, 300)
	for i := range queries {
		q := &queries[i]
		q.from, q.preds = origins[i%len(origins)], randomPreds(rng)
		r.forget(q.from)
		a := r.ask(q.from, q.preds)
		if a.err != nil || a.miss != 1 {
			t.Fatalf("cold query %v: err %v, %d misses", q.preds, a.err, a.miss)
		}
		q.cold = a.res
		if want := r.want(q.from, q.preds); !reflect.DeepEqual(a.res, want) {
			t.Fatalf("cold query %v from node %d:\n got %v\nwant %v", q.preds, q.from, a.res, want)
		}
	}
	for pass := 0; pass < 2; pass++ {
		hits := 0
		for _, q := range queries {
			a := r.ask(q.from, q.preds)
			if a.err != nil || a.stale != 0 {
				t.Fatalf("warm query %v: err %v, %d stale arcs on a ring that never changed", q.preds, a.err, a.stale)
			}
			if !reflect.DeepEqual(a.res, q.cold) {
				t.Fatalf("query %v from node %d, warm:\n got %v\ncold %v", q.preds, q.from, a.res, q.cold)
			}
			hits += a.hit
		}
		// The second pass asks nothing the first did not teach.
		if pass == 1 && hits != len(queries) {
			t.Errorf("%d of %d repeated queries hit the table, want all", hits, len(queries))
		}
	}

	// Arcs, not keys: keys never seen before hit too. A uniformly random
	// key adds what it proves to its owner's arc, so after q of them a
	// fresh one hits with probability about q/(q+n) and the originator
	// has made about n·ln(1+q/n) lookups: nine in ten hit once it has
	// made 2.3n. Give it 3n.
	const fresh = 10
	r.forget(fresh)
	point := func() []Predicate {
		v := rng.Float64() * 100
		return []Predicate{Range("cpu-usage", v, v)}
	}
	lookups := 0
	for asked := 0; lookups < 3*n; asked++ {
		if asked > 100*n {
			t.Fatalf("%d lookups after %d random keys: the table does not learn", lookups, asked)
		}
		lookups += r.ask(fresh, point()).miss
	}
	hits := 0
	const probes = 300
	for i := 0; i < probes; i++ {
		preds := point()
		a := r.ask(fresh, preds)
		if want := r.want(fresh, preds); a.err != nil || !reflect.DeepEqual(a.res, want) {
			t.Fatalf("query %v: %v, %v\nwant %v", preds, a.res, a.err, want)
		}
		hits += a.hit
	}
	t.Logf("%d lookups taught %d arcs; %d of %d never-seen keys hit", lookups, len(r.services[fresh].arcs.arcs), hits, probes)
	if hits < probes*9/10 {
		t.Errorf("%d of %d never-seen keys hit the table after %d lookups on %d nodes, want nine in ten", hits, probes, lookups, n)
	}
	if got := len(r.services[fresh].arcs.arcs); got > n {
		t.Errorf("%d arcs cached for %d owners", got, n)
	}
}

// TestOwnerArcsUnderChurn: a stale arc costs a restart or a failed
// query, never a wrong answer. Each change to the ring is left to heal
// and the producers to announce again before anyone asks, so the ring
// is consistent and only the tables are out of date.
func TestOwnerArcsUnderChurn(t *testing.T) {
	const n = 64
	r := newArcRing(t, n, 2207)
	rng := rand.New(rand.NewSource(2208))
	origins := []int{5, 23, 38, 51}
	const asker = 5

	// round asks random queries from every origin. Whatever is answered
	// must be the oracle's answer.
	round := func(queries int) (failed, restarted int) {
		t.Helper()
		for i := 0; i < queries; i++ {
			from, preds := origins[i%len(origins)], randomPreds(rng)
			a := r.ask(from, preds)
			restarted += a.stale
			if a.err != nil {
				failed++
				continue
			}
			if want := r.want(from, preds); !reflect.DeepEqual(a.res, want) {
				t.Fatalf("query %v from node %d:\n got %v\nwant %v", preds, from, a.res, want)
			}
		}
		return failed, restarted
	}
	if failed, restarted := round(600); failed != 0 || restarted != 0 {
		t.Fatalf("warm-up on a quiet ring: %d failed, %d restarted", failed, restarted)
	}
	// cpuAt is a cpu-usage value that hashes to (about) the given key.
	cpuAt := func(key ident.ID) float64 {
		return 100 * float64(key) / float64(r.c.Space.Size())
	}
	nodeAt := func(addr transport.Addr) int {
		for i := range r.c.Chord {
			if r.c.NodeAddr(i) == addr {
				return i
			}
		}
		t.Fatalf("no node at %s", addr)
		return -1
	}

	// A join inside a cached arc: the asker's widest arc gets a new node
	// in its middle. The next query for a key the newcomer took over is
	// refused by the old owner, restarted through a lookup, answered
	// correctly, and teaches the table the newcomer.
	tab := &r.services[asker].arcs
	widest := tab.arcs[0]
	for _, a := range tab.arcs {
		if tab.width(a) > tab.width(widest) {
			widest = a
		}
	}
	joinID := r.c.Space.Midpoint(widest.lo, widest.owner.ID)
	if r.c.Ring().Contains(joinID) {
		t.Fatalf("midpoint %v of the widest cached arc is taken", joinID)
	}
	joiner := r.c.AddNode(joinID)
	r.attach(joiner)
	r.c.RunFor(60 * time.Second)
	r.announce()
	v := cpuAt(r.c.Space.Midpoint(widest.lo, joinID))
	preds := []Predicate{Range("cpu-usage", v, v+1)}
	if lo, _, _ := r.schema.predicateKeys(preds[0]); !r.c.Space.InHalfOpen(lo, widest.lo, joinID) {
		t.Fatalf("probe value %v hashes to %v, outside the newcomer's part (%v, %v] of the cached arc", v, lo, widest.lo, joinID)
	}
	a := r.ask(asker, preds)
	if a.err != nil || a.hit != 1 || a.stale != 1 {
		t.Fatalf("first query into the newcomer's arc: err %v, %d hits, %d stale; want one refusal and a restart", a.err, a.hit, a.stale)
	}
	if want := r.want(asker, preds); !reflect.DeepEqual(a.res, want) {
		t.Fatalf("first query into the newcomer's arc:\n got %v\nwant %v", a.res, want)
	}
	if again := r.ask(asker, preds); again.err != nil || again.hit != 1 || again.stale != 0 || !reflect.DeepEqual(again.res, a.res) {
		t.Fatalf("second query into the newcomer's arc: %+v; want a clean hit on the re-learned arc", again)
	}
	if failed, _ := round(200); failed != 0 {
		t.Errorf("%d queries failed after a join: a refusal should cost a restart, not the query", failed)
	}

	// A graceful leave and a crash of cached owners. The asker's first
	// query at the departed node can only time out; that drops the arc,
	// and the ring answers from then on.
	for _, graceful := range []bool{true, false} {
		var gone ownerArc
		for _, a := range tab.arcs {
			i := nodeAt(a.owner.Addr)
			if i != joiner && !slices.Contains(origins, i) && r.c.Chord[i].Running() {
				gone = a
				break
			}
		}
		if graceful {
			r.c.Leave(nodeAt(gone.owner.Addr))
		} else {
			r.c.Crash(nodeAt(gone.owner.Addr))
		}
		r.c.RunFor(60 * time.Second)
		r.announce()
		v := cpuAt(gone.owner.ID)
		preds := []Predicate{Range("cpu-usage", v-0.001, v+1)}
		if lo, _, _ := r.schema.predicateKeys(preds[0]); !r.c.Space.InHalfOpen(lo, gone.lo, gone.owner.ID) && lo != gone.lo {
			t.Fatalf("probe value %v hashes to %v, outside the cached arc [%v, %v]", v, lo, gone.lo, gone.owner.ID)
		}
		a := r.ask(asker, preds)
		if a.hit != 1 || a.stale != 1 || !errors.Is(a.err, ErrQueryTimeout) {
			t.Fatalf("graceful=%v: first query at the departed owner: %+v; want a timeout that drops the arc", graceful, a)
		}
		a = r.ask(asker, preds)
		if want := r.want(asker, preds); a.err != nil || a.miss != 1 || !reflect.DeepEqual(a.res, want) {
			t.Fatalf("graceful=%v: second query: %+v\nwant a lookup and %v", graceful, a, want)
		}
		// The other origins still hold the dead owner's arc: each can
		// lose one query to it, no more.
		if failed, _ := round(200); failed > len(origins)-1 {
			t.Errorf("graceful=%v: %d queries failed, but only %d tables still named the departed owner", graceful, failed, len(origins)-1)
		}
		if failed, restarted := round(200); failed != 0 || restarted != 0 {
			t.Errorf("graceful=%v: once every table had met the change, %d queries failed and %d restarted", graceful, failed, restarted)
		}
	}
}
