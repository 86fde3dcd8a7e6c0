package maan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
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

	randomQuery := func() []Predicate {
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
	forked := 0
	ask := func() {
		preds := randomQuery()
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
