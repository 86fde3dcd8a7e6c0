package core_test

import (
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
)

// TestQueryLadderBoundsBuckets: a ladder of 1 000 on-demand queries,
// several epochs in flight at once, answers each one exactly, and the
// epoch buckets the nodes hold stay bounded by the epochs in flight
// times n: a relay's bucket dies once no retry can reach it, not when
// the node does. Once the last window and the buckets' life have
// passed, no node holds one.
func TestQueryLadderBoundsBuckets(t *testing.T) {
	const (
		n       = 16
		queries = 1000
		every   = 100 * time.Millisecond
		window  = 500 * time.Millisecond
	)
	c := newCluster(t, cluster.Options{N: n, Seed: 29, Local: localByIndex})
	key := c.Space.HashString("mem")
	life := c.DAT[0].EpochLifeForTest()
	// An epoch is in flight from its query until its root's window has
	// closed and its relays' buckets have lived out their life after
	// the last flush; the second life covers the flushes' debounce chain.
	inFlight := int((window+2*life)/every) + 1
	buckets := func() (held int) {
		for _, d := range c.DAT {
			held += d.EpochBucketsForTest()
		}
		return held
	}
	answered, peak := 0, 0
	for q := 0; q < queries; q++ {
		c.DAT[q%n].Query(key, window, func(r core.QueryResp, err error) {
			answered++
			if err != nil || r.Agg.Count != n || r.Agg.Sum != float64(n*(n-1))/2 {
				t.Errorf("query %d answered count %d sum %v, err %v", q, r.Agg.Count, r.Agg.Sum, err)
			}
		})
		c.RunFor(every)
		held := buckets()
		peak = max(peak, held)
		if held > inFlight*n {
			t.Fatalf("after %d queries %d buckets are held, over %d epochs in flight × %d nodes", q+1, held, inFlight, n)
		}
	}
	c.RunFor(window + 2*life)
	if answered != queries {
		t.Fatalf("%d of %d queries answered", answered, queries)
	}
	if held := buckets(); held != 0 {
		t.Fatalf("%d buckets held after the last epoch's life (peak %d)", held, peak)
	}
	for i, d := range c.DAT {
		if keys := d.ActiveKeys(); len(keys) != 0 {
			t.Errorf("node %d runs %d trees, none started", i, len(keys))
		}
	}
}

// TestStartAfterQuery: a query leaves no tree row behind, so starting
// continuous aggregation of the same key afterwards succeeds on every
// node, and the tree then counts them all.
func TestStartAfterQuery(t *testing.T) {
	const n = 16
	c := newCluster(t, cluster.Options{N: n, Seed: 31, Local: localByIndex})
	key := c.Space.HashString("load")
	answered := false
	c.DAT[3].Query(key, time.Second, func(r core.QueryResp, err error) {
		answered = err == nil && r.Agg.Count == n
	})
	c.RunFor(2 * time.Second)
	if !answered {
		t.Fatal("query not answered in full")
	}
	latest, err := c.StartContinuousAll(key, time.Second)
	if err != nil {
		t.Fatalf("start after a query: %v", err)
	}
	c.RunFor(10 * time.Second)
	if _, agg, ok := latest(); !ok || agg.Count != n {
		t.Fatalf("tree after a query counted %d of %d (ok=%v)", agg.Count, n, ok)
	}
}

// TestStartAdoptsEnrolledRow: a child's update reaches the key's root
// before the root's own StartContinuous and enrols it, with a slot of
// the child's. The start adopts that row rather than refusing it: it
// keeps the cached child, re-arms on its own slot, and its onResult
// fires within two slots, counting the child.
func TestStartAdoptsEnrolledRow(t *testing.T) {
	c := newCluster(t, cluster.Options{N: 8, Seed: 37, Local: localByIndex})
	key := c.Space.HashString("disk")
	root := -1
	for i, d := range c.DAT {
		if _, isRoot, ok := d.ParentFor(key); ok && isRoot {
			root = i
		}
	}
	if root < 0 {
		t.Fatal("no node believes it is the root")
	}
	d := c.DAT[root]
	child := c.Chord[(root+1)%len(c.Chord)].Self()
	um := core.UpdateMsg{
		Key: key, Epoch: int64(time.Duration(c.Engine.Now()) / time.Second), Nodes: 1,
		Slot: int64(time.Hour), Sender: child,
	}
	um.Agg.AddSample(100)
	if ack, ok := d.HandleUpdateForTest(child.Addr, um); !ok || !ack.OK {
		t.Fatalf("enrolling update answered %+v (ok=%v)", ack, ok)
	}
	var results []core.Aggregate
	if err := d.StartContinuous(key, time.Second, func(_ int64, agg core.Aggregate) { results = append(results, agg) }); err != nil {
		t.Fatalf("start on an enrolled row: %v", err)
	}
	if kids := d.ChildrenInfo(key); len(kids) != 1 || kids[0].Addr != child.Addr {
		t.Fatalf("adopted row caches %+v, want the child %v", kids, child.Addr)
	}
	if err := d.StartContinuous(key, time.Second, nil); err == nil {
		t.Fatal("a second local start succeeded")
	}
	c.RunFor(2 * time.Second)
	if len(results) == 0 {
		t.Fatal("onResult did not fire within two slots of the start")
	}
	if got := results[0]; got.Count != 2 || got.Sum != 100+float64(root) {
		t.Fatalf("first result %+v, want the root's sample and the child's", got)
	}
}

// TestHandleUpdateRefusesDemandWhenClosed: a closed node makes no epoch
// bucket for a contribution; it refuses it so the child routes around.
func TestHandleUpdateRefusesDemandWhenClosed(t *testing.T) {
	c := newCluster(t, cluster.Options{N: 4, Seed: 41, Local: localByIndex})
	d := c.DAT[0]
	d.Close()
	um := core.UpdateMsg{Key: 5, Epoch: 9, Nodes: 1, Demand: true, Seq: 1, Sender: chord.NodeRef{Addr: "sim/stranger"}}
	um.Agg.AddSample(1)
	if ack, ok := d.HandleUpdateForTest("sim/stranger", um); !ok || ack.OK || ack.Reason != "closed" {
		t.Fatalf("closed node answered %+v (ok=%v), want a refusal", ack, ok)
	}
	if held := d.EpochBucketsForTest(); held != 0 {
		t.Fatalf("closed node holds %d buckets", held)
	}
}
