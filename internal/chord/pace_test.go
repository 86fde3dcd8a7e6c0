package chord

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
)

// seedRing warm-starts one node per id with the ideal ring's state, as
// large experiments do, and returns the nodes in id order.
func (c *simCluster) seedRing(ids []ident.ID) []*Node {
	c.t.Helper()
	ring, err := NewRing(c.space, ids)
	if err != nil {
		c.t.Fatal(err)
	}
	byID := map[ident.ID]NodeRef{}
	var nodes []*Node
	for _, id := range ids {
		n := c.addNode(id)
		byID[id] = n.Self()
		nodes = append(nodes, n)
	}
	for i, n := range nodes {
		self := ids[i]
		var succs []NodeRef
		for s, k := ring.Succ(self), 0; k < c.config().SuccessorListLen; s, k = ring.Succ(s), k+1 {
			succs = append(succs, byID[s])
		}
		fingers := make([]NodeRef, c.space.Bits())
		for j := range fingers {
			fingers[j] = byID[ring.Finger(self, uint(j))]
		}
		n.SeedState(byID[ring.Pred(self)], succs, fingers)
	}
	return nodes
}

// chordTap counts the chord layer's datagrams, replies included.
type chordTap struct{ n int }

func (t *chordTap) Message(_, _ transport.Addr, typ string, _ bool) {
	if strings.HasPrefix(typ, "chord.") {
		t.n++
	}
}

// TestQuietRingStretchesMaintenance: on a warm-started ring where
// nothing changes, stabilize and fix-fingers stretch their periods to
// full stretch, and a quiet node costs at most quietCeiling chord
// datagrams per base period: half of the 2.72 it cost when every finger
// refresh was a full lookup and every predecessor check a ping.
func TestQuietRingStretchesMaintenance(t *testing.T) {
	c := newSimCluster(t, 5, 32, transport.SimConfig{})
	nodes := c.seedRing(EvenIDs(c.space, 256))
	tap := &chordTap{}
	c.net.SetTap(tap)
	base := c.config().StabilizeEvery
	const first, settle, late = 10, 90, 200
	c.eng.RunFor(first * base)
	early := float64(tap.n) / first
	c.eng.RunFor(settle * base)
	tap.n = 0
	c.eng.RunFor(late * base)
	quiet := float64(tap.n) / late
	if !c.converged() {
		t.Fatal("the quiet ring lost its ideal state")
	}
	per := func(x float64) float64 { return x / float64(len(nodes)) }
	t.Logf("chord datagrams per node per base period: first %d periods %.2f, quiet %.2f", first, per(early), per(quiet))
	const quietCeiling = 1.36
	if per(quiet) > quietCeiling {
		t.Fatalf("quiet ring sends %.2f chord datagrams per node per base period, want at most %.2f", per(quiet), quietCeiling)
	}
	n := nodes[0]
	n.mu.Lock()
	stab, fix := n.stab.period, n.fix.period
	n.mu.Unlock()
	if stab != maxStretch*base || fix != maxStretch*c.config().FixFingersEvery {
		t.Fatalf("periods on a quiet ring: stabilize %v, fix-fingers %v; want both at %dx base", stab, fix, maxStretch)
	}
}

// TestCrashedSuccessorEvictedAtFullStretch: a successor that crashes
// just after its predecessor's stabilize round, with the period at full
// stretch, is evicted within (maxStretch+1) jittered base periods plus
// the call deadline (DESIGN.md §16): the next round's failed call is a
// strike, the strike snaps the period back, and the round one base
// period later strikes again. Finger repair and pings are slowed past
// the test's horizon, so stabilize is the only detector.
func TestCrashedSuccessorEvictedAtFullStretch(t *testing.T) {
	const deadline = 100 * time.Millisecond
	c := newSimCluster(t, 7, 16, transport.SimConfig{CallTimeout: deadline})
	c.tune = func(cfg *Config) { cfg.FixFingersEvery, cfg.PingEvery = time.Hour, time.Hour }
	nodes := c.seedRing(EvenIDs(c.space, 16))
	base := c.config().StabilizeEvery
	c.eng.RunFor(40 * base)
	pred, victim := nodes[3], nodes[4]
	pred.mu.Lock()
	stretched, rounds := pred.stab.period, pred.stab.rounds
	pred.mu.Unlock()
	if stretched != maxStretch*base {
		t.Fatalf("stabilize period %v before the crash, want full stretch %v", stretched, maxStretch*base)
	}
	// Crash just after the predecessor's round has heard back: the
	// worst case, a whole stretched period before the next round.
	for {
		c.eng.RunFor(time.Millisecond)
		pred.mu.Lock()
		ran := pred.stab.rounds != rounds
		pred.mu.Unlock()
		if ran {
			break
		}
	}
	c.eng.RunFor(10 * time.Millisecond)
	victim.Stop(false)
	_ = victim.ep.Close()
	crashed := c.eng.Now()
	bound := (maxStretch+1)*base*6/5 + deadline
	for pred.Successor().Addr == victim.Self().Addr {
		if elapsed := time.Duration(c.eng.Now() - crashed); elapsed > bound {
			t.Fatalf("crashed successor still in place %v after the crash, bound %v", elapsed, bound)
		}
		c.eng.RunFor(time.Millisecond)
	}
	t.Logf("evicted %v after the crash (bound %v)", time.Duration(c.eng.Now()-crashed), bound)
}

// TestJoinReachesPredecessorsByNotice: on a quiet, fully stretched ring
// a join travels back through the change notices, not one stretched
// period per hop: within SuccessorListLen+1 base periods each of the
// joiner's SuccessorListLen predecessors holds the ideal successor list.
func TestJoinReachesPredecessorsByNotice(t *testing.T) {
	c := newSimCluster(t, 11, 16, transport.SimConfig{})
	ids := EvenIDs(c.space, 16)
	nodes := c.seedRing(ids)
	base := c.config().StabilizeEvery
	c.eng.RunFor(40 * base)
	joinID := c.space.Add(ids[7], c.space.Dist(ids[7], ids[8])/2)
	joiner := c.addNode(joinID)
	joined := false
	joiner.Join(nodes[0].Self().Addr, func(err error) {
		if err != nil {
			t.Errorf("join: %v", err)
		}
		joined = true
	})
	for !joined {
		c.eng.RunFor(time.Millisecond)
	}
	ring := c.idealRing()
	byID := map[ident.ID]NodeRef{}
	for _, n := range c.live() {
		byID[n.Self().ID] = n.Self()
	}
	L := c.config().SuccessorListLen
	// The joiner's L predecessors and the lists they should hold.
	type want struct {
		n     *Node
		succs []NodeRef
	}
	var preds []want
	for p, k := ring.Pred(joinID), 0; k < L; p, k = ring.Pred(p), k+1 {
		var succs []NodeRef
		for s, i := ring.Succ(p), 0; i < L; s, i = ring.Succ(s), i+1 {
			succs = append(succs, byID[s])
		}
		for _, n := range nodes {
			if n.Self().ID == p {
				preds = append(preds, want{n, succs})
			}
		}
	}
	start, limit := c.eng.Now(), time.Duration(L+1)*base
	for {
		behind := 0
		for _, w := range preds {
			if got := w.n.Routing().Succs; !slices.Equal(got, w.succs) {
				behind++
			}
		}
		if behind == 0 {
			t.Logf("every predecessor holds the ideal list %v after the join", time.Duration(c.eng.Now()-start))
			return
		}
		if time.Duration(c.eng.Now()-start) > limit {
			t.Fatalf("%d of %d predecessors lack the ideal successor list %v after the join", behind, L, limit)
		}
		c.eng.RunFor(time.Millisecond)
	}
}

// TestStaleRoundIsFenced: on the live clock a round can already be
// popped, waiting for the node's lock, when a snap re-arms its loop.
// That stale firing must neither run a round nor arm a second copy of
// the loop; the simulator never pops an event early, so the test plays
// the clock's part and delivers the stale firing by hand.
func TestStaleRoundIsFenced(t *testing.T) {
	c := newSimCluster(t, 13, 16, transport.SimConfig{})
	nodes := c.seedRing(EvenIDs(c.space, 8))
	base := c.config().StabilizeEvery
	c.eng.RunFor(40 * base)
	n := nodes[0]
	n.mu.Lock()
	p := n.stab
	if p.period != maxStretch*base {
		n.mu.Unlock()
		t.Fatalf("stabilize period %v, want full stretch %v", p.period, maxStretch*base)
	}
	popped := p.gen
	p.snapLocked() // the firing under gen popped is in flight: Stop misses it
	rounds, armed := p.rounds, p.gen
	n.mu.Unlock()

	p.RunEvent(int32(popped))
	n.mu.Lock()
	ran, rearmed := p.rounds-rounds, p.gen != armed
	n.mu.Unlock()
	if ran != 0 || rearmed {
		t.Fatalf("a stale firing ran %d rounds (re-armed: %v), want none", ran, rearmed)
	}

	// One loop, not two: over the next periods at most one round per
	// base period runs.
	const periods = 8
	c.eng.RunFor(periods * base)
	n.mu.Lock()
	ran = p.rounds - rounds
	n.mu.Unlock()
	if ran > periods {
		t.Fatalf("%d stabilize rounds in %d base periods, want at most %d", ran, periods, periods)
	}
}
