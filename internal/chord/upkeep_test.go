package chord

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestFixFingersAsksTheHolder: on a warm-started ring one fix-fingers
// sweep costs at most one Step per finger the node's own tables cannot
// answer. Each finger's holder still owns the finger's key and answers
// it at once, so the sweep finds every finger where it was.
func TestFixFingersAsksTheHolder(t *testing.T) {
	c := newSimCluster(t, 17, 32, transport.SimConfig{})
	c.tune = func(cfg *Config) { cfg.FixFingersEvery = time.Hour }
	nodes := c.seedRing(RandomIDs(c.space, 64, rand.New(rand.NewSource(17))))
	c.eng.RunFor(time.Second)
	for _, n := range []*Node{nodes[0], nodes[21], nodes[42]} {
		bits := int(c.space.Bits())
		remote := 0
		for j := 0; j < bits; j++ {
			if !n.localStep(c.space.FingerStart(n.Self().ID, uint(j))).Done {
				remote++
			}
		}
		if remote == 0 {
			t.Fatalf("%s answers every finger from its own tables: the test measures nothing", n.Self().Addr)
		}
		steps := 0
		c.net.SetTap(transport.TapFunc(func(from, _ transport.Addr, typ string, _ bool) {
			if from == n.Self().Addr && typ == MsgStep {
				steps++
			}
		}))
		before := slices.Clone(n.Routing().Fingers)
		for r := 0; r < (bits+fingersPerRound-1)/fingersPerRound; r++ {
			n.fixFingers()
		}
		c.eng.RunFor(time.Second)
		t.Logf("%s: one sweep sent %d Steps for %d fingers its own tables cannot answer", n.Self().Addr, steps, remote)
		if steps > remote {
			t.Errorf("%s: one fix-fingers sweep sent %d Steps, want at most one per remote finger (%d)", n.Self().Addr, steps, remote)
		}
		if !slices.Equal(before, n.Routing().Fingers) {
			t.Errorf("%s: the sweep moved fingers of the ideal ring", n.Self().Addr)
		}
	}
}

// TestStepAnswersOwnArc: a node answers a Step for a key in (pred, self]
// itself, as final: the key's successor is the node asked.
func TestStepAnswersOwnArc(t *testing.T) {
	c := newSimCluster(t, 23, 16, transport.SimConfig{})
	nodes := c.seedRing(EvenIDs(c.space, 16))
	c.eng.RunFor(time.Second)
	asker, owner, pred := nodes[9], nodes[4], nodes[3]
	gap := c.space.Dist(pred.Self().ID, owner.Self().ID)
	for _, key := range []uint64{1, gap / 2, gap} {
		key := c.space.Add(pred.Self().ID, key)
		var got StepResp
		answered := false
		asker.ep.Call(owner.Self().Addr, MsgStep, StepReq{Key: key}, func(payload any, err error) {
			if err != nil {
				t.Errorf("step for %v: %v", key, err)
			}
			got, _ = payload.(StepResp)
			answered = true
		})
		c.eng.RunFor(time.Second)
		if !answered {
			t.Fatalf("step for %v was never answered", key)
		}
		if !got.Done || got.Next != owner.Self() {
			t.Errorf("step for %v in (pred, self] answered %+v, want Done at %v", key, got, owner.Self())
		}
	}
}

// TestStabilizingPredecessorIsNotPinged: a predecessor whose stabilize
// GetState reached a node within the last PingEvery is alive by
// first-hand evidence, so the node does not ping it. PingEvery is set
// above the fully stretched, jittered stabilize period, so every check
// on the quiet ring finds such evidence and no ping is sent.
func TestStabilizingPredecessorIsNotPinged(t *testing.T) {
	c := newSimCluster(t, 19, 16, transport.SimConfig{})
	c.tune = func(cfg *Config) { cfg.PingEvery = 2 * maxStretch * cfg.StabilizeEvery }
	c.seedRing(EvenIDs(c.space, 16))
	pings := 0
	c.net.SetTap(transport.TapFunc(func(_, _ transport.Addr, typ string, _ bool) {
		if typ == MsgPing {
			pings++
		}
	}))
	c.eng.RunFor(40 * c.config().PingEvery)
	if !c.converged() {
		t.Fatal("the quiet ring lost its ideal state")
	}
	if pings != 0 {
		t.Fatalf("%d pings to predecessors that stabilize within PingEvery, want none", pings)
	}
}

// TestCrashedPredecessorClearedWithinBound: a predecessor that crashes
// just after its stabilize GetState reached its successor is cleared
// within three jittered ping periods plus the call deadline (DESIGN.md
// §16): the first check after the crash may still skip the ping, and
// the next two pings fail, the second strike evicting. Finger repair is
// slowed past the test's horizon, so the ping is the only detector.
func TestCrashedPredecessorClearedWithinBound(t *testing.T) {
	const deadline = 100 * time.Millisecond
	c := newSimCluster(t, 29, 16, transport.SimConfig{CallTimeout: deadline})
	c.tune = func(cfg *Config) { cfg.FixFingersEvery = time.Hour }
	nodes := c.seedRing(EvenIDs(c.space, 16))
	c.eng.RunFor(20 * c.config().StabilizeEvery)
	victim, succ := nodes[6], nodes[7]
	// Crash just after a call of the victim's has landed at its
	// successor: the freshest evidence, the longest the successor may
	// skip its ping.
	landed := false
	c.net.SetTap(transport.TapFunc(func(from, to transport.Addr, typ string, _ bool) {
		if from == victim.Self().Addr && to == succ.Self().Addr && (typ == MsgGetState || typ == MsgNotify) {
			landed = true
		}
	}))
	for start := c.eng.Now(); !landed; c.eng.RunFor(time.Millisecond) {
		if time.Duration(c.eng.Now()-start) > 10*c.config().StabilizeEvery {
			t.Fatal("the victim never called its successor")
		}
	}
	c.net.SetTap(nil)
	victim.Stop(false)
	_ = victim.ep.Close()
	crashed := c.eng.Now()
	bound := 3*c.config().PingEvery*6/5 + deadline
	for succ.Predecessor().Addr == victim.Self().Addr {
		if elapsed := time.Duration(c.eng.Now() - crashed); elapsed > bound {
			t.Fatalf("crashed predecessor still in place %v after the crash, bound %v", elapsed, bound)
		}
		c.eng.RunFor(time.Millisecond)
	}
	t.Logf("predecessor cleared %v after the crash (bound %v)", time.Duration(c.eng.Now()-crashed), bound)
}
