package core_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestParentForExcludingRoutesAroundFailures checks the candidate
// enumeration that drives in-slot failover: with no exclusions it
// matches ParentFor; excluding the chosen parent yields a different live
// candidate; excluding everything yields no candidate.
func TestParentForExcludingRoutesAroundFailures(t *testing.T) {
	c := newCluster(t, cluster.Options{N: 24, Seed: 17, Local: localByIndex})
	key := c.Space.HashString("cpu-usage")
	root := c.Ring().SuccessorOf(key)

	checked := 0
	for i, dn := range c.DAT {
		if c.Chord[i].Self().ID == root {
			continue
		}
		parent, isRoot, ok := dn.ParentFor(key)
		if !ok || isRoot {
			continue
		}
		p2, isRoot2, keyRoot2, ok2 := dn.ParentForExcluding(key, nil)
		if !ok2 || isRoot2 || p2.Addr != parent.Addr {
			t.Fatalf("node %d: empty exclusion diverged from ParentFor: %v vs %v", i, p2.Addr, parent.Addr)
		}
		_ = keyRoot2
		alt, altRoot, _, altOK := dn.ParentForExcluding(key, []transport.Addr{parent.Addr})
		if altOK && !altRoot {
			if alt.Addr == parent.Addr {
				t.Fatalf("node %d: excluded parent %v returned again", i, parent.Addr)
			}
			if alt.Addr == c.Chord[i].Self().Addr {
				t.Fatalf("node %d: failover chose self", i)
			}
		}
		// Excluding every other node leaves nothing to fail over to.
		if _, _, _, anyOK := dn.ParentForExcluding(key, c.Addrs()); anyOK {
			t.Fatalf("node %d: produced a candidate with every address excluded", i)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d relay nodes checked; ring did not converge as expected", checked)
	}
}

// TestUpdateRefusalReasons table-drives the live-refusal acks a parent
// can return: an update for an unknown aggregate without a slot duration
// — or with one too short to arm a timer on — is refused "no-slot" and
// enrols nothing; an update arriving from the receiver's own parent is
// refused "cycle" (adopting it would double-count the subtree); a
// well-formed child update is accepted.
func TestUpdateRefusalReasons(t *testing.T) {
	c := newCluster(t, cluster.Options{N: 16, Seed: 23, Local: localByIndex})
	key := c.Space.HashString("cpu-usage")
	root := c.Ring().SuccessorOf(key)

	// Pick a relay node (non-root, has a parent) to play receiver.
	recv := -1
	var parentAddr transport.Addr
	for i, dn := range c.DAT {
		if c.Chord[i].Self().ID == root {
			continue
		}
		if p, isRoot, ok := dn.ParentFor(key); ok && !isRoot {
			recv, parentAddr = i, p.Addr
			break
		}
	}
	if recv < 0 {
		t.Fatal("no relay node found")
	}
	// A child address: any live node that is not the receiver's parent.
	var childAddr transport.Addr
	for _, a := range c.Addrs() {
		if a != parentAddr && a != c.Chord[recv].Self().Addr {
			childAddr = a
			break
		}
	}

	slot := int64(500 * time.Millisecond)
	cases := []struct {
		name       string
		from       transport.Addr
		msg        core.UpdateMsg
		wantOK     bool
		wantReason string
	}{
		{
			name:   "no-slot",
			from:   childAddr,
			msg:    core.UpdateMsg{Key: c.Space.HashString("unknown-attr"), Epoch: 1},
			wantOK: false, wantReason: "no-slot",
		},
		{
			name:   "slot-1ns",
			from:   childAddr,
			msg:    core.UpdateMsg{Key: c.Space.HashString("unknown-attr"), Epoch: 1, Slot: 1},
			wantOK: false, wantReason: "no-slot",
		},
		{
			name:   "cycle",
			from:   parentAddr,
			msg:    core.UpdateMsg{Key: key, Epoch: 1, Slot: slot},
			wantOK: false, wantReason: "cycle",
		},
		{
			name:   "accepted",
			from:   childAddr,
			msg:    core.UpdateMsg{Key: key, Epoch: 1, Slot: slot, Nodes: 3},
			wantOK: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			timers := c.Engine.Len()
			ack, ok := c.DAT[recv].HandleUpdateForTest(tc.from, tc.msg)
			if !ok {
				t.Fatal("the update was not answered with one ack")
			}
			if ack.OK != tc.wantOK || ack.Reason != tc.wantReason {
				t.Fatalf("ack = %+v, want OK=%v reason=%q", ack, tc.wantOK, tc.wantReason)
			}
			if tc.wantReason == "no-slot" {
				if c.DAT[recv].Active(tc.msg.Key) {
					t.Error("a refused update enrolled the receiver")
				}
				if got := c.Engine.Len(); got != timers {
					t.Errorf("a refused update armed %d timers", got-timers)
				}
			}
		})
	}
}

// TestBreakerOpensOnDeadParentAndRecovers is the delivery-layer breaker
// integration test: killing a mid-tree parent must open at least one
// orphan's breaker (isolating the corpse in O(1) per slot instead of a
// full retry budget), feed the failure detector, and — once the ring
// routes around — coverage must return to every live node, with zero
// control traffic shed anywhere.
func TestBreakerOpensOnDeadParentAndRecovers(t *testing.T) {
	const n = 24
	slot := 500 * time.Millisecond
	c := newCluster(t, cluster.Options{
		N: n, Seed: 19, Local: localByIndex,
		Overload: core.OverloadConfig{BreakerCooldown: 250 * time.Millisecond},
	})
	key := c.Space.HashString("cpu-usage")
	latest, err := c.StartContinuousAll(key, slot)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(6 * slot)

	root := c.Ring().SuccessorOf(key)
	parent := -1
	best := 0
	for i := range c.DAT {
		if !c.Chord[i].Running() || c.Chord[i].Self().ID == root {
			continue
		}
		if kids := len(c.DAT[i].ChildrenInfo(key)); kids > best {
			best, parent = kids, i
		}
	}
	if parent < 0 || best == 0 {
		t.Fatal("no mid-tree parent with children found")
	}

	c.Crash(parent)
	c.RunFor(3 * slot)
	opens := uint64(0)
	for i := range c.DAT {
		if c.Chord[i].Running() {
			opens += c.DAT[i].OverloadStats().BreakerOpens
		}
	}
	if opens == 0 {
		t.Error("no breaker opened within three slots of the parent dying")
	}

	// Recovery: once the routing tables evict the corpse every live node
	// is counted again. Poll per slot under a bounded window.
	recovered := false
	for i := 0; i < 10 && !recovered; i++ {
		c.RunFor(slot)
		if _, agg, ok := latest(); ok && agg.Count == uint64(n-1) {
			recovered = true
		}
	}
	if !recovered {
		_, agg, _ := latest()
		t.Errorf("coverage after recovery window = %d, want %d", agg.Count, n-1)
	}
	for i := range c.DAT {
		if !c.Chord[i].Running() {
			continue
		}
		if r := c.DAT[i].OverloadStats().Rejected; r != 0 {
			t.Errorf("node %d refused %d elements", i, r)
		}
	}
}

// TestAckTimeoutFeedsSuspect is the send-suspect-semantics regression
// test: over a transport where writes to a dead peer succeed locally
// (exactly what real UDP does), killing a parent's endpoint must still
// strike it in the peer-health record — via the delivery layer's ack
// timeouts — within one retry budget, and two strikes must evict it.
func TestAckTimeoutFeedsSuspect(t *testing.T) {
	const n = 24
	o := obs.NewObserver(16)
	slot := 500 * time.Millisecond
	c := newCluster(t, cluster.Options{
		N: n, Seed: 19, Local: localByIndex, Observer: o,
		// Slow the ping-based detector far past the test horizon so any
		// strike observed below is attributable to ack timeouts alone.
		PingEvery:       time.Hour,
		StabilizeEvery:  time.Hour,
		FixFingersEvery: time.Hour,
	})
	key := c.Space.HashString("cpu-usage")
	if _, err := c.StartContinuousAll(key, slot); err != nil {
		t.Fatal(err)
	}
	c.RunFor(6 * slot)

	// Pick the non-root node with the most cached children: a mid-tree
	// parent whose death strands a real subtree.
	root := c.Ring().SuccessorOf(key)
	parent := -1
	best := 0
	for i := range c.DAT {
		if !c.Chord[i].Running() || c.Chord[i].Self().ID == root {
			continue
		}
		if kids := len(c.DAT[i].ChildrenInfo(key)); kids > best {
			best, parent = kids, i
		}
	}
	if parent < 0 || best == 0 {
		t.Fatal("no mid-tree parent with children found")
	}

	suspects := o.Reg.Counter("chord_suspects_total", "").Value()
	evictions := o.Reg.Counter("chord_evictions_total", "").Value()
	retries := o.Reg.Counter("dat_update_retries_total", "").Value()

	c.Crash(parent)
	// One slot tick puts the orphans' updates on the wire; one retry
	// budget is two ack timeouts plus the flush delay of the re-send.
	budget := slot + 2*150*time.Millisecond + 2*40*time.Millisecond
	c.RunFor(budget)

	if got := o.Reg.Counter("chord_suspects_total", "").Value(); got <= suspects {
		t.Errorf("no Suspect within one retry budget of killing the parent endpoint (%d -> %d)", suspects, got)
	}
	if got := o.Reg.Counter("chord_evictions_total", "").Value(); got <= evictions {
		t.Errorf("dead parent not evicted within one retry budget (%d -> %d)", evictions, got)
	}
	if got := o.Reg.Counter("dat_update_retries_total", "").Value(); got <= retries {
		t.Errorf("no delivery retries recorded (%d -> %d)", retries, got)
	}
}
