package cluster

import (
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
)

// failoverLocal gives node i the sample float64(i) for every key.
func failoverLocal(i int, _ time.Duration, _ ident.ID) (float64, bool) { return float64(i), true }

// failoverFixture builds the 32-node ring used by the failover e2e
// tests: maintenance is frozen past the test horizon so the delivery
// layer's ack timeouts are the only failure detector in play, and the
// recovery is attributable to it alone.
func failoverFixture(t *testing.T, o *obs.Observer) (*Cluster, ident.ID) {
	t.Helper()
	c, err := New(Options{
		N: 32, Seed: 41, Local: failoverLocal,
		Observer: o,
		// Result broadcasts give every node the last full count, so a
		// handover standby measures coverage against what the tree
		// actually delivered rather than the noisy density estimate.
		ShareResults:    true,
		PingEvery:       time.Hour,
		StabilizeEvery:  time.Hour,
		FixFingersEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Space.HashString("cpu-usage")
}

// pickVictims returns the index of the key root, the index of the
// root's ring successor (the handover standby, which must survive), and
// the index of the mid-tree parent with the most cached children.
func (c *Cluster) pickVictims(t *testing.T, key ident.ID) (rootIdx, standbyIdx, parentIdx int) {
	t.Helper()
	ring := c.Ring()
	rootID := ring.SuccessorOf(key)
	standbyID := ring.Succ(rootID)
	rootIdx, standbyIdx, parentIdx = -1, -1, -1
	best := 0
	for i := range c.Chord {
		if !c.Chord[i].Running() {
			continue
		}
		switch c.Chord[i].Self().ID {
		case rootID:
			rootIdx = i
			continue
		case standbyID:
			standbyIdx = i
			continue
		}
		if kids := len(c.DAT[i].ChildrenInfo(key)); kids > best {
			best, parentIdx = kids, i
		}
	}
	if rootIdx < 0 || standbyIdx < 0 {
		t.Fatalf("root/standby not found (%d/%d)", rootIdx, standbyIdx)
	}
	if parentIdx < 0 || best == 0 {
		t.Fatal("no mid-tree parent with cached children")
	}
	return rootIdx, standbyIdx, parentIdx
}

// TestFailoverSurvivesParentAndRootCrash is the PR's end-to-end
// acceptance scenario: on a 32-node ring with continuous aggregation,
// crash a mid-tree parent and the key root in the same slot. The
// orphans re-home in-slot, the root's children hand the tree over to
// the successor, and within a few slots a live root reports an
// aggregate covering every surviving node — with both failover counters
// incremented (the delivery layer, not luck, closed the gap) and the
// handover result flagged Degraded while the standby bridges.
func TestFailoverSurvivesParentAndRootCrash(t *testing.T) {
	const (
		n    = 32
		slot = 500 * time.Millisecond
	)

	run := func(t *testing.T) (bestCount uint64, bestCoverage float64, degradedSeen bool, o *obs.Observer) {
		t.Helper()
		o = obs.NewObserver(16)
		c, key := failoverFixture(t, o)
		latest, err := c.StartContinuousAll(key, slot)
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(6 * slot)

		rootIdx, standbyIdx, parentIdx := c.pickVictims(t, key)
		_ = standbyIdx

		// Mid-slot crash: quarter of a slot past the warmup boundary, so
		// in-flight sends and holds are mid-round when both nodes die.
		c.RunFor(slot / 4)
		crashSlot, _, _ := latest()
		c.Crash(parentIdx)
		c.Crash(rootIdx)

		// Poll through the recovery window for fresh post-crash results.
		deadline := 6 * slot
		for elapsed := time.Duration(0); elapsed < deadline; elapsed += slot / 5 {
			c.RunFor(slot / 5)
			s, agg, ok := latest()
			if !ok || s <= crashSlot {
				continue
			}
			if agg.Count > bestCount {
				bestCount = agg.Count
			}
			if agg.Coverage > bestCoverage {
				bestCoverage = agg.Coverage
			}
			if agg.Degraded {
				degradedSeen = true
			}
		}
		return bestCount, bestCoverage, degradedSeen, o
	}

	t.Run("enabled", func(t *testing.T) {
		count, coverage, degraded, o := run(t)
		if want := uint64(n - 2); count < want {
			t.Errorf("best post-crash count = %d, want >= %d (subtree lost despite failover)", count, want)
		}
		if want := float64(n-2) / float64(n); coverage < want {
			t.Errorf("best post-crash coverage = %.3f, want >= %.3f", coverage, want)
		}
		if !degraded {
			t.Error("no Degraded result observed during handover bridging")
		}
		if got := o.Reg.Counter("dat_parent_failovers_total", "").Value(); got < 1 {
			t.Errorf("dat_parent_failovers_total = %d, want >= 1", got)
		}
		if got := o.Reg.Counter("dat_root_handovers_total", "").Value(); got < 1 {
			t.Errorf("dat_root_handovers_total = %d, want >= 1", got)
		}
	})
}
