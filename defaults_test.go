package dat

import (
	"testing"

	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
)

// TestZeroConfigDefaults pins what the zero value of each deployment
// config builds: Basic trees, and in the simulator identifiers drawn at
// random from the seed — so a change of either default is a deliberate
// edit of this test, not a comment drifting away from the code.
func TestZeroConfigDefaults(t *testing.T) {
	const n = 4
	// The engine's first draws place the ring, from the default seed 1.
	random := chord.RandomIDs(ident.New(32), n, sim.NewEngine(1).Rand())
	check := func(name string, c *cluster.Cluster) {
		t.Helper()
		for i := range c.DAT {
			if got := c.DAT[i].Scheme(); got != core.Basic {
				t.Errorf("%s: node %d runs %v, want basic", name, i, got)
			}
			if c.NodeID(i) != random[i] {
				t.Errorf("%s: node %d has identifier %v, want the random placement's %v", name, i, c.NodeID(i), random[i])
			}
		}
	}

	c, err := cluster.New(cluster.Options{N: n})
	if err != nil {
		t.Fatal(err)
	}
	check("cluster.Options", c)

	g, err := NewSimGrid(SimGridConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	check("SimGridConfig", g.c)

	p, err := NewPeer(PeerConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.dat.Scheme(); got != core.Basic {
		t.Errorf("PeerConfig: peer runs %v, want basic", got)
	}
}
