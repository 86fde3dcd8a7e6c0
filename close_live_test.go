package dat_test

import (
	"sync/atomic"
	"testing"
	"time"

	dat "repro"
)

// TestClosedPeerFiresNoResults: Close stops the peer's monitoring trees.
// A lone peer is the root of every tree, so before the fix its slot
// timers kept surfacing a result per slot forever after Close.
func TestClosedPeerFiresNoResults(t *testing.T) {
	const slot = 40 * time.Millisecond
	p, err := dat.NewPeer(dat.PeerConfig{Listen: "127.0.0.1:0", Name: "close-live"})
	if err != nil {
		t.Fatal(err)
	}
	p.Create()
	p.AddSensor("cpu", func() (float64, bool) { return 1, true })
	var results atomic.Int64
	third := make(chan struct{})
	err = p.StartMonitor("cpu", slot, func(int64, dat.Aggregate) {
		if results.Add(1) == 3 {
			close(third)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-third:
	case <-time.After(10 * time.Second):
		t.Fatal("monitor produced no results before Close")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// A tick already running when Close returned may still deliver its
	// result; nothing may start after it.
	time.Sleep(2 * slot)
	settled := results.Load()
	time.Sleep(8 * slot)
	if got := results.Load(); got != settled {
		t.Fatalf("closed peer surfaced %d more results", got-settled)
	}
}
