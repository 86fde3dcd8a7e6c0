package dat_test

import (
	"runtime"
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

// TestClosedPeerIsQuiescent: a peer's timers — slot ticks, ack timeouts,
// flush deadlines, chord's maintenance loops, the MAAN announcer — all
// live on its clock's one loop, and Close ends that loop last. After
// Close no goroutine of the peer is left and no sensor is read again.
func TestClosedPeerIsQuiescent(t *testing.T) {
	const slot = 20 * time.Millisecond
	before := runtime.NumGoroutine()
	p, err := dat.NewPeer(dat.PeerConfig{
		Listen: "127.0.0.1:0", Name: "quiescent",
		Attributes: []dat.Attribute{{Name: "cpu", Min: 0, Max: 100}},
		Stabilize:  5 * time.Millisecond, FixFingers: 5 * time.Millisecond, Ping: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Create()
	var reads atomic.Int64
	p.AddSensor("cpu", func() (float64, bool) { reads.Add(1); return 1, true })
	third := make(chan struct{})
	var results atomic.Int64
	if err := p.StartMonitor("cpu", slot, func(int64, dat.Aggregate) {
		if results.Add(1) == 3 {
			close(third)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Announce(slot); err != nil {
		t.Fatal(err)
	}
	select {
	case <-third:
	case <-time.After(10 * time.Second):
		t.Fatal("monitor produced no results before Close")
	}
	if runtime.NumGoroutine() <= before {
		t.Fatal("test premise: a running peer owns goroutines")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The clock loop and the socket reader have exited when Close
	// returns; a retransmit timer's goroutine may take a moment more.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Close, %d before NewPeer:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
	settled := reads.Load()
	time.Sleep(10 * slot)
	if got := reads.Load(); got != settled {
		t.Errorf("a closed peer read its sensor %d more times", got-settled)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestLiveStartAndCloseMidQuery: on a live ring, a peer whose monitor
// starts after its neighbours' updates enrolled it adopts that tree
// rather than failing, and closing every peer while queries from
// several goroutines are in flight — epochs held everywhere, flushes
// under way — lets every query return and leaves no goroutine behind.
func TestLiveStartAndCloseMidQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	const slot = 50 * time.Millisecond
	before := runtime.NumGoroutine()
	var peers []*dat.Peer
	for i := 0; i < 4; i++ {
		p, err := dat.NewPeer(dat.PeerConfig{
			Listen: "127.0.0.1:0", RPCTimeout: 2 * time.Second,
			Stabilize: 20 * time.Millisecond, FixFingers: 20 * time.Millisecond, Ping: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		p.AddSensor("cpu", func() (float64, bool) { return 1, true })
		if i == 0 {
			p.Create()
		} else if err := p.Join(peers[0].Addr()); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if agg, err := peers[1].Query("cpu", 400*time.Millisecond); err == nil && agg.Count == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ring never answered a query for all four peers")
		}
	}
	// The last peer starts a few slots after the others, once their
	// updates have enrolled it wherever it is a parent.
	var results atomic.Int64
	for i, p := range peers {
		if i == len(peers)-1 {
			time.Sleep(4 * slot)
		}
		if err := p.StartMonitor("cpu", slot, func(int64, dat.Aggregate) { results.Add(1) }); err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	for _, p := range peers {
		go func(p *dat.Peer) {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
					p.Query("cpu", 150*time.Millisecond) // fails once the peers close
				}
			}
		}(p)
	}
	time.Sleep(10 * slot)
	close(stop)
	for _, p := range peers {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for range peers {
		<-done
	}
	if results.Load() == 0 {
		t.Error("no root result before Close")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Close, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
