package chord

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// This file is the node's one peer-health record (DESIGN.md §10): every
// layer reports first-hand evidence about a peer to it. Ring failures
// strike, EvictStrikes consecutive ones evict the peer, and any other
// evidence clears them. DAT failures and refusals count toward avoiding
// the peer as DAT parent, which only a DAT ack ends.

// Evidence is one observed outcome of an exchange with a peer.
type Evidence uint8

const (
	ChordOK     Evidence = iota + 1 // a ping, state or lookup step answered
	ChordFailed                     // one of those unanswered or refused
	SendFailed                      // a one-way datagram not handed to the peer
	DATAcked                        // a DAT update acknowledged
	DATRefused                      // a live peer refused a DAT update
	DATFailed                       // a DAT exchange timed out or failed in transport
)

var evidenceNames = [...]string{"-", "chord-ok", "chord-fail", "send-error", "dat-ack", "dat-refused", "dat-fail"}

func (e Evidence) String() string { return evidenceNames[e] }

// EvictStrikes consecutive ring failures evict a peer (DESIGN.md §5).
const EvictStrikes = 2

// The avoid-as-DAT-parent verdict's states (the circuit breaker's), as
// the Breaker hook names them; half-open has admitted its one probe.
const avoidClosed, avoidOpen, avoidHalfOpen = "closed", "open", "half-open"

// peerHealth is one peer's record, deleted when back at rest.
type peerHealth struct {
	strikes    int // consecutive ring failures
	avoid      string
	fails      int           // consecutive DAT failures while avoid is closed
	reopens    int           // consecutive failed probes
	openedAt   time.Duration // when avoid last opened
	probeAfter time.Duration // jittered cooldown before the half-open probe
	last       Evidence      // the evidence that last moved a verdict
}

// health holds every peer's record. mu is a leaf lock: nothing is
// called under it, and an eviction takes Node.mu only after releasing it.
type health struct {
	mu    sync.Mutex
	peers map[transport.Addr]*peerHealth
	opens uint64 // cumulative avoid openings
}

// report feeds ring evidence from chord's own exchanges into the record.
func (n *Node) report(peer transport.Addr, ev Evidence, cause error) { n.Report(peer, ev, cause, 0, 0) }

// Report is the record's one entry point: it feeds one piece of evidence
// about peer in and returns the avoid transition it caused ("open",
// "closed" or ""). failures consecutive DAT failures open avoid for a
// jittered cooldown, and an opening by DATFailed is one more strike. A
// cause of transport.ErrClosed or ErrTooLarge is this endpoint's, not
// evidence.
func (n *Node) Report(peer transport.Addr, ev Evidence, cause error, failures int, cooldown time.Duration) (moved string) {
	if errors.Is(cause, transport.ErrClosed) || errors.Is(cause, transport.ErrTooLarge) {
		return ""
	}
	h := &n.health
	h.mu.Lock()
	p := h.peers[peer]
	if p == nil {
		if ev == ChordOK || ev == DATAcked {
			h.mu.Unlock()
			return "" // a peer in good standing: nothing to record
		}
		p = &peerHealth{avoid: avoidClosed}
		h.peers[peer] = p
	}
	before, strikes := *p, 0
	if ev == ChordFailed || ev == SendFailed || ev == DATFailed {
		strikes = 1
	} else {
		p.strikes = 0
	}
	switch {
	case ev == DATAcked:
		if p.avoid != avoidClosed {
			moved = avoidClosed
		}
		p.avoid, p.fails, p.reopens = avoidClosed, 0, 0
	case ev == DATRefused || ev == DATFailed:
		if p.avoid == avoidClosed {
			p.fails++
		} else if p.avoid == avoidHalfOpen {
			p.reopens++ // a failed probe: reopen at once, and back the next one off
		}
		if p.avoid == avoidHalfOpen || p.avoid == avoidClosed && p.fails >= failures {
			moved = avoidOpen
			p.avoid, p.fails, p.openedAt = avoidOpen, 0, n.clock.Now()
			h.opens++
			p.probeAfter = n.probeDelay(peer, h.opens, p.reopens, cooldown)
			if ev == DATFailed {
				strikes++
			}
		}
	}
	evicted := false
	for i := 0; i < strikes; i++ {
		if p.strikes++; p.strikes >= EvictStrikes {
			p.strikes, evicted = 0, true
		}
	}
	if *p != before {
		p.last = ev
	}
	if p.strikes == 0 && p.fails == 0 && p.avoid == avoidClosed {
		delete(h.peers, peer) // back at rest
	}
	h.mu.Unlock()

	if strikes > 0 {
		// A strike is evidence of change: maintenance runs at its base
		// periods until a quiet sweep stretches them again.
		n.mu.Lock()
		if evicted {
			n.removeDeadLocked(peer)
		}
		n.snapLocked()
		n.mu.Unlock()
	}
	if evicted {
		n.cfg.Logger.Info("evicted unresponsive peer", "peer", string(peer), "evidence", ev.String())
	}
	for i := 0; i < strikes; i++ {
		if hk := n.cfg.Obs.Suspected; hk != nil {
			hk(peer)
		}
	}
	if hk := n.cfg.Obs.Evicted; evicted && hk != nil {
		hk(peer)
	}
	return moved
}

// MayCarryDAT answers the DAT layer's one question: may traffic go to
// peer now, and is it the half-open probe? Without admitProbe it only
// reads: ok is false just while avoid is open and cooling down.
func (n *Node) MayCarryDAT(peer transport.Addr, admitProbe bool) (ok, probe bool) {
	now := n.clock.Now()
	n.health.mu.Lock()
	defer n.health.mu.Unlock()
	p := n.health.peers[peer]
	if p == nil || p.avoid == avoidClosed {
		return true, false
	}
	cooled := p.avoid == avoidOpen && now-p.openedAt >= p.probeAfter
	if cooled && admitProbe {
		p.avoid = avoidHalfOpen
		return true, true
	}
	return cooled || !admitProbe && p.avoid == avoidHalfOpen, false
}

// probeDelay is the cooldown armed when avoid opens: doubled per failed
// probe up to 16x, so a long gray failure costs O(log) probes, plus
// draw-free FNV-1a jitter in [0, delay/4) over this node, the peer and
// the open count, so nodes and successive opens de-phase.
func (n *Node) probeDelay(peer transport.Addr, opens uint64, reopens int, cooldown time.Duration) time.Duration {
	d := cooldown << min(reopens, 4)
	if d < 4 {
		return d
	}
	h := fnv.New64a()
	h.Write([]byte(n.ep.Addr() + peer))
	h.Write(binary.LittleEndian.AppendUint64(nil, opens))
	return d + time.Duration(h.Sum64()%uint64(d/4))
}

// PeerHealth is one peer's row of the record.
type PeerHealth struct {
	Peer           transport.Addr
	Strikes, Fails int    // consecutive ring and DAT failures
	Avoid          string // "closed", "open" or "half-open"
	OpenFor        time.Duration
	Last           Evidence // the evidence that last moved a verdict
}

// PeerHealth snapshots the record, sorted by peer, with the cumulative
// count of avoid openings and the number of peers avoided now.
func (n *Node) PeerHealth() (rows []PeerHealth, avoidOpens uint64, avoided int) {
	now := n.clock.Now()
	n.health.mu.Lock()
	for addr, p := range n.health.peers {
		r := PeerHealth{Peer: addr, Strikes: p.strikes, Fails: p.fails, Avoid: p.avoid, Last: p.last}
		if p.avoid != avoidClosed {
			r.OpenFor = now - p.openedAt
			avoided++
		}
		rows = append(rows, r)
	}
	avoidOpens = n.health.opens
	n.health.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Peer < rows[j].Peer })
	return rows, avoidOpens, avoided
}
