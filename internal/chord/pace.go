package chord

import (
	"time"

	"repro/internal/transport"
)

// Maintenance paced by evidence of change (DESIGN.md §16). Stabilize and
// fix-fingers each run on a pacer: a sweep of rounds that ends with the
// routing view's Version where it began doubles the loop's period, up
// to maxStretch times its base period; a Version change, a strike in the
// health record or a change notice snaps it back to base. A quiet ring
// thus pays one stabilize per maxStretch base periods, not one per base
// period. The predecessor check keeps its fixed period, and pings only a
// predecessor that has not called this node within it.

// maxStretch caps a stretched period at this many base periods. The cap
// is a latency choice: it bounds the eviction of a crashed successor at
// maxStretch·T + max(T, d) + d, against 2T + d at a fixed period whose
// rounds' calls overlap (T the stabilize base period, each plus its
// jitter; d the call deadline).
const maxStretch = 4

// fingersPerRound is how many finger entries one fix-fingers round
// refreshes; a sweep is ⌈Bits/fingersPerRound⌉ rounds.
const fingersPerRound = 8

// pacer is one paced maintenance loop: a timer record that re-arms
// itself at the current period, so a stretched period costs no event
// for the rounds it skips. Its state is guarded by Node.mu, and it is
// reachable as Node.stab or Node.fix only while the node runs. Each arm
// bumps gen and hands it to the clock as the event's op: on the live
// clock a round may already be popped, waiting for Node.mu, when a snap
// or Stop re-arms or stops the timer, and that stale firing must run no
// round: after a snap it would start a second, self-re-arming copy of
// the loop.
type pacer struct {
	n     *Node
	run   func()
	base  time.Duration
	sweep int // rounds judged together: a sweep ends at a multiple of it

	period time.Duration
	rounds int
	seen   uint64        // Version when the sweep began; 0 after a snap
	last   time.Duration // when the last round ran
	timer  transport.Timer
	gen    uint32 // of the armed timer; a firing with any other op is stale
	quiet  bool   // the last sweep left Version unchanged
}

func (n *Node) newPacer(base time.Duration, sweep int, run func()) *pacer {
	p := &pacer{n: n, run: run, base: base, sweep: sweep, period: base, last: n.clock.Now()}
	p.armLocked(base)
	return p
}

// RunEvent implements transport.TimerTask: one round is due. At a sweep
// boundary the period doubles if the sweep left Version as it found it,
// and goes back to base otherwise.
func (p *pacer) RunEvent(op int32) {
	n := p.n
	n.mu.Lock()
	if uint32(op) != p.gen {
		n.mu.Unlock()
		return
	}
	if p.rounds%p.sweep == 0 {
		v := n.rt.Version
		if p.quiet = v == p.seen; p.quiet {
			p.period = min(2*p.period, maxStretch*p.base)
		} else {
			p.period, p.seen = p.base, v
		}
	}
	p.rounds++
	p.last = n.clock.Now()
	p.armLocked(p.period)
	n.mu.Unlock()
	p.run()
}

// armLocked arms the next round d from now, plus up to d/5 of jitter so
// that nodes do not round in step.
func (p *pacer) armLocked(d time.Duration) {
	if j := uint64(d / 5); j > 0 {
		d += time.Duration(p.jitter() % j)
	}
	p.gen++
	p.timer = p.n.clock.AfterRun(d, p, int32(p.gen))
}

// jitter is FNV-1a over the node's address, the loop and its round
// count: noise that de-phases nodes and rounds without drawing from a
// random source, so pacing perturbs no other draw of the node (its join
// probes) or of a simulation.
func (p *pacer) jitter() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for addr, i := p.n.ep.Addr(), 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * prime
	}
	for x, i := uint64(p.rounds)<<8|uint64(p.sweep), 0; i < 64; i += 8 {
		h = (h ^ x>>i&0xff) * prime
	}
	return h
}

// snapLocked brings the loop back to its base period: a stretched timer
// is pulled in to one base period after the last round (at once if that
// has passed), and the sweep under way does not count as quiet.
func (p *pacer) snapLocked() {
	p.seen = 0
	if p.period == p.base {
		return
	}
	p.period = p.base
	p.timer.Stop()
	p.armLocked(max(p.last+p.base-p.n.clock.Now(), 0))
}

// nowLocked snaps the loop back and runs its next round at once.
func (p *pacer) nowLocked() {
	p.seen, p.period = 0, p.base
	p.timer.Stop()
	p.armLocked(0)
}

// stopLocked ends the loop; a round already due is fenced as stale.
func (p *pacer) stopLocked() {
	p.gen++
	p.timer.Stop()
}

// snapLocked snaps both paced loops back to their base periods: the
// view changed, a peer struck, or a neighbour's notice says the ring
// did. A no-op before maintenance starts.
func (n *Node) snapLocked() {
	if n.stab != nil {
		n.stab.snapLocked()
		n.fix.snapLocked()
	}
}
