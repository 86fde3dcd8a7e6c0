package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/transport"
)

// OverloadAblationConfig parameterizes the circuit-breaker ablation: a
// multi-tree monitoring run whose busiest aggregation parent turns into
// an ack blackhole — it receives and processes every update but its
// replies never come back, so every sender burns its full retry budget
// into it — measured with the per-peer breakers armed versus a breaker
// threshold nothing reaches.
type OverloadAblationConfig struct {
	// N is the ring size. Default 48.
	N int
	// Trees is how many concurrent aggregation trees run. Default 8.
	Trees int
	// Slots is the measured blackhole window in aggregation slots.
	// Default 90: long enough that the breakers' exponential probe
	// backoff reaches steady state while the unprotected run keeps
	// paying full price every slot.
	Slots int
	// Warmup slots run before the blackhole so trees and caches are
	// steady. Default 6.
	Warmup int
	// Burst is how many extra trees every node enrolls in at once at the
	// window's midpoint — a fan-in storm on top of the gray failure, the
	// stimulus that pressures the send queues themselves. Default 16.
	Burst int
	// Slot is the aggregation slot. Default 500ms.
	Slot time.Duration
	// Overload is the protected run's policy. The zero value takes the
	// layer's defaults with a 4s breaker cooldown, so an opened breaker
	// stays open across many slots instead of re-probing every other
	// round.
	Overload core.OverloadConfig
	// Bits, Seed as elsewhere.
	Bits uint
	Seed int64
}

func (c OverloadAblationConfig) withDefaults() OverloadAblationConfig {
	if c.N == 0 {
		c.N = 48
	}
	if c.Trees == 0 {
		c.Trees = 8
	}
	if c.Slots == 0 {
		c.Slots = 90
	}
	if c.Warmup == 0 {
		c.Warmup = 6
	}
	if c.Burst == 0 {
		c.Burst = 16
	}
	if c.Slot <= 0 {
		c.Slot = 500 * time.Millisecond
	}
	if c.Bits == 0 {
		c.Bits = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Overload == (core.OverloadConfig{}) {
		c.Overload = core.OverloadConfig{BreakerCooldown: 4 * time.Second}
	}
	return c
}

// ackBlackhole drops every aggregation-layer reply from the victim
// while its inbound traffic still lands and its chord traffic stays
// healthy — a gray failure. Membership-level detection cannot evict it
// (pings keep succeeding and exonerating it), so without the breaker
// layer every child re-adopts it and burns its retry budget into it
// slot after slot.
type ackBlackhole struct{ victim transport.Addr }

// Apply implements transport.FaultPlan.
func (p ackBlackhole) Apply(_ *rand.Rand, from, _ transport.Addr, typ string) transport.Fault {
	var f transport.Fault
	if from == p.victim && strings.HasPrefix(typ, "dat.") && strings.HasSuffix(typ, ":reply") {
		f.Drop = true
	}
	return f
}

// victimTap counts dat.* request datagrams delivered to the victim.
// During the blackhole every one of them is wasted: the sender never
// sees the ack, so the datagram buys a timeout, not progress.
type victimTap struct {
	victim transport.Addr
	count  uint64
}

func (t *victimTap) Message(_, to transport.Addr, typ string, _ bool) {
	if to == t.victim && strings.HasPrefix(typ, "dat.") && !strings.HasSuffix(typ, ":reply") {
		t.count++
	}
}

// unprotected is the pre-breaker protocol written as a value: a failure
// count no peer reaches, so nobody is ever isolated.
var unprotected = core.OverloadConfig{BreakerFailures: math.MaxInt32}

// overloadRun is one policy's measurement.
type overloadRun struct {
	wastedPerSlot float64
	hiWaterBytes  int
	breakerOpens  uint64
	p99QueueAge   time.Duration
	rejected      uint64
}

// OverloadAblation measures the ack-blackhole scenario with breakers
// armed and with the unprotected value (DESIGN.md §14). The unprotected
// run keeps re-sending into the blackhole — every slot, every tree,
// every child of the victim burns its retry budget. The protected run
// opens breakers after a handful of failures and fails over in O(1);
// the wasted datagrams per slot are the headline (at most 1.500
// protected and 19.167 unprotected at the default shape and seed, which
// TestOverloadAblationHeadline holds them to).
// Queue memory is the same story in both rows: no budget exists, no
// element is refused, and the hi-water mark stays far below the
// structural bound of peers x Batch.MaxBytes.
func OverloadAblation(cfg OverloadAblationConfig) (*Table, error) {
	cfg = cfg.withDefaults()

	measure := func(policy core.OverloadConfig) (overloadRun, error) {
		var run overloadRun
		c, err := cluster.New(cluster.Options{
			N:    cfg.N,
			Bits: cfg.Bits,
			Seed: cfg.Seed,
			Local: func(node int, _ time.Duration, _ ident.ID) (float64, bool) {
				return float64(node + 1), true
			},
			Overload: policy,
		})
		if err != nil {
			return run, err
		}
		keys := make([]ident.ID, cfg.Trees)
		for i := range keys {
			keys[i] = c.Space.HashString(fmt.Sprintf("attribute-%04d", i))
			if _, err := c.StartContinuousAll(keys[i], cfg.Slot); err != nil {
				return run, err
			}
		}
		c.RunFor(time.Duration(cfg.Warmup) * cfg.Slot)

		// Victim: the busiest non-root parent of the first tree — the
		// node whose silence strands the most children.
		root := c.Ring().SuccessorOf(keys[0])
		victim, best := -1, 0
		for i := range c.DAT {
			if c.Chord[i].Self().ID == root {
				continue
			}
			if kids := len(c.DAT[i].ChildrenInfo(keys[0])); kids > best {
				best, victim = kids, i
			}
		}
		if victim < 0 {
			return run, fmt.Errorf("overload ablation: no mid-tree parent found")
		}
		addr := c.Addrs()[victim]
		tap := &victimTap{victim: addr}
		c.Net.SetTap(tap)
		c.Net.SetFaultPlan(ackBlackhole{victim: addr})

		// At the window midpoint every node enrolls in Burst extra trees
		// at once — the fan-in storm that pressures the queues. Queues
		// drain within the send machine's MaxDelay and are GC'd, so point
		// samples at slot boundaries never see them: the four slots after
		// the burst are instead swept at 1ms resolution, and every
		// nonempty queue's oldest age feeds the p99.
		var ages []time.Duration
		sample := func() {
			for i := range c.DAT {
				if !c.Chord[i].Running() {
					continue
				}
				for _, qs := range c.DAT[i].QueueStats() {
					ages = append(ages, qs.OldestAge)
				}
			}
		}
		burstAt, sweepSlots := cfg.Slots/2, 4
		for s := 0; s < cfg.Slots; s++ {
			if s == burstAt {
				for b := 0; b < cfg.Burst; b++ {
					bkey := c.Space.HashString(fmt.Sprintf("burst-%04d", b))
					if _, err := c.StartContinuousAll(bkey, cfg.Slot); err != nil {
						return run, err
					}
				}
			}
			if s >= burstAt && s < burstAt+sweepSlots {
				for left := cfg.Slot; left > 0; left -= time.Millisecond {
					c.RunFor(time.Millisecond)
					sample()
				}
			} else {
				c.RunFor(cfg.Slot)
			}
		}
		c.Net.SetFaultPlan(nil)
		c.Net.SetTap(nil)

		for i := range c.DAT {
			if !c.Chord[i].Running() {
				continue
			}
			st := c.DAT[i].OverloadStats()
			if st.HiWaterBytes > run.hiWaterBytes {
				run.hiWaterBytes = st.HiWaterBytes
			}
			run.rejected += st.Rejected
			run.breakerOpens += st.BreakerOpens
		}
		run.wastedPerSlot = float64(tap.count) / float64(cfg.Slots)
		if len(ages) > 0 {
			sort.Slice(ages, func(i, j int) bool { return ages[i] < ages[j] })
			run.p99QueueAge = ages[len(ages)*99/100]
		}
		return run, nil
	}

	plain, err := measure(unprotected)
	if err != nil {
		return nil, err
	}
	prot, err := measure(cfg.Overload)
	if err != nil {
		return nil, err
	}
	if n := plain.rejected + prot.rejected; n != 0 {
		return nil, fmt.Errorf("overload ablation: %d elements refused (no send machine was closed)", n)
	}
	ratio := 0.0
	if prot.wastedPerSlot > 0 {
		ratio = plain.wastedPerSlot / prot.wastedPerSlot
	}

	t := &Table{
		ID: "overload",
		Title: fmt.Sprintf("Circuit breakers under an ack blackhole: %d nodes, %d trees, a breaker threshold nothing reaches vs armed breakers",
			cfg.N, cfg.Trees),
		Columns: []string{"mode", "wasted_to_victim_per_slot", "queue_hiwater_bytes",
			"breaker_opens", "p99_queue_age_ms", "wasted_retry_reduction"},
	}
	t.Add("unprotected", plain.wastedPerSlot, plain.hiWaterBytes,
		plain.breakerOpens, float64(plain.p99QueueAge)/1e6, 0.0)
	t.Add("protected", prot.wastedPerSlot, prot.hiWaterBytes,
		prot.breakerOpens, float64(prot.p99QueueAge)/1e6, ratio)
	t.Note(fmt.Sprintf("%d measured slots of %v after %d warmup slots; victim is the busiest non-root parent of tree 0; %d-tree fan-in burst at the midpoint",
		cfg.Slots, cfg.Slot, cfg.Warmup, cfg.Burst))
	t.Note("protected: breaker cooldown %v; unprotected: BreakerFailures at math.MaxInt32; no element refused in either run",
		cfg.Overload.BreakerCooldown)
	t.Note("queue_hiwater_bytes is bytes at rest with no budget policing them; the structural bound is peers x Batch.MaxBytes = %d",
		(cfg.N-1)*1200)
	t.Note("wasted datagrams are dat.* requests delivered to the blackholed victim: acknowledged never, so each buys a timeout")
	return t, nil
}
