// Package dat is a Go implementation of Distributed Aggregation Trees
// (DAT) with load balancing for scalable Grid resource monitoring, after
// Cai & Hwang, "Distributed Aggregation Algorithms with Load-Balancing
// for Scalable Grid Resource Monitoring" (IPDPS 2007).
//
// A DAT computes global aggregates (SUM/COUNT/AVG/MIN/MAX of a monitored
// attribute) over a Chord structured P2P overlay without maintaining any
// explicit parent/child membership: each node derives its parent in the
// tree from its own Chord finger table, so trees cost nothing to
// maintain under churn beyond ordinary Chord stabilization — for any
// number of concurrent trees. The package provides:
//
//   - Peer: a live node over real UDP sockets — join a ring, publish
//     sensor readings, run continuous or on-demand aggregation, index and
//     discover resources with MAAN multi-attribute range queries.
//   - SimGrid: the same protocol stack over a deterministic discrete
//     event simulator, for experiments at thousands of nodes.
//   - Topology: converged-overlay snapshots for analytical studies of
//     tree shape (branching factors, heights, load balance).
//
// Three tree-construction schemes are available (see Scheme): Basic
// (plain Chord greedy routing; skewed branching), Balanced (the paper's
// g(x) finger-limiting rule measured to the root; branching <= 2 on even
// rings) and BalancedLocal (Algorithm 1 exactly as published, computable
// with no lookups; branching a small constant ~4 — what the paper's
// prototype measures).
package dat

import (
	"fmt"
	"math/rand"

	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/maan"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Scheme selects the DAT construction algorithm. See core documentation
// for the trade-offs.
type Scheme = core.Scheme

// Available schemes.
const (
	// Basic builds trees from plain Chord greedy finger routes.
	Basic = core.Basic
	// Balanced applies the finger-limiting rule with root-exact distances.
	Balanced = core.Balanced
	// BalancedLocal applies the finger-limiting rule with locally
	// computable key distances (the live protocol's rule).
	BalancedLocal = core.BalancedLocal
)

// Aggregate is the merged summary carried up a DAT: simultaneously the
// SUM, COUNT, MIN and MAX of all contributed samples (AVG derives from
// SUM/COUNT).
type Aggregate = core.Aggregate

// Tree is a DAT computed over a converged overlay snapshot.
type Tree = core.Tree

// DeliveryConfig tunes the delivery-assurance layer for DAT updates:
// the ack timeout that bounds each attempt before a re-send or a
// parent/root failover. See PeerConfig.Delivery.
type DeliveryConfig = core.DeliveryConfig

// BatchConfig tunes the send machine that coalesces updates bound for
// the same parent into single datagrams. See PeerConfig.Batch.
type BatchConfig = core.BatchConfig

// OverloadConfig tunes the per-peer circuit breakers; send-queue memory
// is bounded by the batch thresholds and needs no setting. The zero value
// is the defaults. See PeerConfig.Overload and DESIGN.md §14.
type OverloadConfig = core.OverloadConfig

// SelfMonConfig enables the self-monitoring plane: dedicated dat.load.*
// aggregation trees that carry every node's own load counters, so the
// cluster answers load questions about itself through the DAT. See
// PeerConfig.SelfMon and SimGridConfig.SelfMon.
type SelfMonConfig = obs.SelfMonConfig

// LoadSummary is the cluster-wide load answer read from a dat.load.*
// tree root: per-node load statistics, the live imbalance factor
// (max/mean node load), and the coverage the round achieved.
type LoadSummary = obs.LoadSummary

// Attribute declares a numeric resource attribute and its value range
// for MAAN's locality-preserving hash.
type Attribute = maan.Attribute

// Resource describes a Grid resource as attribute-value pairs.
type Resource = maan.Resource

// Predicate is a constraint on one attribute: a numeric range or a
// string equality test. Build with Range and Eq.
type Predicate = maan.Predicate

// Range builds a numeric range predicate for FindResources.
func Range(attr string, lo, hi float64) Predicate { return maan.Range(attr, lo, hi) }

// Eq builds an exact-match predicate on a string attribute.
func Eq(attr, value string) Predicate { return maan.Eq(attr, value) }

// Attribute kinds for PeerConfig.Attributes / MAAN schemas.
const (
	// Numeric attributes support range queries.
	Numeric = maan.Numeric
	// String attributes support exact-match queries.
	String = maan.String
)

// Series is a regularly sampled time series (e.g. a CPU-usage trace).
type Series = trace.Series

// IDStrategy selects how overlay identifiers are placed on the ring.
type IDStrategy = cluster.IDStrategy

// Identifier placement strategies.
const (
	// RandomIDs places nodes uniformly at random (plain consistent
	// hashing); adjacent gaps spread by O(log n).
	RandomIDs = cluster.RandomIDs
	// ProbedIDs uses the identifier-probing join of Adler et al., which
	// bounds the gap spread by a constant and is what makes balanced
	// DATs' branching a small constant in practice.
	ProbedIDs = cluster.ProbedIDs
	// EvenIDs spaces nodes perfectly evenly (the theoretical ideal).
	EvenIDs = cluster.EvenIDs
)

// Topology is a converged-overlay snapshot for analytical studies: it
// answers successor/finger queries and builds DATs without running the
// protocol.
type Topology struct {
	space ident.Space
	ring  *chord.Ring
}

// NewTopology builds a snapshot of n nodes in a 2^bits identifier space
// with the given placement strategy. bits of 0 defaults to 32.
func NewTopology(bits uint, n int, strategy IDStrategy, seed int64) (*Topology, error) {
	if bits == 0 {
		bits = 32
	}
	if bits > ident.MaxBits {
		return nil, fmt.Errorf("dat: identifier space width %d exceeds %d bits", bits, ident.MaxBits)
	}
	space := ident.New(bits)
	if n <= 0 || uint64(n) > space.Size() {
		return nil, fmt.Errorf("dat: %d nodes do not fit a %d-bit identifier space", n, bits)
	}
	ring, err := chord.NewRing(space, strategy.IDs(space, n, rand.New(rand.NewSource(seed))))
	if err != nil {
		return nil, err
	}
	return &Topology{space: space, ring: ring}, nil
}

// N returns the number of nodes.
func (t *Topology) N() int { return t.ring.N() }

// GapRatio returns the max/min spread of adjacent node gaps.
func (t *Topology) GapRatio() float64 { return t.ring.GapRatio() }

// Tree builds the DAT for the named aggregate (the rendezvous key is the
// SHA-1 hash of the attribute name, as in the paper).
func (t *Topology) Tree(attr string, scheme Scheme) *Tree {
	return core.Build(t.ring, t.space.HashString(attr), scheme)
}

// AggregateOnce performs one complete aggregation round over a snapshot
// tree: node i contributes values[i] (indexed in sorted identifier
// order). It returns the root aggregate and the per-node message loads
// in the same order.
func (t *Topology) AggregateOnce(attr string, scheme Scheme, values []float64) (Aggregate, []uint64) {
	tree := t.Tree(attr, scheme)
	byID := make(map[ident.ID]float64, len(values))
	for i, id := range t.ring.IDs() {
		if i < len(values) {
			byID[id] = values[i]
		}
	}
	agg, recv := tree.AggregateUp(byID)
	loads := make([]uint64, t.ring.N())
	for i, id := range t.ring.IDs() {
		loads[i] = recv[id]
	}
	return agg, loads
}

// GenerateCPUTrace synthesizes a CPU-usage series with the default
// 2-hour, 15-second-slot shape used by the monitoring experiments.
func GenerateCPUTrace(name string, seed int64) *Series {
	return trace.Generate(name, trace.GenConfig{Seed: seed})
}
