// Package maan implements the Multi-Attribute Addressable Network of
// Cai et al. (Journal of Grid Computing 2004), the resource-indexing
// layer of the paper's P-GMA architecture (§2.2): Grid resources are
// lists of attribute-value pairs, each numeric attribute value is mapped
// to the Chord identifier space with a locality-preserving hash, and the
// resource is registered on the successor node of each attribute value.
// Range queries [l, u] route to successor(H(l)) in O(log n) hops and walk
// successors to successor(H(u)), for O(log n + k) hops total.
// Multi-attribute queries use the single-attribute-dominated approach:
// iterate the predicate with the smallest selectivity and filter the
// other predicates on the stored attribute lists.
package maan

import (
	"fmt"
	"sort"

	"repro/internal/chord"
	"repro/internal/ident"
)

// Kind distinguishes numeric attributes (range-queryable through the
// locality-preserving hash) from string attributes (exact-match through
// a uniform hash, as MAAN handles non-numeric values).
type Kind int

// Attribute kinds.
const (
	// Numeric values map order-preservingly onto the ring.
	Numeric Kind = iota
	// String values map uniformly (SHA-1 of "attr=value"); only
	// exact-match queries are supported, in O(log n) hops.
	String
)

// Attribute declares an attribute. Numeric attributes need a value range
// [Min, Max] for the locality-preserving hash; string attributes ignore
// it.
type Attribute struct {
	Name string
	Min  float64
	Max  float64
	Kind Kind
}

// Resource is a Grid resource described by attribute-value pairs
// (e.g. <cpu-speed, 2.8>, <memory-size, 1024>, <os-name, "linux">).
type Resource struct {
	Name    string // unique resource name, e.g. the host name
	Values  map[string]float64
	Strings map[string]string
}

// Matches reports whether the resource satisfies every predicate.
func (r Resource) Matches(preds []Predicate) bool {
	for _, p := range preds {
		if !r.matches(p) {
			return false
		}
	}
	return true
}

func (r Resource) matches(p Predicate) bool {
	if p.Exact {
		return r.Strings[p.Attr] == p.Equal
	}
	v, ok := r.Values[p.Attr]
	return ok && !(v < p.Lo || v > p.Hi)
}

// Predicate is a constraint on one attribute: a numeric range [Lo, Hi],
// or (with Exact set) a string equality test against Equal.
type Predicate struct {
	Attr  string
	Lo    float64
	Hi    float64
	Equal string
	Exact bool
}

// Eq builds an exact-match predicate on a string attribute.
func Eq(attr, value string) Predicate {
	return Predicate{Attr: attr, Equal: value, Exact: true}
}

// Range builds a numeric range predicate.
func Range(attr string, lo, hi float64) Predicate {
	return Predicate{Attr: attr, Lo: lo, Hi: hi}
}

// Schema is the set of declared attributes.
type Schema struct {
	space ident.Space
	attrs map[string]Attribute
}

// NewSchema declares the attribute set. Numeric attribute ranges must be
// valid (Min < Max); duplicates are rejected.
func NewSchema(space ident.Space, attrs ...Attribute) (*Schema, error) {
	s := &Schema{space: space, attrs: make(map[string]Attribute, len(attrs))}
	for _, a := range attrs {
		if a.Name == "" || (a.Kind == Numeric && !(a.Min < a.Max)) {
			return nil, fmt.Errorf("maan: invalid attribute %+v", a)
		}
		if _, dup := s.attrs[a.Name]; dup {
			return nil, fmt.Errorf("maan: duplicate attribute %q", a.Name)
		}
		s.attrs[a.Name] = a
	}
	return s, nil
}

// Hash maps a numeric attribute value into the identifier space with the
// locality-preserving hash for that attribute.
func (s *Schema) Hash(attr string, v float64) (ident.ID, error) {
	a, ok := s.attrs[attr]
	if !ok {
		return 0, fmt.Errorf("maan: unknown attribute %q", attr)
	}
	if a.Kind != Numeric {
		return 0, fmt.Errorf("maan: attribute %q is not numeric", attr)
	}
	return s.space.LocalityHash(v, a.Min, a.Max), nil
}

// HashString maps a string attribute value into the identifier space
// with the uniform hash of "attr=value".
func (s *Schema) HashString(attr, value string) (ident.ID, error) {
	a, ok := s.attrs[attr]
	if !ok {
		return 0, fmt.Errorf("maan: unknown attribute %q", attr)
	}
	if a.Kind != String {
		return 0, fmt.Errorf("maan: attribute %q is not a string attribute", attr)
	}
	return s.space.HashString(attr + "=" + value), nil
}

// predicateKeys resolves a predicate to its ring arc [lo, hi].
func (s *Schema) predicateKeys(p Predicate) (lo, hi ident.ID, err error) {
	if p.Exact {
		k, err := s.HashString(p.Attr, p.Equal)
		if err != nil {
			return 0, 0, err
		}
		return k, k, nil
	}
	if !(p.Lo <= p.Hi) {
		return 0, 0, fmt.Errorf("maan: empty range [%g, %g]", p.Lo, p.Hi)
	}
	if lo, err = s.Hash(p.Attr, p.Lo); err != nil {
		return 0, 0, err
	}
	if hi, err = s.Hash(p.Attr, p.Hi); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// Selectivity estimates the fraction of the identifier space a predicate
// covers — the paper's s_min choice for multi-attribute queries. Exact
// predicates cover a single point and dominate every range.
func (s *Schema) Selectivity(p Predicate) (float64, error) {
	lo, hi, err := s.predicateKeys(p)
	if err != nil {
		return 0, err
	}
	if ident.Less(hi, lo) {
		return 0, nil
	}
	// The locality-preserving hash is monotone and never wraps, so the
	// clockwise distance equals the plain difference hi-lo here.
	return float64(s.space.Dist(lo, hi)) / float64(s.space.Size()), nil
}

// Attributes returns the declared attributes sorted by name.
func (s *Schema) Attributes() []Attribute {
	out := make([]Attribute, 0, len(s.attrs))
	for _, a := range s.attrs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Space returns the identifier space of the schema.
func (s *Schema) Space() ident.Space { return s.space }

// --- snapshot index (hop-count analysis) ---

// Index is a MAAN built over a converged ring snapshot. It stores
// registrations at their responsible nodes and answers queries while
// counting overlay routing hops, reproducing the §2.2 complexity claims.
type Index struct {
	schema *Schema
	ring   *chord.Ring
	// store[node][attr] holds entries sorted by value.
	store map[ident.ID]map[string][]entry
}

type entry struct {
	value float64
	res   Resource
}

// NewIndex creates an empty index over the ring.
func NewIndex(schema *Schema, ring *chord.Ring) *Index {
	return &Index{
		schema: schema,
		ring:   ring,
		store:  make(map[ident.ID]map[string][]entry),
	}
}

// Register stores the resource under every declared attribute it carries
// (numeric and string), routing each registration from origin. It
// returns the total routing hops (O(m log n) for m attributes).
func (x *Index) Register(origin ident.ID, res Resource) (hops int, err error) {
	if res.Name == "" {
		return 0, fmt.Errorf("maan: resource needs a name")
	}
	put := func(attr string, v float64, key ident.ID) {
		path := x.ring.Route(origin, key)
		hops += len(path) - 1
		owner := path[len(path)-1]
		perAttr := x.store[owner]
		if perAttr == nil {
			perAttr = make(map[string][]entry)
			x.store[owner] = perAttr
		}
		es := perAttr[attr]
		// One value per (attribute, resource): replace any previous entry.
		kept := es[:0]
		for _, old := range es {
			if old.res.Name != res.Name {
				kept = append(kept, old)
			}
		}
		es = kept
		i := sort.Search(len(es), func(i int) bool { return es[i].value >= v })
		es = append(es, entry{})
		copy(es[i+1:], es[i:])
		es[i] = entry{value: v, res: res}
		perAttr[attr] = es
	}
	for attr, v := range res.Values {
		key, err := x.schema.Hash(attr, v)
		if err != nil {
			return hops, err
		}
		put(attr, v, key)
	}
	for attr, sv := range res.Strings {
		key, err := x.schema.HashString(attr, sv)
		if err != nil {
			return hops, err
		}
		put(attr, 0, key)
	}
	return hops, nil
}

// RangeQuery answers a single-attribute range query from origin,
// returning matching resources (deduplicated by name) and the overlay
// hops used: O(log n) to reach successor(H(lo)) plus one hop per node on
// the arc to successor(H(hi)).
func (x *Index) RangeQuery(origin ident.ID, p Predicate) ([]Resource, int, error) {
	return x.query(origin, p, nil)
}

// MultiAttrQuery answers a conjunctive multi-attribute range query using
// the single-attribute dominated approach: iterate the arc of the most
// selective predicate and filter the rest locally at each visited node.
func (x *Index) MultiAttrQuery(origin ident.ID, preds []Predicate) ([]Resource, int, error) {
	if len(preds) == 0 {
		return nil, 0, fmt.Errorf("maan: empty query")
	}
	best, bestSel := 0, 2.0
	for i, p := range preds {
		sel, err := x.schema.Selectivity(p)
		if err != nil {
			return nil, 0, err
		}
		if sel < bestSel {
			best, bestSel = i, sel
		}
	}
	others := make([]Predicate, 0, len(preds)-1)
	others = append(others, preds[:best]...)
	others = append(others, preds[best+1:]...)
	return x.query(origin, preds[best], others)
}

func (x *Index) query(origin ident.ID, p Predicate, filter []Predicate) ([]Resource, int, error) {
	loKey, hiKey, err := x.schema.predicateKeys(p)
	if err != nil {
		return nil, 0, err
	}
	space := x.ring.Space()
	path := x.ring.Route(origin, loKey)
	hops := len(path) - 1
	first := path[len(path)-1]
	last := x.ring.SuccessorOf(hiKey)

	// Number of nodes on the clockwise arc from first to last, inclusive.
	// When both keys resolve to the same node the range either fits in
	// that node's arc (visit 1) or wraps the whole ring — a query over
	// the full value domain — and every node must be visited.
	toVisit := 1
	if first != last {
		toVisit = 1 + int(countCW(x.ring, first, last))
	} else if space.Dist(loKey, hiKey) > space.Dist(loKey, first) {
		toVisit = x.ring.N()
	}

	all := append([]Predicate{p}, filter...)
	var out []Resource
	seen := map[string]bool{}
	node := first
	for i := 0; i < toVisit; i++ {
		for _, e := range x.store[node][p.Attr] {
			if !p.Exact && (e.value < p.Lo || e.value > p.Hi) {
				continue
			}
			if seen[e.res.Name] {
				continue
			}
			if e.res.Matches(all) {
				seen[e.res.Name] = true
				out = append(out, e.res)
			}
		}
		if i+1 < toVisit {
			node = x.ring.Succ(node)
			hops++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, hops, nil
}

// countCW returns the number of clockwise successor steps from a to b.
func countCW(r *chord.Ring, a, b ident.ID) uint64 {
	steps := uint64(0)
	for cur := a; cur != b; cur = r.Succ(cur) {
		steps++
	}
	return steps
}

// StoredAt returns how many entries a node holds (diagnostic for load
// balance inspection).
func (x *Index) StoredAt(node ident.ID) int {
	total := 0
	for _, es := range x.store[node] {
		total += len(es)
	}
	return total
}
