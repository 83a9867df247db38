// Package attr stores per-vertex attributes for attributed graphs.
//
// The paper's datasets use three attribute kinds: plain keyword sets
// (research interests), weighted keyword sets ("counted" conference and
// journal lists in DBLP, interest frequencies in Pokec), and 2-D
// geographic points (Brightkite, Gowalla check-in homes). Similarity
// metrics over these stores live in package similarity.
//
// The keyword stores are flat CSR structures: one backing slice of
// keys (plus a parallel weight slice for Weighted) with per-vertex
// offset/length headers, so bulk similarity scans walk contiguous
// memory instead of chasing one heap slice per vertex. Beside each key
// they keep its dense id, the key's number in a store-level dictionary
// of the distinct keys, so a pair test can index a flat row by key
// instead of merging two sorted lists.
package attr

import (
	"fmt"
	"maps"
	"math"
	"sort"
)

// Kind identifies the attribute type carried by a store.
type Kind int

const (
	// KindKeywords marks per-vertex sets of keyword ids.
	KindKeywords Kind = iota
	// KindWeighted marks per-vertex keyword->weight multisets.
	KindWeighted
	// KindGeo marks per-vertex 2-D points.
	KindGeo
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindKeywords:
		return "keywords"
	case KindWeighted:
		return "weighted-keywords"
	case KindGeo:
		return "geo"
	default:
		return "unknown"
	}
}

// span locates one vertex's attribute run inside a backing slice.
type span struct {
	off int32
	n   int32
}

// dict numbers the distinct keys of a store densely, from 0 in the
// order they first appear. A key keeps its id while the store lives,
// even when no vertex holds it any more.
type dict map[int32]int32

// id returns the dense id of key k, numbering k if it is new.
func (d dict) id(k int32) int32 {
	id, ok := d[k]
	if !ok {
		id = int32(len(d))
		d[k] = id
	}
	return id
}

// denseIDs numbers the keys of a decoded store: one id per entry,
// parallel to keys.
func denseIDs(keys []int32) ([]int32, dict) {
	d := dict{}
	ids := make([]int32, len(keys))
	for i, k := range keys {
		ids[i] = d.id(k)
	}
	return ids, d
}

// Keywords stores a sorted, deduplicated keyword-id set per vertex in
// CSR form: all keys live in one backing slice, addressed by per-vertex
// spans, with each key's dense id in a parallel slice.
type Keywords struct {
	keys  []int32
	ids   []int32
	spans []span
	dict  dict
}

// NewKeywords returns a Keywords store for n vertices with empty sets.
func NewKeywords(n int) *Keywords {
	return &Keywords{spans: make([]span, n), dict: dict{}}
}

// SetVertex assigns the keyword set of vertex u; the slice is sorted and
// deduplicated in place before being copied into the backing slice.
// Re-assigning a vertex reuses its slot when the new set fits and
// appends fresh backing space otherwise.
func (s *Keywords) SetVertex(u int32, kws []int32) {
	sort.Slice(kws, func(i, j int) bool { return kws[i] < kws[j] })
	w := 0
	for i, v := range kws {
		if i > 0 && v == kws[i-1] {
			continue
		}
		kws[w] = v
		w++
	}
	kws = kws[:w]
	sp := s.spans[u]
	if int(sp.n) < w {
		sp.off = int32(len(s.keys))
		s.keys = append(s.keys, make([]int32, w)...)
		s.ids = append(s.ids, make([]int32, w)...)
	}
	sp.n = int32(w)
	for i, k := range kws {
		s.keys[int(sp.off)+i] = k
		s.ids[int(sp.off)+i] = s.dict.id(k)
	}
	s.spans[u] = sp
}

// Grow extends the store to n vertices with empty keyword sets (no-op
// when already at least that large).
func (s *Keywords) Grow(n int) {
	for len(s.spans) < n {
		s.spans = append(s.spans, span{})
	}
}

// Vertex returns the sorted keyword set of u (a view into the backing
// slice; do not modify).
func (s *Keywords) Vertex(u int32) []int32 {
	sp := s.spans[u]
	return s.keys[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// IDs returns the dense ids of u's keywords, parallel to Vertex (a
// view; do not modify). Ids lie in [0, NumIDs()).
func (s *Keywords) IDs(u int32) []int32 {
	sp := s.spans[u]
	return s.ids[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// NumIDs returns the number of dense ids the store has handed out.
func (s *Keywords) NumIDs() int { return len(s.dict) }

// Len returns the keyword count of u without materialising the view.
func (s *Keywords) Len(u int32) int { return int(s.spans[u].n) }

// N returns the number of vertices.
func (s *Keywords) N() int { return len(s.spans) }

// Jaccard returns |A∩B| / |A∪B| for the keyword sets of u and v. Two
// empty sets have similarity 0 by convention (such users share no
// interests we can observe).
func (s *Keywords) Jaccard(u, v int32) float64 {
	a, b := s.Vertex(u), s.Vertex(v)
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// WeightedEntry is one keyword with its weight (e.g. the number of papers
// an author published at the venue).
type WeightedEntry struct {
	Key    int32
	Weight float64
}

// Weighted stores a sorted keyword->weight list per vertex in CSR form:
// parallel key, dense-id and weight backing slices addressed by
// per-vertex spans, plus each vertex's total weight. Every stored
// weight is finite and non-negative.
type Weighted struct {
	keys    []int32
	ids     []int32
	weights []float64
	spans   []span
	totals  []float64 // per vertex, its weights summed in key order
	dict    dict
}

// NewWeighted returns a Weighted store for n vertices with empty lists.
func NewWeighted(n int) *Weighted {
	return &Weighted{spans: make([]span, n), totals: make([]float64, n), dict: dict{}}
}

// sumWeights adds ws up in order, from +0: the total the store keeps.
func sumWeights(ws []float64) float64 {
	var t float64
	for _, w := range ws {
		t += w
	}
	return t
}

// mergeEntries sorts entries by key in place and sums the weights of
// duplicate keys, returning the merged prefix.
func mergeEntries(entries []WeightedEntry) []WeightedEntry {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	w := 0
	for i, e := range entries {
		if i > 0 && e.Key == entries[w-1].Key {
			entries[w-1].Weight += e.Weight
			continue
		}
		entries[w] = e
		w++
	}
	return entries[:w]
}

// checkWeights returns an error naming the first entry whose weight is
// negative or not finite.
func checkWeights(entries []WeightedEntry) error {
	for _, e := range entries {
		if !(e.Weight >= 0 && e.Weight <= math.MaxFloat64) {
			return fmt.Errorf("key %d has weight %g, want finite and non-negative", e.Key, e.Weight)
		}
	}
	return nil
}

// CheckWeights reports whether a weighted list is fit to store: every
// weight finite and non-negative, and still finite once SetVertex sums
// the weights of duplicate keys. Inputs from outside the program (a
// dataset file, an update) pass it before they reach SetVertex. It does
// not modify entries.
func CheckWeights(entries []WeightedEntry) error {
	if err := checkWeights(entries); err != nil {
		return err
	}
	return checkWeights(mergeEntries(append([]WeightedEntry(nil), entries...)))
}

// SetVertex assigns the weighted keyword list of u; entries are sorted by
// key and duplicate keys have their weights summed. Re-assigning a
// vertex reuses its slot when the new list fits. It panics when a
// weight it would store, after duplicates merge, is negative or not
// finite: the metrics assume none is, so a caller passing weights from
// outside the program checks them first (see CheckWeights).
func (s *Weighted) SetVertex(u int32, entries []WeightedEntry) {
	entries = mergeEntries(entries)
	if err := checkWeights(entries); err != nil {
		panic(fmt.Sprintf("attr: Weighted.SetVertex: vertex %d: %v", u, err))
	}
	w := len(entries)
	sp := s.spans[u]
	if int(sp.n) < w {
		sp.off = int32(len(s.keys))
		s.keys = append(s.keys, make([]int32, w)...)
		s.ids = append(s.ids, make([]int32, w)...)
		s.weights = append(s.weights, make([]float64, w)...)
	}
	sp.n = int32(w)
	for i, e := range entries {
		s.keys[int(sp.off)+i] = e.Key
		s.ids[int(sp.off)+i] = s.dict.id(e.Key)
		s.weights[int(sp.off)+i] = e.Weight
	}
	s.spans[u] = sp
	s.totals[u] = sumWeights(s.Weights(u))
}

// Grow extends the store to n vertices with empty lists (no-op when
// already at least that large).
func (s *Weighted) Grow(n int) {
	for len(s.spans) < n {
		s.spans = append(s.spans, span{})
		s.totals = append(s.totals, 0)
	}
}

// Vertex returns the sorted weighted keyword list of u as a freshly
// allocated slice (the store itself keeps keys and weights in parallel
// backing arrays).
func (s *Weighted) Vertex(u int32) []WeightedEntry {
	sp := s.spans[u]
	out := make([]WeightedEntry, sp.n)
	for i := range out {
		out[i] = WeightedEntry{Key: s.keys[int(sp.off)+i], Weight: s.weights[int(sp.off)+i]}
	}
	return out
}

// Keys returns the sorted key list of u (a view; do not modify).
func (s *Weighted) Keys(u int32) []int32 {
	sp := s.spans[u]
	return s.keys[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// Weights returns the weight list of u, parallel to Keys (a view; do
// not modify).
func (s *Weighted) Weights(u int32) []float64 {
	sp := s.spans[u]
	return s.weights[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// IDs returns the dense ids of u's keys, parallel to Keys (a view; do
// not modify). Ids lie in [0, NumIDs()).
func (s *Weighted) IDs(u int32) []int32 {
	sp := s.spans[u]
	return s.ids[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// NumIDs returns the number of dense ids the store has handed out.
func (s *Weighted) NumIDs() int { return len(s.dict) }

// Len returns the entry count of u.
func (s *Weighted) Len(u int32) int { return int(s.spans[u].n) }

// Total returns the sum of u's weights, added in key order from +0.
func (s *Weighted) Total(u int32) float64 { return s.totals[u] }

// N returns the number of vertices.
func (s *Weighted) N() int { return len(s.spans) }

// WeightedJaccard returns Σ min(a_i, b_i) / Σ max(a_i, b_i) over the
// union of keys, the metric the paper uses for DBLP and Pokec. Two empty
// lists have similarity 0.
func (s *Weighted) WeightedJaccard(u, v int32) float64 {
	ak, aw := s.Keys(u), s.Weights(u)
	bk, bw := s.Keys(v), s.Weights(v)
	if len(ak) == 0 && len(bk) == 0 {
		return 0
	}
	var num, den float64
	i, j := 0, 0
	for i < len(ak) || j < len(bk) {
		switch {
		case j >= len(bk) || (i < len(ak) && ak[i] < bk[j]):
			den += aw[i]
			i++
		case i >= len(ak) || bk[j] < ak[i]:
			den += bw[j]
			j++
		default:
			if aw[i] < bw[j] {
				num += aw[i]
				den += bw[j]
			} else {
				num += bw[j]
				den += aw[i]
			}
			i++
			j++
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Point is a 2-D location. For the synthetic geo datasets the unit is
// kilometres on a plane, matching the paper's 1km-500km thresholds.
type Point struct {
	X, Y float64
}

// Geo stores one Point per vertex (already flat: one backing slice).
type Geo struct {
	pts []Point
}

// NewGeo returns a Geo store for n vertices at the origin.
func NewGeo(n int) *Geo {
	return &Geo{pts: make([]Point, n)}
}

// SetVertex assigns the location of u.
func (s *Geo) SetVertex(u int32, p Point) { s.pts[u] = p }

// Grow extends the store to n vertices at the origin (no-op when
// already at least that large).
func (s *Geo) Grow(n int) {
	for len(s.pts) < n {
		s.pts = append(s.pts, Point{})
	}
}

// Vertex returns the location of u.
func (s *Geo) Vertex(u int32) Point { return s.pts[u] }

// N returns the number of vertices.
func (s *Geo) N() int { return len(s.pts) }

// Distance2 returns the squared Euclidean distance between u and v.
// Comparisons against a threshold r should use Distance2 <= r*r to avoid
// the square root.
func (s *Geo) Distance2(u, v int32) float64 {
	dx := s.pts[u].X - s.pts[v].X
	dy := s.pts[u].Y - s.pts[v].Y
	return dx*dx + dy*dy
}

// Clone returns a deep copy of the store sharing no backing storage,
// so readers of the original keep a consistent state while the copy
// is modified (the dynamic engine edits a copy on each attribute
// write and leaves the store its published snapshot reads unchanged).
func (s *Keywords) Clone() *Keywords {
	return &Keywords{
		keys:  append([]int32(nil), s.keys...),
		ids:   append([]int32(nil), s.ids...),
		spans: append([]span(nil), s.spans...),
		dict:  maps.Clone(s.dict),
	}
}

// Clone returns a deep copy of the store sharing no backing storage.
// See Keywords.Clone.
func (s *Weighted) Clone() *Weighted {
	return &Weighted{
		keys:    append([]int32(nil), s.keys...),
		ids:     append([]int32(nil), s.ids...),
		weights: append([]float64(nil), s.weights...),
		spans:   append([]span(nil), s.spans...),
		totals:  append([]float64(nil), s.totals...),
		dict:    maps.Clone(s.dict),
	}
}

// Clone returns a deep copy of the store sharing no backing storage.
// See Keywords.Clone.
func (s *Geo) Clone() *Geo {
	return &Geo{pts: append([]Point(nil), s.pts...)}
}
