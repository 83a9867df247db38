// Package similarity defines the pairwise vertex-similarity metrics and
// the thresholded similarity oracle used by every (k,r)-core algorithm.
//
// Following the paper's convention, two vertices are similar when
// sim(u,v) >= r for a similarity metric (Jaccard, weighted Jaccard) and
// when dist(u,v) <= r for a distance metric (Euclidean). The package also
// provides the "top p permille" threshold calibration used for the DBLP
// and Pokec experiments: the threshold is the p/1000 quantile of the
// pairwise similarity distribution in decreasing order.
package similarity

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"krcore/internal/attr"
)

// Metric scores a vertex pair. Direction tells whether larger scores mean
// more similar (similarity metrics) or less similar (distance metrics).
type Metric interface {
	// Score returns the raw metric value for the pair (u,v). It must be
	// symmetric: Score(u,v) == Score(v,u).
	Score(u, v int32) float64
	// Distance reports whether the metric is a distance (smaller is more
	// similar) rather than a similarity.
	Distance() bool
	// Name returns a short metric name for logs and tables.
	Name() string
}

// Jaccard is the plain Jaccard set-similarity metric over a Keywords
// store.
type Jaccard struct{ Store *attr.Keywords }

// Score implements Metric.
func (m Jaccard) Score(u, v int32) float64 { return m.Store.Jaccard(u, v) }

// Distance implements Metric; Jaccard is a similarity.
func (m Jaccard) Distance() bool { return false }

// Name implements Metric.
func (m Jaccard) Name() string { return "jaccard" }

// WeightedJaccard is the weighted Jaccard metric over a Weighted store,
// the metric the paper uses for DBLP and Pokec.
type WeightedJaccard struct{ Store *attr.Weighted }

// Score implements Metric.
func (m WeightedJaccard) Score(u, v int32) float64 { return m.Store.WeightedJaccard(u, v) }

// Distance implements Metric; weighted Jaccard is a similarity.
func (m WeightedJaccard) Distance() bool { return false }

// Name implements Metric.
func (m WeightedJaccard) Name() string { return "weighted-jaccard" }

// Euclidean is the Euclidean distance metric over a Geo store, the metric
// the paper uses for Brightkite and Gowalla.
type Euclidean struct{ Store *attr.Geo }

// Score implements Metric and returns the distance in the store's unit
// (kilometres for the synthetic datasets).
func (m Euclidean) Score(u, v int32) float64 { return math.Sqrt(m.Store.Distance2(u, v)) }

// Distance implements Metric; Euclidean is a distance.
func (m Euclidean) Distance() bool { return true }

// Name implements Metric.
func (m Euclidean) Name() string { return "euclidean" }

// BulkSource computes thresholded similarity structure for whole vertex
// sets at once instead of one Oracle.Similar call per pair. Concrete
// implementations (spatial grid, inverted keyword index, parallel
// brute force) live in package simindex; this interface sits here so an
// Oracle can carry one as an optional capability without an import
// cycle. Callers that classify a few known pairs, such as a filter
// patch after a write, call Oracle.Similar directly.
//
// Every implementation must agree exactly with Oracle.Similar on
// distinct vertices: bulk and per-pair preprocessing yield bit-identical
// similarity graphs, dissimilarity lists and, downstream, (k,r)-cores.
type BulkSource interface {
	// SimilarAdjacency returns the local adjacency lists of the
	// similarity graph on the given distinct global vertices: out[i]
	// lists, sorted ascending, the local ids j != i for which
	// vertices[i] and vertices[j] are similar.
	//
	// known is an optional hint (nil for none, else one row per
	// vertex): known[i] lists local ids j whose pair with i is already
	// known to be similar, such as the edges of a dissimilar-edge
	// filtered graph. An engine may accept those pairs without scoring
	// them (the built-in ones ignore the hint); every hinted pair must
	// be similar, so the output is the same with or without the hint.
	SimilarAdjacency(vertices []int32, known [][]int32) [][]int32
}

// PairTest decides vertex pairs exactly as Oracle.Similar does, for
// callers that need a yes or no per pair of a set they scan themselves
// (a component's dissimilarity lists, the dissimilar-edge filter): one
// probing vertex against each of many others. It keeps scratch state
// for its probing vertex, so each goroutine needs its own.
// simindex.NewPairTest returns the test of an oracle's engine, or nil
// for an engine without one.
type PairTest interface {
	// Probe makes u the probing vertex of the Similar calls that
	// follow.
	Probe(u int32)
	// Similar reports Oracle.Similar(u, v) for the probing vertex u
	// and a vertex v != u.
	Similar(v int32) bool
}

// Oracle answers thresholded pairwise similarity queries: Similar(u,v)
// is sim(u,v) >= r for similarity metrics and dist(u,v) <= r for
// distance metrics.
type Oracle struct {
	metric Metric
	r      float64
	dist   bool // metric.Distance(), read once
	// geo fast path: avoids the sqrt per query.
	geo *attr.Geo
	r2  float64

	mu   sync.Mutex
	bulk BulkSource
}

// NewOracle builds an Oracle for metric at threshold r.
func NewOracle(metric Metric, r float64) *Oracle {
	o := &Oracle{metric: metric, r: r, dist: metric.Distance()}
	if e, ok := metric.(Euclidean); ok {
		o.geo = e.Store
		o.r2 = r * r
	}
	return o
}

// Metric returns the underlying metric.
func (o *Oracle) Metric() Metric { return o.metric }

// Bulk returns the bulk similarity engine attached to the oracle, or
// nil when none has been attached yet. simindex.For attaches the best
// index for the metric on first use; callers wanting to amortise index
// construction across many (k,r) searches attach one up front via the
// public krcore.BuildIndex.
func (o *Oracle) Bulk() BulkSource {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bulk
}

// SetBulk attaches a bulk similarity engine. The engine must agree
// exactly with Similar; attach after the attribute store is final, as
// indexes snapshot per-vertex statistics at construction time.
func (o *Oracle) SetBulk(b BulkSource) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.bulk = b
}

// Threshold returns the similarity threshold r.
func (o *Oracle) Threshold() float64 { return o.r }

// Similar reports whether u and v are similar with respect to the
// threshold. A vertex is always similar to itself.
func (o *Oracle) Similar(u, v int32) bool {
	return u == v || o.Accept(o.Key(u, v))
}

// Key returns the value Similar compares with the threshold for the
// distinct pair (u,v): the squared distance on the Euclidean fast path,
// the metric score otherwise. It does not depend on r, so a key
// computed through any oracle over the same metric and attribute data
// serves every threshold: a caller sweeping r scores each pair once and
// re-tests it with Accept.
func (o *Oracle) Key(u, v int32) float64 {
	if o.geo != nil {
		return o.geo.Distance2(u, v)
	}
	return o.metric.Score(u, v)
}

// Accept reports whether a pair whose Key is key is similar at the
// oracle's threshold; Similar(u,v) == Accept(Key(u,v)) for u != v. A
// NaN threshold or key accepts nothing.
func (o *Oracle) Accept(key float64) bool {
	switch {
	case o.geo != nil:
		return key <= o.r2
	case o.dist:
		return key <= o.r
	default:
		return key >= o.r
	}
}

// TopPermille returns the similarity threshold corresponding to the top
// p permille of the pairwise score distribution (decreasing order), the
// calibration the paper uses for DBLP and Pokec ("r = top 3‰"). The
// distribution is estimated from sample random vertex pairs drawn with
// the given seed; n is the vertex count. Only valid for similarity
// (non-distance) metrics.
//
// A smaller p means a higher threshold (fewer similar pairs); p is
// clamped to (0, 1000].
func TopPermille(metric Metric, n int, p float64, sample int, seed int64) float64 {
	if metric.Distance() {
		panic("similarity: TopPermille requires a similarity metric")
	}
	if n < 2 {
		return math.Inf(1)
	}
	if p <= 0 {
		p = 0.001
	}
	if p > 1000 {
		p = 1000
	}
	if sample <= 0 {
		sample = 100000
	}
	maxPairs := n * (n - 1) / 2
	var scores []float64
	if sample >= maxPairs {
		// The sample covers every distinct pair: enumerate them exactly
		// once instead of sampling with replacement. Besides giving the
		// exact quantile, this guards tiny graphs against pathological
		// sampling (drawing nearly all distinct pairs with replacement
		// revisits pairs indefinitely and skews the distribution).
		scores = make([]float64, 0, maxPairs)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				scores = append(scores, metric.Score(int32(u), int32(v)))
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		scores = make([]float64, 0, sample)
		for len(scores) < sample {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				continue
			}
			scores = append(scores, metric.Score(u, v))
		}
	}
	// Sort decreasing; the threshold is the value at rank p/1000 * len.
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	idx := int(p / 1000 * float64(len(scores)))
	if idx >= len(scores) {
		idx = len(scores) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return scores[idx]
}
