// Package krcore computes (k,r)-cores on attributed social networks: it
// enumerates all maximal (k,r)-cores and finds the maximum (k,r)-core,
// reproducing "When Engagement Meets Similarity: Efficient (k,r)-Core
// Computation on Social Networks" (Zhang, Zhang, Qin, Zhang, Lin;
// VLDB 2017).
//
// A (k,r)-core is a connected subgraph in which every member has at
// least k neighbours inside the subgraph (the engagement, or structure,
// constraint) and every pair of members is similar with respect to a
// similarity threshold r (the similarity constraint). Both problems are
// NP-hard; this package implements the paper's branch-and-bound searches
// with candidate pruning, candidate retention, early termination,
// maximal checking, the (k,k')-core size bound and the Section 7 search
// orders.
//
// # Quick start
//
//	b := krcore.NewGraphBuilder(5)
//	b.AddEdge(0, 1) // ... add friendships
//	g := b.Build()
//
//	geo := krcore.NewGeoAttributes(5)
//	geo.Set(0, 30.27, -97.74) // ... place users
//
//	res, err := krcore.EnumerateMaximal(g, krcore.Params{
//		K:      2,
//		Oracle: geo.WithinDistance(10), // similar = within 10 km
//	}, krcore.EnumOptions{})
//
// See the examples directory for complete programs.
package krcore

import (
	"fmt"

	"krcore/internal/attr"
	"krcore/internal/core"
	"krcore/internal/graph"
	"krcore/internal/kcore"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// Graph is an immutable undirected simple graph with vertices 0..N-1.
type Graph = graph.Graph

// GraphBuilder accumulates edges for a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Params defines a (k,r)-core problem: the engagement threshold K and
// the similarity Oracle (metric plus threshold r).
type Params = core.Params

// Oracle answers thresholded pairwise similarity queries.
type Oracle = similarity.Oracle

// Metric scores vertex pairs; see Jaccard, WeightedJaccard and
// Euclidean constructors on the attribute stores.
type Metric = similarity.Metric

// Result reports the cores found by a search along with search effort
// and time-out information.
type Result = core.Result

// Stats summarises an enumeration (core count, maximum and average
// size), as plotted in the paper's Figure 7.
type Stats = core.Stats

// EnumOptions configures EnumerateMaximal. The zero value is the
// paper's full AdvEnum configuration; see the fields for ablations.
type EnumOptions = core.EnumOptions

// MaxOptions configures FindMaximum. The zero value is the paper's full
// AdvMax configuration; set Parallelism to search candidate components
// concurrently with a shared incumbent.
type MaxOptions = core.MaxOptions

// CliqueOptions configures the CliquePlus baseline.
type CliqueOptions = core.CliqueOptions

// Limits bounds a search by deadline, node count or context
// cancellation. Limits are global: with Parallelism above 1, MaxNodes
// caps the total node count across all workers (never per worker) and
// Result.Nodes never exceeds it.
type Limits = core.Limits

// Search order constants (Section 7 of the paper).
const (
	OrderDelta1ThenDelta2 = core.OrderDelta1ThenDelta2
	OrderLambdaDelta      = core.OrderLambdaDelta
	OrderDegree           = core.OrderDegree
	OrderRandom           = core.OrderRandom
	OrderDelta1           = core.OrderDelta1
	OrderDelta2           = core.OrderDelta2
)

// Size upper bounds for the maximum search (Section 6.2).
const (
	BoundNaive       = core.BoundNaive
	BoundColor       = core.BoundColor
	BoundKcore       = core.BoundKcore
	BoundColorKcore  = core.BoundColorKcore
	BoundDoubleKcore = core.BoundDoubleKcore
)

// Branch orders for the maximum search (Section 7.2).
const (
	BranchAdaptive    = core.BranchAdaptive
	BranchExpandFirst = core.BranchExpandFirst
	BranchShrinkFirst = core.BranchShrinkFirst
)

// EnumerateMaximal returns all maximal (k,r)-cores of g (AdvEnum,
// Algorithm 3 with Theorems 2-6).
func EnumerateMaximal(g *Graph, p Params, opt EnumOptions) (*Result, error) {
	return core.Enumerate(g, p, opt)
}

// EnumerateContaining returns the maximal (k,r)-cores that contain the
// query vertex v — the community-search flavour of the problem: "which
// sustainable groups is this user part of?".
func EnumerateContaining(g *Graph, p Params, v int32, opt EnumOptions) (*Result, error) {
	return core.EnumerateContaining(g, p, v, opt)
}

// FindMaximum returns the maximum (k,r)-core of g (AdvMax, Algorithm 5
// with the (k,k')-core bound). Result.Cores is empty when no core
// exists.
func FindMaximum(g *Graph, p Params, opt MaxOptions) (*Result, error) {
	return core.FindMaximum(g, p, opt)
}

// CliquePlus runs the clique-based baseline of Section 3 (for
// comparison; EnumerateMaximal is faster).
func CliquePlus(g *Graph, p Params, opt CliqueOptions) (*Result, error) {
	return core.CliquePlus(g, p, opt)
}

// CoreNumbers returns the classic k-core number of every vertex
// (Batagelj-Zaversnik), the structural half of the model.
func CoreNumbers(g *Graph) []int { return kcore.Decompose(g) }

// KCore returns the vertices of the structural k-core of g.
func KCore(g *Graph, k int) []int32 { return kcore.KCore(g, k) }

// GeoAttributes stores one 2-D point per vertex and builds Euclidean
// distance oracles ("similar = within r kilometres").
type GeoAttributes struct{ store *attr.Geo }

// NewGeoAttributes returns a geo attribute store for n vertices.
func NewGeoAttributes(n int) *GeoAttributes {
	return &GeoAttributes{store: attr.NewGeo(n)}
}

// Set places vertex u at (x, y).
func (a *GeoAttributes) Set(u int32, x, y float64) {
	a.store.SetVertex(u, attr.Point{X: x, Y: y})
}

// WithinDistance returns an oracle that deems two vertices similar when
// their Euclidean distance is at most r.
func (a *GeoAttributes) WithinDistance(r float64) *Oracle {
	return similarity.NewOracle(similarity.Euclidean{Store: a.store}, r)
}

// Metric exposes the raw Euclidean distance metric (for Engine
// construction).
func (a *GeoAttributes) Metric() Metric { return similarity.Euclidean{Store: a.store} }

// Grow extends the store to n vertices at the origin; part of the
// DynamicAttributes interface.
func (a *GeoAttributes) Grow(n int) { a.store.Grow(n) }

// SetAttributes places u at (v.X, v.Y); part of the DynamicAttributes
// interface.
func (a *GeoAttributes) SetAttributes(u int32, v VertexAttributes) {
	a.store.SetVertex(u, attr.Point{X: v.X, Y: v.Y})
}

// Clone returns a deep copy of the store; part of the
// DynamicAttributes interface.
func (a *GeoAttributes) Clone() DynamicAttributes {
	return &GeoAttributes{store: a.store.Clone()}
}

// KeywordAttributes stores one keyword set per vertex and builds
// Jaccard similarity oracles.
type KeywordAttributes struct{ store *attr.Keywords }

// NewKeywordAttributes returns a keyword attribute store for n vertices.
func NewKeywordAttributes(n int) *KeywordAttributes {
	return &KeywordAttributes{store: attr.NewKeywords(n)}
}

// Set assigns the keyword ids of vertex u.
func (a *KeywordAttributes) Set(u int32, keywords []int32) {
	a.store.SetVertex(u, keywords)
}

// JaccardAtLeast returns an oracle that deems two vertices similar when
// the Jaccard similarity of their keyword sets is at least r.
func (a *KeywordAttributes) JaccardAtLeast(r float64) *Oracle {
	return similarity.NewOracle(similarity.Jaccard{Store: a.store}, r)
}

// Metric exposes the raw Jaccard metric (for threshold calibration).
func (a *KeywordAttributes) Metric() Metric { return similarity.Jaccard{Store: a.store} }

// Grow extends the store to n vertices with empty keyword sets; part of
// the DynamicAttributes interface.
func (a *KeywordAttributes) Grow(n int) { a.store.Grow(n) }

// SetAttributes assigns v.Keys as the keyword set of u; part of the
// DynamicAttributes interface.
func (a *KeywordAttributes) SetAttributes(u int32, v VertexAttributes) {
	a.store.SetVertex(u, append([]int32(nil), v.Keys...))
}

// Clone returns a deep copy of the store; part of the
// DynamicAttributes interface.
func (a *KeywordAttributes) Clone() DynamicAttributes {
	return &KeywordAttributes{store: a.store.Clone()}
}

// WeightedKeywordAttributes stores keyword->weight lists per vertex
// (e.g. counted conferences) and builds weighted-Jaccard oracles, the
// similarity the paper uses for DBLP and Pokec.
type WeightedKeywordAttributes struct{ store *attr.Weighted }

// NewWeightedKeywordAttributes returns a weighted keyword store for n
// vertices.
func NewWeightedKeywordAttributes(n int) *WeightedKeywordAttributes {
	return &WeightedKeywordAttributes{store: attr.NewWeighted(n)}
}

// Set assigns the (keyword, weight) list of vertex u; a missing weight
// is 1 and the weights of a repeated keyword add up. Set panics when a
// weight it would store, once added up, is negative or not finite. A
// DynamicEngine instead rejects, with a *BatchError, any update
// carrying such a weight or a negative or non-finite one.
func (a *WeightedKeywordAttributes) Set(u int32, keys []int32, weights []float64) {
	a.store.SetVertex(u, weightedEntries(keys, weights))
}

// weightedEntries pairs keys with weights, a missing weight being 1.
func weightedEntries(keys []int32, weights []float64) []attr.WeightedEntry {
	entries := make([]attr.WeightedEntry, 0, len(keys))
	for i := range keys {
		w := 1.0
		if i < len(weights) {
			w = weights[i]
		}
		entries = append(entries, attr.WeightedEntry{Key: keys[i], Weight: w})
	}
	return entries
}

// WeightedJaccardAtLeast returns an oracle with threshold r on the
// weighted Jaccard similarity.
func (a *WeightedKeywordAttributes) WeightedJaccardAtLeast(r float64) *Oracle {
	return similarity.NewOracle(similarity.WeightedJaccard{Store: a.store}, r)
}

// Metric exposes the raw weighted-Jaccard metric (for threshold
// calibration such as TopPermilleThreshold).
func (a *WeightedKeywordAttributes) Metric() Metric {
	return similarity.WeightedJaccard{Store: a.store}
}

// Grow extends the store to n vertices with empty lists; part of the
// DynamicAttributes interface.
func (a *WeightedKeywordAttributes) Grow(n int) { a.store.Grow(n) }

// SetAttributes assigns v.Keys with v.Weights (missing weights default
// to 1) as the weighted keyword list of u; part of the
// DynamicAttributes interface.
func (a *WeightedKeywordAttributes) SetAttributes(u int32, v VertexAttributes) {
	a.Set(u, append([]int32(nil), v.Keys...), v.Weights)
}

// Clone returns a deep copy of the store; part of the
// DynamicAttributes interface.
func (a *WeightedKeywordAttributes) Clone() DynamicAttributes {
	return &WeightedKeywordAttributes{store: a.store.Clone()}
}

// DynamicAttributesFor wraps the store behind a built-in metric
// (Euclidean, Jaccard or weighted Jaccard) as the DynamicAttributes
// whose Metric it is: the inverse of Metric on the three attribute
// stores above. Custom metrics return an error.
func DynamicAttributesFor(m Metric) (DynamicAttributes, error) {
	switch m := m.(type) {
	case similarity.Euclidean:
		return &GeoAttributes{store: m.Store}, nil
	case similarity.Jaccard:
		return &KeywordAttributes{store: m.Store}, nil
	case similarity.WeightedJaccard:
		return &WeightedKeywordAttributes{store: m.Store}, nil
	default:
		return nil, fmt.Errorf("krcore: no dynamic attribute store for metric %T", m)
	}
}

// TopPermilleThreshold returns the similarity value at the top p
// permille of the pairwise score distribution over n vertices — the
// paper's "r = top 3‰" parameterisation for DBLP and Pokec.
func TopPermilleThreshold(m Metric, n int, p float64) float64 {
	return similarity.TopPermille(m, n, p, 200000, 12345)
}

// NewOracle builds an oracle from any custom metric at threshold r.
func NewOracle(m Metric, r float64) *Oracle { return similarity.NewOracle(m, r) }

// BulkSimilarity is a bulk similar-pair engine: it materialises the
// thresholded similarity structure of a whole vertex set at once and
// is guaranteed bit-identical to per-pair Oracle.Similar calls. Every
// search builds one on demand; BuildIndex pre-builds it.
type BulkSimilarity = similarity.BulkSource

// BuildIndex pre-builds the bulk similarity index for the oracle and
// attaches it, so that repeated (k,r) searches against the same oracle
// — the serving-layer pattern of answering many (k, r) queries over one
// attributed graph — skip index construction. The index chosen depends
// on the metric: a uniform spatial grid for Euclidean distance, an
// inverted keyword index with prefix-filter bounds for Jaccard and
// weighted Jaccard, and a parallel brute-force engine for custom
// metrics. Build the index after the attribute store is final; it
// snapshots per-vertex statistics.
//
// The returned engine can also be used directly for bulk similar-pair
// queries outside a search.
func BuildIndex(o *Oracle) BulkSimilarity { return simindex.For(o) }
