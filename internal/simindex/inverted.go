package simindex

import (
	"math"
	"sort"

	"krcore/internal/attr"
)

// Inverted is the bulk engine for the plain Jaccard metric: an inverted
// keyword index with the classic prefix filter. Each vertex indexes
// only the first |A| - ⌈r·|A|⌉ + 1 of its sorted keywords; two sets
// with Jaccard >= r must share a keyword inside both prefixes, so
// candidate pairs are exactly the co-occurrences in the prefix lists.
// Candidates whose size-ratio upper bound min/max < r are rejected
// before the exact intersection. The index keeps no per-vertex array:
// SimilarAdjacency computes the prefix lengths of the vertices it is
// given.
type Inverted struct {
	store *attr.Keywords
	r     float64
}

// NewInverted builds the inverted index for the store at threshold r.
func NewInverted(store *attr.Keywords, r float64) *Inverted {
	return &Inverted{store: store, r: r}
}

// prefixes returns the prefix length of every vertex of vs, by
// position, at r > 0.
func (iv *Inverted) prefixes(vs []int32) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = jaccardPrefixLen(iv.store.Len(v), iv.r)
	}
	return out
}

// jaccardPrefixLen returns the prefix length of a set of the given
// size: a pair with Jaccard >= r shares at least α = ⌈r·size⌉ keys, so
// at least one shared key falls within the first size-α+1. The slack
// keeps the bound sound against the oracle's floating-point score
// comparison; the empty prefix (size 0 or r > 1) produces no
// candidates, matching a vertex that can never reach the threshold.
func jaccardPrefixLen(size int, r float64) int32 {
	if size == 0 {
		return 0
	}
	alpha := int(math.Ceil(r * float64(size) * (1 - boundSlack)))
	if alpha < 1 {
		alpha = 1
	}
	if alpha > size {
		return 0
	}
	return int32(size - alpha + 1)
}

// pairSimilar mirrors Oracle.Similar for the Jaccard metric, with the
// size-ratio reject first. Correctly-rounded division is monotone, so
// float64(min)/float64(max) < r soundly implies the oracle's
// inter/union < r.
func (iv *Inverted) pairSimilar(u, v int32) bool {
	if iv.r > 0 {
		a, b := iv.store.Len(u), iv.store.Len(v)
		if a > b {
			a, b = b, a
		}
		if b == 0 || float64(a)/float64(b) < iv.r {
			return false
		}
	}
	return iv.store.Jaccard(u, v) >= iv.r
}

// SimilarAdjacency implements similarity.BulkSource; the hint is
// ignored.
func (iv *Inverted) SimilarAdjacency(vertices []int32, _ [][]int32) [][]int32 {
	if math.IsNaN(iv.r) {
		// score >= NaN holds for no pair.
		return make([][]int32, len(vertices))
	}
	if iv.r <= 0 {
		// Every score is >= 0 >= r: all pairs are similar.
		return completeAdjacency(len(vertices))
	}
	prefix := iv.prefixes(vertices)
	return invertedAdjacency(len(vertices),
		func(i int32) []int32 { return iv.store.Vertex(vertices[i])[:prefix[i]] },
		func(i, j int32) bool { return iv.pairSimilar(vertices[i], vertices[j]) },
	)
}

// WeightedInverted is the bulk engine for the weighted Jaccard metric.
// The prefix of a vertex is the shortest key prefix whose remaining
// (suffix) weight falls below r·W, W being the vertex's total weight:
// if two vertices share no prefix key, Σmin is bounded by the smaller
// suffix weight and the score stays below r. Candidates failing the
// weight-ratio bound min(W_u,W_v)/max(W_u,W_v) >= r are rejected before
// the exact merge. W is the store's total (attr.Weighted.Total), which
// does not depend on r, so a new threshold copies no per-vertex array:
// SimilarAdjacency computes the prefix lengths of the vertices it is
// given.
type WeightedInverted struct {
	store *attr.Weighted
	r     float64
}

// NewWeightedInverted builds the weighted inverted index for the store
// at threshold r.
func NewWeightedInverted(store *attr.Weighted, r float64) *WeightedInverted {
	return &WeightedInverted{store: store, r: r}
}

// prefixes returns the prefix length of every vertex of vs, by
// position, at r > 0.
func (iv *WeightedInverted) prefixes(vs []int32) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = weightedPrefixLen(iv.store.Weights(v), iv.store.Total(v), iv.r)
	}
	return out
}

// weightedPrefixLen returns the smallest prefix length p such that the
// suffix weight beyond p is below r·total (with slack); beyond that
// point no disjoint-prefix pair can reach the threshold.
func weightedPrefixLen(ws []float64, total, r float64) int32 {
	if total <= 0 {
		return 0
	}
	bound := r * total * (1 - boundSlack)
	suffix := total
	for p := 0; p < len(ws); p++ {
		if suffix < bound {
			return int32(p)
		}
		suffix -= ws[p]
	}
	return int32(len(ws))
}

// pairSimilar mirrors Oracle.Similar for the weighted Jaccard metric,
// with the weight-ratio reject first.
func (iv *WeightedInverted) pairSimilar(u, v int32) bool {
	if iv.r > 0 {
		wa, wb := iv.store.Total(u), iv.store.Total(v)
		if wa > wb {
			wa, wb = wb, wa
		}
		if wb <= 0 || wa/wb < iv.r*(1-boundSlack) {
			return false
		}
	}
	return iv.store.WeightedJaccard(u, v) >= iv.r
}

// SimilarAdjacency implements similarity.BulkSource; the hint is
// ignored.
func (iv *WeightedInverted) SimilarAdjacency(vertices []int32, _ [][]int32) [][]int32 {
	if math.IsNaN(iv.r) {
		// score >= NaN holds for no pair.
		return make([][]int32, len(vertices))
	}
	if iv.r <= 0 {
		// Every score is at least 0 >= r, except a NaN one: the merge's
		// sums can overflow, finite weights notwithstanding.
		return bruteAdjacency(len(vertices), func(i, j int32) bool {
			return iv.pairSimilar(vertices[i], vertices[j])
		})
	}
	prefix := iv.prefixes(vertices)
	return invertedAdjacency(len(vertices),
		func(i int32) []int32 { return iv.store.Keys(vertices[i])[:prefix[i]] },
		func(i, j int32) bool { return iv.pairSimilar(vertices[i], vertices[j]) },
	)
}

// invertedAdjacency is the candidate sweep shared by both inverted
// indexes. prefixKeys yields the indexed key prefix of a local vertex;
// accept performs the bound checks and the exact verification.
//
// The sweep first builds the prefix posting lists for the subset, then
// probes in parallel: vertex i collects every j < i co-occurring in one
// of its prefix lists (deduplicated with a stamp array), so each
// unordered candidate pair is examined exactly once, by its larger
// endpoint. Rows are sorted before the symmetric merge, making the
// output deterministic.
func invertedAdjacency(n int, prefixKeys func(int32) []int32, accept func(i, j int32) bool) [][]int32 {
	lists := make(map[int32][]int32)
	for i := int32(0); i < int32(n); i++ {
		for _, t := range prefixKeys(i) {
			lists[t] = append(lists[t], i)
		}
	}
	rows := make([][]int32, n)
	nw := 1
	if n >= 2048 {
		nw = workers(n)
	}
	runParallel(nw, func(w int) {
		seen := make([]int32, n) // stamp = probing vertex + 1
		var cand []int32
		for i := int32(w); i < int32(n); i += int32(nw) {
			cand = cand[:0]
			for _, t := range prefixKeys(i) {
				for _, j := range lists[t] {
					if j >= i {
						break // lists are ascending; the rest probe later
					}
					if seen[j] == i+1 {
						continue
					}
					seen[j] = i + 1
					cand = append(cand, j)
				}
			}
			sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
			var row []int32
			for _, j := range cand {
				if accept(i, j) {
					row = append(row, j)
				}
			}
			rows[i] = row
		}
	})
	return mergeRows(n, rows)
}
