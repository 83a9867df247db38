// Package simgraph materialises similarity structure for a vertex set.
//
// The paper's similarity graph G' connects every similar vertex pair
// (Section 3). Inside a candidate component, similar pairs vastly
// outnumber dissimilar ones (otherwise no (k,r)-core could exist there),
// so the search engine stores the complement — dissimilarity adjacency
// lists — and derives similarity degrees as (n-1) - |dissimilar|. The
// Clique+ baseline and the colour/k-core upper bounds use the explicit
// similarity graph instead.
package simgraph

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"krcore/internal/graph"
	"krcore/internal/similarity"
)

// Dissim holds, for a set of vertices with local ids 0..n-1, the sorted
// list of locally-dissimilar vertices of each vertex, plus the total
// number of dissimilar pairs.
type Dissim struct {
	Lists [][]int32
	Pairs int
}

// BuildDissim computes the pairwise dissimilarity lists for the given
// global vertices under the oracle. Local id i corresponds to
// vertices[i]. O(len(vertices)^2) oracle queries.
func BuildDissim(o *similarity.Oracle, vertices []int32) *Dissim {
	n := len(vertices)
	d := &Dissim{Lists: make([][]int32, n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !o.Similar(vertices[i], vertices[j]) {
				d.Lists[i] = append(d.Lists[i], int32(j))
				d.Lists[j] = append(d.Lists[j], int32(i))
				d.Pairs++
			}
		}
	}
	return d
}

// SimilarityGraph materialises the explicit similarity graph on the given
// global vertices: local vertices i and j are adjacent iff vertices[i]
// and vertices[j] are similar. O(len(vertices)^2) oracle queries.
func SimilarityGraph(o *similarity.Oracle, vertices []int32) *graph.Graph {
	n := len(vertices)
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if o.Similar(vertices[i], vertices[j]) {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	for i := range adj {
		nb := adj[i]
		sort.Slice(nb, func(a, b int) bool { return nb[a] < nb[b] })
	}
	return graph.FromAdjacency(adj)
}

// BuildDissimBulk computes the same Dissim as BuildDissim through a
// bulk similarity engine: the engine yields the similar adjacency of
// the set in bulk (near-linear for the indexed metrics) and the
// dissimilarity lists are its complement, written with trivial per-item
// work instead of one metric evaluation per pair. known is the
// engine's optional hint of pairs already known similar (see
// similarity.BulkSource; nil for none). The result is bit-identical to
// BuildDissim for the engine's oracle.
func BuildDissimBulk(src similarity.BulkSource, vertices []int32, known [][]int32) *Dissim {
	n := len(vertices)
	sim := src.SimilarAdjacency(vertices, known)
	d := &Dissim{Lists: make([][]int32, n)}
	simEdges := 0
	total := 0
	for i := 0; i < n; i++ {
		simEdges += len(sim[i])
		total += n - 1 - len(sim[i])
	}
	d.Pairs = n*(n-1)/2 - simEdges/2
	backing := make([]int32, total)
	mark := make([]bool, n)
	off := 0
	for i := 0; i < n; i++ {
		for _, j := range sim[i] {
			mark[j] = true
		}
		list := backing[off:off]
		for j := 0; j < n; j++ {
			if j != i && !mark[j] {
				list = append(list, int32(j))
			}
		}
		off += len(list)
		d.Lists[i] = list
		for _, j := range sim[i] {
			mark[j] = false
		}
	}
	return d
}

// SimilarityGraphBulk materialises the explicit similarity graph
// through a bulk similarity engine; identical to SimilarityGraph for
// the engine's oracle.
func SimilarityGraphBulk(src similarity.BulkSource, vertices []int32) *graph.Graph {
	return graph.FromAdjacency(src.SimilarAdjacency(vertices, nil))
}

// parallelEdges is the edge count from which EdgeKeys shards its work
// across cores, the threshold the bulk engines use for pair batches;
// runEdges is the size of one share a worker claims.
const (
	parallelEdges = 4096
	runEdges      = 1024
)

// EdgeKeys scores every edge of g once: keys[i] is o.Key(u,v) for the
// i-th edge in Edges order. A key does not depend on o's threshold, so
// one table serves the dissimilar-edge filter at every r over the same
// metric and attribute data (see FilterByKeys). Large graphs are split
// into runs of consecutive vertices holding about runEdges edges each,
// scored by up to GOMAXPROCS workers.
func EdgeKeys(g *graph.Graph, o *similarity.Oracle) []float64 {
	n := g.N()
	// off[u] is the position in Edges order of u's first edge (u,v>u).
	off := make([]int, n+1)
	for u := 0; u < n; u++ {
		nb := g.Neighbors(int32(u))
		back := sort.Search(len(nb), func(i int) bool { return nb[i] > int32(u) })
		off[u+1] = off[u] + len(nb) - back
	}
	m := off[n]
	keys := make([]float64, m)
	score := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			nb := g.Neighbors(int32(u))
			i := off[u]
			for _, v := range nb[len(nb)-(off[u+1]-off[u]):] {
				keys[i] = o.Key(int32(u), v)
				i++
			}
		}
	}
	runs := m / runEdges
	nw := min(runtime.GOMAXPROCS(0), runs)
	if m < parallelEdges || nw < 2 {
		score(0, n)
		return keys
	}
	// first returns the first vertex of run r: the first vertex whose
	// edges start at or past the r-th share of them.
	first := func(r int) int {
		if r == runs {
			return n
		}
		return sort.SearchInts(off[:n], r*m/runs)
	}
	// Workers, the caller among them, claim runs from a shared counter,
	// so one that loses its core (to the garbage collector, say) holds
	// the table back by one run, not by a fixed share of the edges.
	var next atomic.Int64
	claim := func() {
		for r := int(next.Add(1) - 1); r < runs; r = int(next.Add(1) - 1) {
			score(first(r), first(r+1))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	return keys
}

// FilterByKeys drops the edges of g joining dissimilar pairs
// (Algorithm 1 line 1) as one compare pass with no metric call: keys
// must be EdgeKeys(g, o') for some oracle o' over o's metric and
// attribute data, whatever its threshold. The result equals
// g.FilterEdges(o.Similar).
func FilterByKeys(g *graph.Graph, keys []float64, o *similarity.Oracle) *graph.Graph {
	keep := make([]bool, len(keys))
	for i, k := range keys {
		keep[i] = o.Accept(k)
	}
	return g.KeepEdges(keep)
}

// Complement returns the similarity graph implied by d (the complement of
// the dissimilarity lists on n local vertices). Useful for tests and for
// the baseline upper bounds on small candidate sets.
func (d *Dissim) Complement() *graph.Graph {
	n := len(d.Lists)
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		dis := d.Lists[i]
		k := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			for k < len(dis) && int(dis[k]) < j {
				k++
			}
			if k < len(dis) && int(dis[k]) == j {
				continue
			}
			adj[i] = append(adj[i], int32(j))
		}
	}
	return graph.FromAdjacency(adj)
}

// SimDegree returns n-1-|dissim(i)|, the similarity degree of local
// vertex i within the whole set.
func (d *Dissim) SimDegree(i int32) int {
	return len(d.Lists) - 1 - len(d.Lists[i])
}

// IsDissimilar reports whether local vertices i and j are dissimilar.
// O(log) via binary search on the shorter list.
func (d *Dissim) IsDissimilar(i, j int32) bool {
	l := d.Lists[i]
	if len(d.Lists[j]) < len(l) {
		l = d.Lists[j]
		i, j = j, i
	}
	k := sort.Search(len(l), func(k int) bool { return l[k] >= j })
	return k < len(l) && l[k] == j
}
