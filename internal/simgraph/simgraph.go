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
	"math/bits"
	"runtime"
	"slices"
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

// BuildDissimBulk computes the same Dissim as BuildDissim through an
// exact pair test (see simindex.NewPairTest): it runs one DissimPass
// over the vertices and writes the dissimilarity lists from the pairs
// that fail. No similar adjacency is built, so its cost is one test per
// unhinted pair plus the dissimilar pairs it writes.
//
// known is an optional hint (nil for none, else one row per vertex):
// known[i] lists local ids j whose pair with i is similar, such as the
// edges of a dissimilar-edge-filtered graph. Hinted pairs are not
// tested, so every hinted pair must be similar. A nil t finds every
// pair outside the hint dissimilar: an engine without a pair test
// passes its whole similar adjacency (BulkSource.SimilarAdjacency) as
// known. The result is bit-identical to BuildDissim for the test's
// oracle.
func BuildDissimBulk(t similarity.PairTest, vertices []int32, known [][]int32) *Dissim {
	var pass DissimPass
	var hint func(i int, mark []uint64)
	if known != nil {
		hint = func(i int, mark []uint64) { MarkList(mark, known[i]) }
	}
	pairs := pass.Run(t, vertices, hint)
	n := len(vertices)
	d := &Dissim{Lists: make([][]int32, n), Pairs: pairs}
	backing := make([]int32, 0, 2*pairs)
	for i := range d.Lists {
		below, above := pass.Partners(i)
		off := len(backing)
		backing = append(append(backing, below...), above...)
		d.Lists[i] = backing[off:len(backing):len(backing)]
	}
	return d
}

// MarkList sets the bits of list's members in the dense bitset mark.
func MarkList(mark []uint64, list []int32) {
	for _, j := range list {
		mark[j>>6] |= 1 << (j & 63)
	}
}

// DissimPass finds the dissimilar pairs of a vertex set with one pass
// of an exact pair test, and keeps its working arrays for the next set:
// a preparation runs one pass per component, so the arrays grow to the
// largest component and serve them all. A DissimPass must not be shared
// by concurrent calls; its zero value is ready to use.
type DissimPass struct {
	mark  []uint64 // the probing vertex's hinted partners, dense
	below []int32  // each vertex's dissimilar partners below it, one run per vertex
	start []int32  // vertex i's run is below[start[i]:start[i+1]]
	above []int32  // each vertex's dissimilar partners above it, ascending, one run per vertex
	aEnd  []int32  // vertex i's run is above[aEnd[i-1]:aEnd[i]]
}

// Run decides the pairs of vertices (local ids 0..n-1, local id i for
// vertices[i]) with the pair test t: it probes each local vertex i
// once and tests it against every j < i that hint does not mark. hint,
// when not nil, is called once per i before i's tests with a zeroed
// dense bitset over the local ids, ⌈n/64⌉ words, and sets in it local
// ids whose pair with i is similar; the pass clears it again. A nil t
// finds every unhinted pair dissimilar. Run returns the number of
// dissimilar pairs, which Partners lists until the next Run.
func (d *DissimPass) Run(t similarity.PairTest, vertices []int32, hint func(i int, mark []uint64)) int {
	if t == nil {
		t = noneSimilar{}
	}
	n := len(vertices)
	mark := resize(d.mark, (n+63)/64)
	below := d.below[:0]
	start := resize(d.start, n+1)
	aEnd := resize(d.aEnd, n) // the partners above each vertex, counted
	for i := 0; i < n; i++ {
		start[i] = int32(len(below))
		if hint != nil {
			hint(i, mark)
		}
		t.Probe(vertices[i])
		for wi := 0; wi<<6 < i; wi++ {
			x := ^mark[wi]
			if rest := i - wi<<6; rest < 64 {
				x &= 1<<rest - 1 // only the partners below i
			}
			for ; x != 0; x &= x - 1 {
				j := int32(wi<<6 | bits.TrailingZeros64(x))
				// Appended always and kept only if dissimilar: the
				// outcome is a count, not a branch the CPU must guess.
				dis := int32(1)
				if t.Similar(vertices[j]) {
					dis = 0
				}
				below = append(below, j)
				below = below[:int32(len(below))-1+dis]
				aEnd[j] += dis
			}
		}
		if hint != nil {
			clear(mark)
		}
	}
	start[n] = int32(len(below))
	// In ascending i, vertex i pushes itself onto the runs of its
	// partners below it: every run above ascends, no sort.
	end := int32(0)
	for j, c := range aEnd {
		aEnd[j] = end // the run's start, advanced to its end by the fill
		end += c
	}
	above := resize(d.above, len(below))
	for i := 0; i < n; i++ {
		for _, j := range below[start[i]:start[i+1]] {
			above[aEnd[j]] = int32(i)
			aEnd[j]++
		}
	}
	d.mark, d.below, d.start, d.above, d.aEnd = mark, below, start, above, aEnd
	return len(below)
}

// Partners returns local vertex i's dissimilar partners below i and
// above i found by the last Run, each ascending. The slices are views
// of the pass's arrays, valid until its next Run.
func (d *DissimPass) Partners(i int) (below, above []int32) {
	aStart := int32(0)
	if i > 0 {
		aStart = d.aEnd[i-1]
	}
	return d.below[d.start[i]:d.start[i+1]], d.above[aStart:d.aEnd[i]]
}

// resize returns buf re-sliced to n zeroed elements, reusing its
// backing array when it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// noneSimilar is the pair test of BuildDissimBulk when known holds
// every similar pair.
type noneSimilar struct{}

func (noneSimilar) Probe(int32)        {}
func (noneSimilar) Similar(int32) bool { return false }

// SimilarityGraphBulk materialises the explicit similarity graph
// through a bulk similarity engine; identical to SimilarityGraph for
// the engine's oracle.
func SimilarityGraphBulk(src similarity.BulkSource, vertices []int32) *graph.Graph {
	return graph.FromAdjacency(src.SimilarAdjacency(vertices, nil))
}

// parallelEdges is the edge count from which EdgeKeys and FilterByTest
// shard their work across cores, the threshold the bulk engines use
// for pair batches; runEdges is the size of one share a worker claims.
const (
	parallelEdges = 4096
	runEdges      = 1024
)

// forwardOffsets returns, for every vertex u, the position off[u] in
// Edges order of u's first edge (u,v>u); off[N] is M.
func forwardOffsets(g *graph.Graph) []int {
	n := g.N()
	off := make([]int, n+1)
	for u := 0; u < n; u++ {
		nb := g.Neighbors(int32(u))
		back, _ := slices.BinarySearch(nb, int32(u)+1)
		off[u+1] = off[u] + len(nb) - back
	}
	return off
}

// shardEdges calls work(lo, hi) on runs of consecutive vertices that
// together cover 0..N-1, for the edges (u,v>u) of every u in [lo,hi).
// Large graphs are split into runs holding about runEdges edges each,
// claimed by up to GOMAXPROCS workers; newWorker is called once per
// worker and returns that worker's work function, so a worker may keep
// state no other touches.
func shardEdges(off []int, newWorker func() func(lo, hi int)) {
	n := len(off) - 1
	m := off[n]
	runs := m / runEdges
	nw := min(runtime.GOMAXPROCS(0), runs)
	if m < parallelEdges || nw < 2 {
		newWorker()(0, n)
		return
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
	// the result back by one run, not by a fixed share of the edges.
	var next atomic.Int64
	claim := func() {
		work := newWorker()
		for r := int(next.Add(1) - 1); r < runs; r = int(next.Add(1) - 1) {
			work(first(r), first(r+1))
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
}

// EdgeKeys scores every edge of g once: keys[i] is o.Key(u,v) for the
// i-th edge in Edges order. A key does not depend on o's threshold, so
// one table serves the dissimilar-edge filter at every r over the same
// metric and attribute data (see FilterByKeys). Large graphs are
// scored by up to GOMAXPROCS workers (see shardEdges).
func EdgeKeys(g *graph.Graph, o *similarity.Oracle) []float64 {
	off := forwardOffsets(g)
	keys := make([]float64, off[g.N()])
	shardEdges(off, func() func(lo, hi int) {
		return func(lo, hi int) {
			for u := lo; u < hi; u++ {
				nb := g.Neighbors(int32(u))
				i := off[u]
				for _, v := range nb[len(nb)-(off[u+1]-off[u]):] {
					keys[i] = o.Key(int32(u), v)
					i++
				}
			}
		}
	})
	return keys
}

// FilterByTest drops the edges of g joining dissimilar pairs
// (Algorithm 1 line 1), deciding each edge with an exact pair test
// that probes its lower endpoint: a yes or no, with no score kept.
// newTest returns a fresh test for the filtering oracle; large graphs
// are split across up to GOMAXPROCS workers, each with its own test
// (see shardEdges). The result equals g.FilterEdges(o.Similar).
func FilterByTest(g *graph.Graph, newTest func() similarity.PairTest) *graph.Graph {
	off := forwardOffsets(g)
	keep := make([]bool, off[g.N()])
	shardEdges(off, func() func(lo, hi int) {
		t := newTest()
		return func(lo, hi int) {
			for u := lo; u < hi; u++ {
				if off[u+1] == off[u] {
					continue
				}
				nb := g.Neighbors(int32(u))
				t.Probe(int32(u))
				for i, v := range nb[len(nb)-(off[u+1]-off[u]):] {
					keep[off[u]+i] = t.Similar(v)
				}
			}
		}
	})
	return g.KeepEdges(keep)
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
