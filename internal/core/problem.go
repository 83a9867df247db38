package core

import (
	"slices"
	"sort"

	"krcore/internal/bitset"
	"krcore/internal/graph"
	"krcore/internal/kcore"
	"krcore/internal/simgraph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// problem is one candidate component prepared by the initial stage of
// Algorithm 1: a connected component of the k-core of the graph after
// removing dissimilar edges, re-indexed with local vertex ids 0..n-1.
type problem struct {
	k int
	n int
	// rows holds the bitset rows (rows.go): rows[v] is v's structural
	// adjacency (all edges join similar vertices), rows[n+v] its
	// dissimilar partners.
	rows   [][]bitset.Entry
	orig   []int32 // local id -> global id
	maxDeg int     // maximum structural degree (for component ordering)
}

// Prepared holds the candidate components of one (k,r) problem, the
// output of Algorithm 1 lines 1-3, ready to be searched many times.
// A Prepared is immutable after construction and safe for concurrent
// use: Enumerate, EnumerateContaining and FindMaximum may all run at
// once against the same Prepared, each with its own search state and
// budget. The serving layer (krcore.Engine) caches Prepared values per
// (k,r) so repeated queries skip preprocessing entirely.
type Prepared struct {
	p     Params
	n     int        // vertex count of the source graph (anchor validation)
	probs []*problem // candidate components in discovery order
	byDeg []*problem // the same components sorted by maxDeg descending

	// coreNums holds the core number of every vertex of the filtered
	// graph (length n), the substrate incremental maintenance repairs
	// instead of re-peeling (see PatchPreparedDelta). compID maps each
	// vertex to the smallest vertex of its candidate component — the key
	// its problem is identified by — or -1 for vertices outside every
	// prepared component. Both are immutable once built and shared
	// copy-on-write across patches that leave them unchanged.
	coreNums []int32
	compID   []int32
}

// CoreNumbers returns the per-vertex core numbers of the filtered graph
// the problem was prepared on. The slice is shared and must not be
// modified.
func (pr *Prepared) CoreNumbers() []int32 { return pr.coreNums }

// newCompIDs returns a component-id array with every vertex unassigned.
func newCompIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = -1
	}
	return ids
}

// coreMembers lists the vertices with core number >= k, ascending.
func coreMembers(core []int32, k int) []int32 {
	var out []int32
	for u, c := range core {
		if c >= int32(k) {
			out = append(out, int32(u))
		}
	}
	return out
}

// Prepare runs the shared preprocessing of Algorithm 1 lines 1-3 and
// returns the reusable candidate components.
func Prepare(g *graph.Graph, p Params) (*Prepared, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return PrepareFiltered(FilterDissimilar(g, p.Oracle), p)
}

// FilterDissimilar drops the edges of g joining dissimilar vertex pairs
// (Algorithm 1 line 1). Each edge is decided once by the exact pair
// test of the oracle's engine (simindex.NewPairTest, which attaches
// the engine), a yes or no with no score kept; large graphs are split
// across cores (simgraph.FilterByTest). An engine without a pair test
// scores every edge instead (simgraph.EdgeKeys, also split across
// cores) and compares the score with the threshold. The result depends
// only on the similarity threshold r, not on k, so a serving layer can
// share one filtered graph across every k at the same r. krcore.Engine
// instead keeps every edge's score, which does not depend on r, so
// each new r costs it only a compare (simgraph.FilterByKeys); all give
// the same graph.
func FilterDissimilar(g *graph.Graph, o *similarity.Oracle) *graph.Graph {
	if simindex.NewPairTest(o) == nil {
		return simgraph.FilterByKeys(g, simgraph.EdgeKeys(g, o), o)
	}
	return simgraph.FilterByTest(g, func() similarity.PairTest { return simindex.NewPairTest(o) })
}

// PrepareFiltered builds the candidate components for p on a graph
// already filtered by FilterDissimilar with p.Oracle: it computes the
// k-core, splits it into connected components and builds the local
// problems. Components smaller than k+1 vertices cannot host a
// (k,r)-core and are skipped.
//
// Each component's dissimilarity rows come from one pass over its
// vertex pairs with the oracle engine's exact pair test
// (simgraph.DissimPass, simindex.NewPairTest): a gather over the
// probing vertex's dense key row for the keyword metrics, r² for the
// Euclidean one. An engine without a test (Brute over a custom metric,
// Serial, or a caller's own engine attached with Oracle.SetBulk)
// yields the component's similar pairs in bulk instead, and the pass
// writes their complement.
// Either agrees with the oracle on every pair, so the resulting
// problems — and every core derived from them — are unchanged. One
// test, one pass and one scratch of rows serve all the components of a
// preparation.
//
// The filtered graph's edges are trusted as similar pairs: the pass
// skips them. The graph must therefore come from FilterDissimilar (or
// krcore.Engine, or simgraph.PatchFiltered) with the same oracle; a
// graph holding a dissimilar edge yields wrong dissimilarity rows.
func PrepareFiltered(filtered *graph.Graph, p Params) (*Prepared, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	pr, _ := prepareFull(filtered, p, nil, nil)
	return pr, nil
}

// prepareFull computes the k-core of the filtered graph, splits it into
// connected components and builds their local problems, in O(n+m) plus
// the components it builds. With old non-nil, a component whose vertex
// set is unchanged and has no touched member keeps old's problem
// object, including the dissimilarity rows that would otherwise cost
// bulk similarity work to rebuild. touched[v] must then mark every
// vertex whose incident filtered edges or attributes changed (length
// filtered.N()), and p must carry old's K and an oracle that agrees with
// old's on untouched pairs; the result is bit-identical to
// PrepareFiltered(filtered, p) either way.
func prepareFull(filtered *graph.Graph, p Params, old *Prepared, touched []bool) (*Prepared, PatchStats) {
	var st PatchStats
	pr := &Prepared{p: p, n: filtered.N()}
	pr.coreNums = kcore.Decompose32(filtered)
	pr.compID = newCompIDs(pr.n)
	kc := coreMembers(pr.coreNums, p.K)
	if len(kc) == 0 {
		return pr, st // ComponentsOf(nil) would mean every vertex
	}
	var b *builder // made on first use: reused components need none
	for _, comp := range filtered.ComponentsOf(kc) {
		if len(comp) < p.K+1 {
			continue
		}
		for _, v := range comp {
			pr.compID[v] = comp[0]
		}
		if old != nil {
			if ob := probByMin(old.probs, comp[0]); ob != nil && reusable(ob, comp, touched) {
				pr.probs = append(pr.probs, ob)
				st.Reused++
				continue
			}
		}
		if b == nil {
			b = newBuilder(filtered, p)
		}
		pr.probs = append(pr.probs, b.build(comp))
		st.Rebuilt++
	}
	// The maximum search starts from the component holding the
	// highest-degree vertex (Section 6.1): a large core early tightens
	// the size bound everywhere. Sorted once here so concurrent
	// FindMaximum calls share the read-only order.
	pr.byDeg = append([]*problem(nil), pr.probs...)
	sort.SliceStable(pr.byDeg, func(i, j int) bool { return pr.byDeg[i].maxDeg > pr.byDeg[j].maxDeg })
	return pr, st
}

// Components reports the number of prepared candidate components.
func (pr *Prepared) Components() int { return len(pr.probs) }

// prepare is the single-shot form used by the baselines and tests.
func prepare(g *graph.Graph, p Params) []*problem {
	pr, err := Prepare(g, p)
	if err != nil {
		return nil
	}
	return pr.probs
}

// builder constructs the local problems of one preparation's
// components: it holds the oracle's pair test, or the bulk engine of
// an oracle without one, and scratch every component reuses: the
// local ids of the component's members, the pair pass and the rows
// before their copy into the problem.
type builder struct {
	filtered *graph.Graph
	k        int
	test     similarity.PairTest
	src      similarity.BulkSource // nil when test is set
	local    []int32               // local id + 1 of each member, 0 elsewhere
	pass     simgraph.DissimPass
	rows     rowWriter
}

func newBuilder(filtered *graph.Graph, p Params) *builder {
	b := &builder{
		filtered: filtered,
		k:        p.K,
		test:     simindex.NewPairTest(p.Oracle),
		local:    make([]int32, filtered.N()),
	}
	if b.test == nil {
		b.src = simindex.For(p.Oracle)
	}
	return b
}

// build constructs the local problem for one component of the
// filtered k-core, ascending: its adjacency rows from the filtered
// graph's neighbours, then its dissimilarity rows from one pair pass.
func (b *builder) build(comp []int32) *problem {
	n := len(comp)
	w := &b.rows
	w.reset()
	for i, v := range comp {
		b.local[v] = int32(i) + 1
	}
	maxDeg := 0
	for _, v := range comp {
		deg := 0
		// Neighbours ascend, and so do their local ids.
		for _, x := range b.filtered.Neighbors(v) {
			if l := b.local[x]; l != 0 {
				w.bit(l - 1)
				deg++
			}
		}
		w.end()
		maxDeg = max(maxDeg, deg)
	}
	for _, v := range comp {
		b.local[v] = 0
	}
	// Every filtered edge joins a similar pair: the test need not
	// decide those again, nor the engine score them.
	hint := func(i int, mark []uint64) { orRow(mark, w.row(i)) }
	if b.src != nil {
		adj := make([][]bitset.Entry, n)
		for i := range adj {
			adj[i] = w.row(i)
		}
		known := b.src.SimilarAdjacency(comp, rowLists(adj))
		hint = func(i int, mark []uint64) { simgraph.MarkList(mark, known[i]) }
	}
	b.pass.Run(b.test, comp, hint)
	for i := 0; i < n; i++ {
		below, above := b.pass.Partners(i)
		w.list(below)
		w.list(above)
		w.end()
	}
	return &problem{k: b.k, n: n, rows: w.rows(), orig: slices.Clone(comp), maxDeg: maxDeg}
}

// toGlobal maps sorted local vertex ids to sorted global ids.
func (p *problem) toGlobal(locals []int32) []int32 {
	out := make([]int32, len(locals))
	for i, v := range locals {
		out[i] = p.orig[v]
	}
	slices.Sort(out)
	return out
}

// canonicalize sorts cores lexicographically (then by length) so results
// compare deterministically across algorithms.
func canonicalize(cores [][]int32) [][]int32 {
	sort.Slice(cores, func(i, j int) bool {
		a, b := cores[i], cores[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return cores
}

// dedupCores removes duplicate vertex sets from a canonicalized list.
func dedupCores(cores [][]int32) [][]int32 {
	out := cores[:0]
	for i, c := range cores {
		if i > 0 && equalCores(cores[i-1], c) {
			continue
		}
		out = append(out, c)
	}
	return out
}

func equalCores(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// filterMaximal removes cores that are proper subsets of another core,
// implementing the naive maximal check of Algorithm 1 lines 6-8. Input
// cores must each be sorted; the result is canonicalized.
func filterMaximal(cores [][]int32) [][]int32 {
	if len(cores) <= 1 {
		return canonicalize(cores)
	}
	// Sort by size descending; a core can only be contained in a larger
	// (or equal, i.e. duplicate) one.
	sort.Slice(cores, func(i, j int) bool { return len(cores[i]) > len(cores[j]) })
	var kept [][]int32
	for _, c := range cores {
		contained := false
		for _, big := range kept {
			if len(big) >= len(c) && isSubset(c, big) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, c)
		}
	}
	return dedupCores(canonicalize(kept))
}

// isSubset reports whether sorted slice a is a subset of sorted slice b.
func isSubset(a, b []int32) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
