// Package kcore implements linear-time core decomposition and k-core
// extraction following Batagelj and Zaversnik, "An O(m) algorithm for
// cores decomposition of networks" (reference [2] of the paper).
//
// The k-core of a graph is the maximal subgraph in which every vertex has
// degree at least k; the core number of a vertex is the largest k such
// that the vertex belongs to the k-core. The (k,r)-core engine uses k-core
// computation as the preprocessing step of Algorithm 1, and Repair keeps
// core numbers current across edge updates.
package kcore

import "krcore/internal/graph"

// Decompose returns the core number of every vertex of g using the
// bucket-based O(n+m) peeling algorithm.
func Decompose(g *graph.Graph) []int {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(int32(u))
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Bucket sort vertices by degree.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		count := bin[d]
		bin[d] = start
		start += count
	}
	pos := make([]int, n)  // position of vertex in vert
	vert := make([]int, n) // vertices sorted by current degree
	for u := 0; u < n; u++ {
		pos[u] = bin[deg[u]]
		vert[pos[u]] = u
		bin[deg[u]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := make([]int, n)
	for i := 0; i < n; i++ {
		u := vert[i]
		core[u] = deg[u]
		for _, v := range g.Neighbors(int32(u)) {
			if deg[v] > deg[u] {
				// Move v to the front of its bucket, then shift the
				// bucket boundary right, effectively decrementing
				// deg[v] in O(1).
				dv := deg[v]
				pv := pos[v]
				pw := bin[dv]
				w := vert[pw]
				if v != int32(w) {
					vert[pv], vert[pw] = w, int(v)
					pos[v], pos[w] = pw, pv
				}
				bin[dv]++
				deg[v]--
			}
		}
	}
	return core
}

// KCore returns the sorted vertex set of the k-core of g (possibly
// empty). The k-core may be disconnected; use
// g.ComponentsOf(KCore(g,k)) to split it.
func KCore(g *graph.Graph, k int) []int32 {
	core := Decompose(g)
	var out []int32
	for u, c := range core {
		if c >= k {
			out = append(out, int32(u))
		}
	}
	return out
}
