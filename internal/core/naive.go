package core

import (
	"fmt"

	"krcore/internal/graph"
	"krcore/internal/simindex"
)

// BruteForce enumerates the maximal (k,r)-cores of g by exhaustive
// subset enumeration over the raw graph, independent of all search
// machinery — the NaiveEnum ground truth of Section 4 used to validate
// the optimised algorithms. It refuses graphs with more than 22
// vertices.
func BruteForce(g *graph.Graph, p Params) ([][]int32, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if n > 22 {
		return nil, fmt.Errorf("core: BruteForce limited to 22 vertices, got %d", n)
	}
	// The explicit similarity structure, built once through the
	// oracle's bulk engine and flattened into per-vertex bitmasks so
	// each of the 2^n subset checks tests similarity in O(n) words.
	all := make([]int32, n)
	for u := range all {
		all[u] = int32(u)
	}
	simMask := make([]uint32, n)
	for u, nbs := range simindex.For(p.Oracle).SimilarAdjacency(all, nil) {
		simMask[u] = 1 << uint(u) // a vertex is similar to itself
		for _, v := range nbs {
			simMask[u] |= 1 << uint(v)
		}
	}
	var cores [][]int32
	verts := make([]int32, 0, n)
	for mask := uint32(0); mask < 1<<uint(n); mask++ {
		verts = verts[:0]
		for u := 0; u < n; u++ {
			if mask&(1<<uint(u)) != 0 {
				verts = append(verts, int32(u))
			}
		}
		if len(verts) < p.K+1 {
			continue
		}
		if !maskIsCore(g, p, verts, mask, simMask) {
			continue
		}
		cores = append(cores, append([]int32(nil), verts...))
	}
	return filterMaximal(cores), nil
}

// BruteForceMaximum returns one maximum (k,r)-core of g by exhaustive
// enumeration (nil if none exists).
func BruteForceMaximum(g *graph.Graph, p Params) ([]int32, error) {
	cores, err := BruteForce(g, p)
	if err != nil {
		return nil, err
	}
	var best []int32
	for _, c := range cores {
		if len(c) > len(best) {
			best = c
		}
	}
	return best, nil
}

// maskIsCore checks the full (k,r)-core definition on a subset given as
// both a sorted vertex slice and a bitmask, with similarity answered by
// the precomputed per-vertex masks.
func maskIsCore(g *graph.Graph, p Params, verts []int32, mask uint32, simMask []uint32) bool {
	for _, v := range verts {
		if mask&^simMask[v] != 0 {
			return false
		}
	}
	for _, v := range verts {
		d := 0
		for _, nb := range g.Neighbors(v) {
			if mask&(1<<uint(nb)) != 0 {
				d++
			}
		}
		if d < p.K {
			return false
		}
	}
	return g.IsConnectedSubset(verts)
}

// subsetIsCore checks the full (k,r)-core definition on a sorted vertex
// subset: structure, similarity and connectivity. Used by the
// cross-validation tests on arbitrary result cores.
func subsetIsCore(g *graph.Graph, p Params, verts []int32) bool {
	in := make(map[int32]bool, len(verts))
	for _, v := range verts {
		in[v] = true
	}
	for _, v := range verts {
		d := 0
		for _, nb := range g.Neighbors(v) {
			if in[nb] {
				d++
			}
		}
		if d < p.K {
			return false
		}
	}
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			if !p.Oracle.Similar(verts[i], verts[j]) {
				return false
			}
		}
	}
	return g.IsConnectedSubset(verts)
}
