package simgraph

import (
	"krcore/internal/graph"
	"krcore/internal/similarity"
)

// PatchFiltered incrementally maintains a dissimilar-edge-filtered
// graph (the output of filtering a base graph's edges through a
// similarity oracle) across a mutation batch, classifying only the new
// and changed pairs with o.Similar instead of re-filtering all m edges.
//
// filtered is the filter of the pre-mutation graph; g2 is the
// post-mutation graph; addPairs and delPairs are the effective edge
// diff between them (normalized u < v, as produced by graph.Delta.Diff);
// attrVerts lists the vertices whose attributes changed, so every g2
// edge incident to one of them is re-classified under o. o must answer
// similarity for the post-mutation attributes; the result is identical
// to re-filtering g2 from scratch with o.
//
// Alongside the patched graph, PatchFiltered returns the effective
// edge diff OF THE FILTERED GRAPH itself (normalized u < v, sorted):
// this differs from the base-graph diff because dissimilar additions
// never appear, and because an attribute change can flip edges whose
// far endpoint is nowhere in the batch. Incremental core maintenance
// consumes exactly this diff (see core.PatchPreparedDelta).
func PatchFiltered(filtered *graph.Graph, o *similarity.Oracle, g2 *graph.Graph,
	addPairs, delPairs [][2]int32, attrVerts []int32) (patched *graph.Graph, addF, delF [][2]int32) {
	d := graph.NewDelta(filtered)
	d.Grow(g2.N())
	// Delta's set semantics make a pair classified twice (an added edge
	// of an attribute-changed vertex) harmless.
	classify := func(u, v int32) {
		var err error
		if o.Similar(u, v) {
			err = d.AddEdge(u, v)
		} else {
			err = d.RemoveEdge(u, v)
		}
		if err != nil {
			// classified pairs are valid g2 edges (or effective
			// additions), so a failure here is an internal invariant
			// violation.
			panic("simgraph: " + err.Error())
		}
	}
	for _, p := range addPairs {
		classify(p[0], p[1])
	}
	for _, u := range attrVerts {
		for _, v := range g2.Neighbors(u) {
			classify(u, v)
		}
	}
	for _, p := range delPairs {
		if err := d.RemoveEdge(p[0], p[1]); err != nil {
			panic("simgraph: " + err.Error())
		}
	}
	addF, delF = d.Diff()
	return filtered.Apply(d), addF, delF
}
