package core

import (
	"fmt"
	"slices"
	"sort"

	"krcore/internal/binenc"
	"krcore/internal/bitset"
	"krcore/internal/graph"
	"krcore/internal/kcore"
	"krcore/internal/simgraph"
	"krcore/internal/similarity"
)

// K returns the engagement threshold the problem was prepared for.
func (pr *Prepared) K() int { return pr.p.K }

// AppendPrepared serialises the candidate components of one (k,r)
// problem: K, the source-graph vertex count, the maintained per-vertex
// core numbers (format v2), then per component the structural
// adjacency, the dissimilarity lists (each row written as its
// ascending list) and the local-to-global vertex mapping. Derived
// state (the rows, maxDeg, the byDeg order, the component-id map) is
// recomputed on decode, keeping the encoding canonical.
func AppendPrepared(b *binenc.Buffer, pr *Prepared) {
	b.U32(uint32(pr.p.K))
	b.U64(uint64(pr.n))
	b.I32s(pr.coreNums)
	b.U64(uint64(len(pr.probs)))
	for _, p := range pr.probs {
		graph.AppendAdjacency(b, rowLists(p.rows[:p.n]))
		simgraph.AppendDissim(b, &simgraph.Dissim{Lists: rowLists(p.rows[p.n:])})
		b.I32s(p.orig)
	}
}

// DecodePrepared reconstructs a Prepared written by AppendPrepared.
// The oracle supplies the similarity half of its Params (the oracle is
// rebuilt by the snapshot layer, it is not part of this payload);
// wantN anchors the source-graph vertex count; filtered is the
// threshold's dissimilar-edge-filtered graph the problem was prepared
// on. withCore selects the payload flavour: format v2 carries the
// maintained core numbers (validated against filtered's degrees), a
// v1 payload omits them and they are recomputed by linear peeling.
// Every structural invariant the searches assume is re-validated:
// component adjacency and dissimilarity lists sorted and in local
// range, local and global vertex counts consistent, the
// local-to-global mapping strictly ascending within the source graph,
// every component member's core number at least K, every component a
// k-core of its own adjacency — symmetric, with at least K neighbours
// per member — which the search's root assumes (state.prune), and its
// dissimilarity lists symmetric and disjoint from its adjacency: the
// search's sums count every dissimilar pair from both ends, and every
// filtered edge joins a similar pair. The rows are then built from the
// lists, which are not kept.
func DecodePrepared(r *binenc.Reader, o *similarity.Oracle, wantN int,
	filtered *graph.Graph, withCore bool) (*Prepared, error) {
	k := int(r.U32())
	n := int(r.U64())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: prepared: %w", err)
	}
	if n != wantN {
		return nil, fmt.Errorf("core: prepared for %d vertices, graph has %d", n, wantN)
	}
	if filtered == nil || filtered.N() != n {
		return nil, fmt.Errorf("core: prepared needs its filtered graph over %d vertices", n)
	}
	var coreNums []int32
	if withCore {
		coreNums = r.I32s()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("core: prepared core numbers: %w", err)
		}
		if len(coreNums) != n {
			return nil, fmt.Errorf("core: %d core numbers for %d vertices", len(coreNums), n)
		}
		for v, c := range coreNums {
			if c < 0 || int(c) > filtered.Degree(int32(v)) {
				return nil, fmt.Errorf("core: vertex %d has core number %d outside [0,%d]",
					v, c, filtered.Degree(int32(v)))
			}
		}
	} else {
		coreNums = kcore.Decompose32(filtered)
	}
	cnt := r.Count(16) // each component occupies well above 16 bytes
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: prepared: %w", err)
	}
	pr := &Prepared{p: Params{K: k, Oracle: o}, n: n, coreNums: coreNums, compID: newCompIDs(n)}
	if err := pr.p.validate(); err != nil {
		return nil, err
	}
	var w rowWriter // one scratch serves every component
	for i := 0; i < cnt; i++ {
		adj, _, err := graph.DecodeAdjacency(r)
		if err != nil {
			return nil, fmt.Errorf("core: component %d adjacency: %w", i, err)
		}
		d, err := simgraph.DecodeDissim(r)
		if err != nil {
			return nil, fmt.Errorf("core: component %d: %w", i, err)
		}
		if len(d.Lists) != len(adj) {
			return nil, fmt.Errorf("core: component %d: %d dissim lists for %d vertices", i, len(d.Lists), len(adj))
		}
		orig := r.I32s()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("core: component %d mapping: %w", i, err)
		}
		if len(orig) != len(adj) {
			return nil, fmt.Errorf("core: component %d: mapping for %d of %d vertices", i, len(orig), len(adj))
		}
		for j, v := range orig {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("core: component %d: global vertex %d out of range [0,%d)", i, v, n)
			}
			if j > 0 && v <= orig[j-1] {
				return nil, fmt.Errorf("core: component %d: mapping not strictly ascending", i)
			}
			if int(coreNums[v]) < k {
				return nil, fmt.Errorf("core: component %d: member %d has core number %d below k=%d",
					i, v, coreNums[v], k)
			}
			pr.compID[v] = orig[0]
		}
		for u, nbs := range adj {
			if len(nbs) < k {
				return nil, fmt.Errorf("core: component %d: member %d has %d neighbours, below k=%d", i, u, len(nbs), k)
			}
			for _, v := range nbs {
				if _, ok := slices.BinarySearch(adj[v], int32(u)); !ok {
					return nil, fmt.Errorf("core: component %d: member %d lists %d, which does not list it back", i, u, v)
				}
			}
			for _, v := range d.Lists[u] {
				if _, ok := slices.BinarySearch(d.Lists[v], int32(u)); !ok {
					return nil, fmt.Errorf("core: component %d: member %d is dissimilar to %d, which does not list it back", i, u, v)
				}
			}
			if v, ok := firstCommon(nbs, d.Lists[u]); ok {
				return nil, fmt.Errorf("core: component %d: member %d has %d both as a neighbour and as a dissimilar partner", i, u, v)
			}
		}
		rows, maxDeg := rowsFromLists(&w, adj, d.Lists)
		p := &problem{k: k, n: len(adj), rows: rows, orig: orig, maxDeg: maxDeg}
		pr.probs = append(pr.probs, p)
	}
	// Re-derive the maximum-search component order exactly as
	// PrepareFiltered does, so a decoded Prepared searches components
	// in the same sequence as the one that was saved.
	pr.byDeg = append([]*problem(nil), pr.probs...)
	sort.SliceStable(pr.byDeg, func(i, j int) bool { return pr.byDeg[i].maxDeg > pr.byDeg[j].maxDeg })
	return pr, nil
}

// firstCommon returns the least member of two ascending lists.
func firstCommon(a, b []int32) (int32, bool) {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			return a[0], true
		}
	}
	return 0, false
}

// rowsFromLists returns the rows of the ascending adjacency lists, then
// of the dissimilarity lists, in one buffer written through the scratch
// w, and the length of the longest adjacency list.
func rowsFromLists(w *rowWriter, adj, dissim [][]int32) ([][]bitset.Entry, int) {
	w.reset()
	maxDeg := 0
	for _, l := range adj {
		w.list(l)
		w.end()
		maxDeg = max(maxDeg, len(l))
	}
	for _, l := range dissim {
		w.list(l)
		w.end()
	}
	return w.rows(), maxDeg
}
