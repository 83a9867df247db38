package simindex

import (
	"math"

	"krcore/internal/attr"
)

// Grid is the uniform spatial index for the Euclidean metric. Cells
// are w×w squares with w = |r|, so every pair within distance |r| lies
// in the same or one of the eight adjacent cells; only those candidate
// pairs pay a distance computation. The index snapshots each vertex's
// cell coordinates at construction.
//
// The oracle deems (u,v) similar when Distance2(u,v) <= r², which for
// negative r behaves like |r| and for NaN r matches nothing; the grid
// mirrors both exactly. A zero threshold degenerates to exact
// coordinate match, handled by hashing points. The cell width is |r|
// padded by 0.1% and cell coordinates are capped at 2^40, which keeps
// the division-rounding error on x/w far below the padding, so two
// points within |r| always land in the same or adjacent cells;
// overflowing or non-finite cell coordinates (NaN positions, absurdly
// small r) disable the grid and fall back to brute-force scans, which
// remain bit-identical to the oracle.
type Grid struct {
	store *attr.Geo
	r2    float64 // squared threshold, computed exactly as the oracle does
	w     float64 // cell width: |r| padded against division rounding
	cx    []int64 // per-vertex cell column (when gridded)
	cy    []int64 // per-vertex cell row
	exact bool    // r == 0: only coincident points are similar
	never bool    // r is NaN: no pair is similar
	brute bool    // ungriddable coordinates: per-pair fallback
}

// NewGrid builds the spatial index for the store at threshold r.
func NewGrid(store *attr.Geo, r float64) *Grid {
	// The 0.1% padding keeps the quotient spread of an in-range pair
	// strictly below one cell even after division rounding (bounded by
	// 2^40 * 2^-53 per coordinate under the maxCell guard), so the
	// 3×3 neighbourhood sweep never misses a similar pair.
	g := &Grid{store: store, r2: r * r, w: math.Abs(r) * 1.001}
	if math.IsNaN(r) {
		g.never = true
		return g
	}
	if g.w == 0 {
		g.exact = true
		return g
	}
	n := store.N()
	g.cx = make([]int64, n)
	g.cy = make([]int64, n)
	const maxCell = 1 << 40
	for u := 0; u < n; u++ {
		p := store.Vertex(int32(u))
		cx := math.Floor(p.X / g.w)
		cy := math.Floor(p.Y / g.w)
		if !(cx > -maxCell && cx < maxCell && cy > -maxCell && cy < maxCell) {
			g.brute = true
			g.cx, g.cy = nil, nil
			return g
		}
		g.cx[u] = int64(cx)
		g.cy[u] = int64(cy)
	}
	return g
}

// pairSimilar mirrors Oracle.Similar's geo fast path.
func (g *Grid) pairSimilar(u, v int32) bool {
	return g.store.Distance2(u, v) <= g.r2
}

// SimilarAdjacency implements similarity.BulkSource. The hint is
// ignored: a candidate's distance costs less than looking it up.
func (g *Grid) SimilarAdjacency(vertices []int32, _ [][]int32) [][]int32 {
	n := len(vertices)
	switch {
	case g.never:
		// NaN threshold: Distance2 <= NaN holds for no pair.
		return make([][]int32, n)
	case g.brute:
		return bruteAdjacency(n, func(i, j int32) bool {
			return g.pairSimilar(vertices[i], vertices[j])
		})
	case g.exact:
		return g.exactAdjacency(vertices)
	default:
		return g.gridAdjacency(vertices)
	}
}

// exactAdjacency handles r == 0: a pair is similar iff the points
// coincide (distance² <= 0).
func (g *Grid) exactAdjacency(vertices []int32) [][]int32 {
	buckets := make(map[attr.Point][]int32)
	for i, v := range vertices {
		p := g.store.Vertex(v)
		buckets[p] = append(buckets[p], int32(i))
	}
	rows := make([][]int32, len(vertices))
	for _, members := range buckets {
		// Members are ascending by construction; each member's backward
		// row is every earlier member of its bucket.
		for x := 1; x < len(members); x++ {
			rows[members[x]] = append([]int32(nil), members[:x]...)
		}
	}
	return mergeRows(len(vertices), rows)
}

// forwardCells is the half-neighbourhood used to visit each adjacent
// unordered cell pair exactly once.
var forwardCells = [4][2]int64{{1, -1}, {1, 0}, {1, 1}, {0, 1}}

// gridAdjacency buckets the vertex subset into cells and checks only
// same-cell and adjacent-cell candidates. The subset's coordinates are
// copied into flat per-cell arrays so the candidate loops stream
// contiguous memory, similar pairs are packed into uint64s in exactly
// pre-counted buffers, and the adjacency is assembled with counting
// sorts — no comparison sort anywhere, so the whole path is linear in
// candidates plus output.
func (g *Grid) gridAdjacency(vertices []int32) [][]int32 {
	n := len(vertices)
	type cellKey [2]int64
	cellOf := make(map[cellKey]int32, n)
	var keys []cellKey
	cellIdx := make([]int32, n) // local vertex -> cell
	cnt := make([]int32, 0, 64) // members per cell
	for i, v := range vertices {
		k := cellKey{g.cx[v], g.cy[v]}
		ci, ok := cellOf[k]
		if !ok {
			ci = int32(len(keys))
			cellOf[k] = ci
			keys = append(keys, k)
			cnt = append(cnt, 0)
		}
		cellIdx[i] = ci
		cnt[ci]++
	}
	nc := len(keys)
	// Counting-sort the subset into cell-major order, with coordinates
	// flattened alongside so the pair loops below touch xs/ys/ids only.
	start := make([]int32, nc+1)
	for c := 0; c < nc; c++ {
		start[c+1] = start[c] + cnt[c]
	}
	ids := make([]int32, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	cur := make([]int32, nc)
	copy(cur, start[:nc])
	for i := 0; i < n; i++ {
		c := cellIdx[i]
		p := g.store.Vertex(vertices[i])
		ids[cur[c]] = int32(i)
		xs[cur[c]] = p.X
		ys[cur[c]] = p.Y
		cur[c]++
	}
	// Resolve each cell's forward neighbours once, and count candidate
	// pairs so the emit buffers allocate exactly once.
	nbIdx := make([][4]int32, nc)
	cand := make([]int, nc)
	for c := 0; c < nc; c++ {
		m := int(cnt[c])
		cand[c] = m * (m - 1) / 2
		for d, off := range forwardCells {
			nb, ok := cellOf[cellKey{keys[c][0] + off[0], keys[c][1] + off[1]}]
			if !ok {
				nb = -1
			} else {
				cand[c] += m * int(cnt[nb])
			}
			nbIdx[c][d] = nb
		}
	}

	nw := 1
	if n >= 4096 {
		nw = workers(nc)
	}
	found := make([][]uint64, nw)
	runParallel(nw, func(w int) {
		size := 0
		for c := w; c < nc; c += nw {
			size += cand[c]
		}
		out := make([]uint64, 0, size)
		for c := w; c < nc; c += nw {
			lo, hi := int(start[c]), int(start[c+1])
			// Same-cell candidates: members are id-ascending, so a<b
			// emits packed pairs directly.
			for a := lo; a < hi; a++ {
				xa, ya := xs[a], ys[a]
				for b := a + 1; b < hi; b++ {
					dx, dy := xa-xs[b], ya-ys[b]
					if dx*dx+dy*dy <= g.r2 {
						out = append(out, uint64(ids[a])<<32|uint64(ids[b]))
					}
				}
			}
			for _, nb := range nbIdx[c] {
				if nb < 0 {
					continue
				}
				nlo, nhi := int(start[nb]), int(start[nb+1])
				for a := lo; a < hi; a++ {
					xa, ya := xs[a], ys[a]
					ia := ids[a]
					for b := nlo; b < nhi; b++ {
						dx, dy := xa-xs[b], ya-ys[b]
						if dx*dx+dy*dy <= g.r2 {
							ib := ids[b]
							if ia < ib {
								out = append(out, uint64(ia)<<32|uint64(ib))
							} else {
								out = append(out, uint64(ib)<<32|uint64(ia))
							}
						}
					}
				}
			}
		}
		found[w] = out
	})
	return packedPairsToAdjacency(n, found)
}

// packedPairsToAdjacency turns buffers of packed (lo<<32|hi, lo < hi)
// similar pairs into sorted adjacency lists in linear time. Each row's
// final content is [backward neighbours ascending][forward neighbours
// ascending]; both sections are produced by stable counting sorts (by
// lo for the backward fills, by hi for the forward fills), so there is
// no comparison sort and the result is independent of how the pairs
// were distributed across the buffers. Each pair must appear exactly
// once across the buffers.
func packedPairsToAdjacency(n int, buffers [][]uint64) [][]int32 {
	total := 0
	for _, buf := range buffers {
		total += len(buf)
	}
	deg := make([]int32, n)
	cntL := make([]int32, n)
	cntH := make([]int32, n)
	for _, buf := range buffers {
		for _, p := range buf {
			lo, hi := int32(p>>32), int32(uint32(p))
			deg[lo]++
			deg[hi]++
			cntL[lo]++
			cntH[hi]++
		}
	}
	backing := make([]int32, 2*total)
	adj := make([][]int32, n)
	off := int32(0)
	for i := 0; i < n; i++ {
		adj[i] = backing[off : off : off+deg[i]]
		off += deg[i]
	}
	// Stable counting sort by lo; consuming it in order appends each
	// pair's lo to adj[hi], so every backward section ascends.
	tmp := make([]uint64, total)
	pos := int32(0)
	for i := 0; i < n; i++ {
		pos, cntL[i] = pos+cntL[i], pos
	}
	for _, buf := range buffers {
		for _, p := range buf {
			lo := p >> 32
			tmp[cntL[lo]] = p
			cntL[lo]++
		}
	}
	for _, p := range tmp {
		hi := uint32(p)
		adj[hi] = append(adj[hi], int32(p>>32))
	}
	// Stable counting sort by hi; consuming it appends each pair's hi
	// to adj[lo], so every forward section ascends after the backward
	// one.
	pos = 0
	for i := 0; i < n; i++ {
		pos, cntH[i] = pos+cntH[i], pos
	}
	for _, buf := range buffers {
		for _, p := range buf {
			hi := uint32(p)
			tmp[cntH[hi]] = p
			cntH[hi]++
		}
	}
	for _, p := range tmp {
		lo := p >> 32
		adj[lo] = append(adj[lo], int32(uint32(p)))
	}
	return adj
}
