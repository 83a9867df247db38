package core

import (
	"slices"
	"sort"

	"krcore/internal/graph"
	"krcore/internal/kcore"
)

// PatchStats reports how much prepared state a patch call carried over
// versus rebuilt, and which maintenance path produced the result.
type PatchStats struct {
	// Reused counts candidate components taken verbatim from the old
	// Prepared (identical vertex set, no touched member).
	Reused int
	// Rebuilt counts candidate components reconstructed from the new
	// filtered graph.
	Rebuilt int
	// Incremental reports whether Li & Yu-style core repair handled the
	// batch; false means the O(n+m) full recompute ran as its fallback.
	Incremental bool
	// CoreVisited counts the vertices whose neighbourhoods the
	// incremental path scanned — core repair plus affected-region
	// discovery — before it finished or gave up.
	CoreVisited int
}

// PatchDelta describes one committed mutation batch to the incremental
// maintenance path of PatchPreparedDelta.
type PatchDelta struct {
	// AddFiltered and DelFiltered are the effective edge diff of the
	// FILTERED graph — not the base graph — normalized u < v with no
	// duplicates, exactly as simgraph.PatchFiltered reports it. An
	// attribute change that flips an edge's similarity shows up here
	// even though its far endpoint appears nowhere else in the batch.
	AddFiltered, DelFiltered [][2]int32
	// AttrVerts lists the vertices whose attributes changed.
	AttrVerts []int32
	// Touched is the conservative taint mask over filtered.N() vertices:
	// it marks both endpoints of every edge added to or removed from the
	// filtered graph and every vertex whose attributes changed.
	// Components containing a touched vertex are never reused verbatim.
	Touched []bool
	// MaxVisit bounds the vertices the incremental path may walk —
	// core repair plus region discovery — before falling back to full
	// recompute. Zero picks a default proportional to the graph size.
	MaxVisit int
}

// defaultMaxVisit is the fallback threshold heuristic: generous enough
// that single-edge updates on social graphs stay incremental, small
// enough that a batch rewriting a large fraction of the graph pays one
// linear recompute instead of a slower quadratic-ish walk.
func defaultMaxVisit(n int) int {
	return 64 + n/8
}

// PatchPreparedDelta maintains the prepared candidate components of a
// (k,r) problem across a mutation of its filtered graph. It repairs
// the maintained core numbers around the changed edges (see
// kcore.Repair), discovers the affected candidate components by
// walking only the region around the change, and reuses every other
// component object untouched — no O(n+m) re-peeling, no full component
// scan. When the touched region exceeds d.MaxVisit the call falls back
// to a full recompute that still reuses every component with an
// unchanged vertex set and no touched member (PatchStats.Incremental
// reports which path ran).
//
// filtered must already be dissimilar-edge-filtered under p.Oracle
// (simgraph.PatchFiltered maintains it), and p must carry the same K
// as old and an oracle that agrees with old's on untouched vertex
// pairs. d.AddFiltered/d.DelFiltered must be the exact effective edge
// diff between old's filtered graph and the new one (PatchFiltered
// returns it), and d.Touched must cover their endpoints and every
// attribute-changed vertex. The result is bit-identical to
// PrepareFiltered(filtered, p).
func PatchPreparedDelta(old *Prepared, filtered *graph.Graph, p Params, d PatchDelta) (*Prepared, PatchStats, error) {
	var st PatchStats
	if err := p.validate(); err != nil {
		return nil, st, err
	}
	pr, visited, ok := patchIncremental(old, filtered, p, d, &st)
	if ok {
		st.Incremental = true
		st.CoreVisited = visited
		return pr, st, nil
	}
	full, fst := prepareFull(filtered, p, old, d.Touched)
	fst.CoreVisited = visited // what the abandoned walk cost before giving up
	return full, fst, nil
}

// patchIncremental runs the incremental path; ok=false means the
// caller must fall back to the full recompute (budget exhausted or old
// state unusable).
func patchIncremental(old *Prepared, filtered *graph.Graph, p Params, d PatchDelta, st *PatchStats) (*Prepared, int, bool) {
	n := filtered.N()
	if old == nil || old.coreNums == nil || old.compID == nil ||
		len(old.coreNums) != old.n || old.n > n || len(d.Touched) != n {
		return nil, 0, false
	}
	budget := d.MaxVisit
	if budget <= 0 {
		budget = defaultMaxVisit(n)
	}

	// Nothing changed at all: the filtered graph and every attribute are
	// as before, so the old Prepared is the answer.
	structChange := len(d.AddFiltered) > 0 || len(d.DelFiltered) > 0 || n != old.n
	if !structChange && len(d.AttrVerts) == 0 {
		st.Reused = len(old.probs)
		return old, 0, true
	}

	// 1. Repair the core numbers (copy-on-write: untouched arrays are
	// shared with the old Prepared, including the whole array when the
	// repair turns out to be a net no-op).
	cores := old.coreNums
	visited := 0
	var coreChanged []int32
	if structChange {
		// append copies in one pass (no separate zeroing of the fresh
		// array), which matters at million-vertex scale; the growth case
		// pads with explicit zeros.
		next := append([]int32(nil), old.coreNums...)
		for len(next) < n {
			next = append(next, 0) // grown vertices start at core 0
		}
		ch, v, ok := kcore.Repair(filtered, next, d.AddFiltered, d.DelFiltered, budget)
		visited = v
		if !ok {
			return nil, visited, false
		}
		coreChanged, cores = ch, next
		if len(ch) == 0 && n == old.n {
			cores = old.coreNums
		}
	}

	// 2. Seed the affected-region discovery. Every new component that
	// differs from an old one — split piece, merged group, changed
	// membership — and every component whose cached dissimilarity might
	// be stale provably contains a seed: a changed-edge endpoint still
	// in the k-core, a vertex that entered the k-core, a new-k-core
	// neighbour of a vertex that left it, or an attribute-changed
	// vertex.
	k := int32(p.K)
	seedSet := make(map[int32]bool)
	var seeds []int32
	addSeed := func(v int32) {
		if cores[v] >= k && !seedSet[v] {
			seedSet[v] = true
			seeds = append(seeds, v)
		}
	}
	for _, pr := range d.AddFiltered {
		addSeed(pr[0])
		addSeed(pr[1])
	}
	for _, pr := range d.DelFiltered {
		addSeed(pr[0])
		addSeed(pr[1])
	}
	for _, v := range d.AttrVerts {
		if int(v) < n {
			addSeed(v)
		}
	}
	// Repair reported exactly which vertices it wrote, so membership
	// changes are found without rescanning all n core numbers.
	var leavers []int32
	for _, cv := range coreChanged {
		if int(cv) >= old.n {
			continue // grown vertices are seeded below
		}
		oc, nc := old.coreNums[cv], cores[cv]
		if oc == nc || (oc < k && nc < k) {
			continue
		}
		if nc >= k && oc < k {
			addSeed(cv) // entered the k-core
		} else if oc >= k && nc < k {
			leavers = append(leavers, cv)
		}
	}
	for v := old.n; v < n; v++ {
		addSeed(int32(v)) // grown vertices with immediate k-core membership
	}
	for _, l := range leavers {
		for _, x := range filtered.Neighbors(l) {
			addSeed(x)
		}
	}

	// 3. Region discovery: the full new components containing seeds,
	// found by BFS restricted to the new k-core and charged against the
	// same budget as the repair walk.
	inRegion := make([]bool, n)
	var comps [][]int32
	queue := make([]int32, 0, 64)
	for _, s := range seeds {
		if inRegion[s] {
			continue
		}
		inRegion[s] = true
		queue = append(queue[:0], s)
		comp := []int32{s}
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			visited++
			if visited > budget {
				return nil, visited, false
			}
			for _, v := range filtered.Neighbors(u) {
				if cores[v] >= k && !inRegion[v] {
					inRegion[v] = true
					queue = append(queue, v)
					comp = append(comp, v)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })

	// 4. Retire every old component the change could have reshaped: one
	// with a member inside the region or a member that left the k-core.
	// Everything else survives verbatim — the change provably did not
	// touch its vertex set, its induced edges or its attributes.
	dropped := make(map[int32]bool)
	for _, l := range leavers {
		if id := old.compID[l]; id >= 0 {
			dropped[id] = true
		}
	}
	for _, comp := range comps {
		for _, v := range comp {
			if int(v) < old.n {
				if id := old.compID[v]; id >= 0 {
					dropped[id] = true
				}
			}
		}
	}

	pr := &Prepared{p: p, n: n, coreNums: cores}
	for _, ob := range old.probs {
		if len(ob.orig) > 0 && !dropped[ob.orig[0]] {
			pr.probs = append(pr.probs, ob)
			st.Reused++
		}
	}
	var attrTouched map[int32]bool
	if len(d.AttrVerts) > 0 {
		attrTouched = make(map[int32]bool, len(d.AttrVerts))
		for _, v := range d.AttrVerts {
			attrTouched[v] = true
		}
	}
	var b *builder
	for _, comp := range comps {
		if len(comp) < p.K+1 {
			continue
		}
		ob := probByMin(old.probs, comp[0])
		if ob != nil && reusable(ob, comp, d.Touched) {
			pr.probs = append(pr.probs, ob)
			st.Reused++
			continue
		}
		// A component whose vertex set survived intact with no member's
		// attributes changed keeps its dissimilarity rows — the O(size²)
		// half of a rebuild — and only re-derives the induced adjacency
		// from the new filtered graph.
		if ob != nil && sameVerts(ob, comp) && noneAttrTouched(comp, attrTouched) {
			pr.probs = append(pr.probs, restructureProblem(filtered, ob, comp, d.Touched))
			st.Rebuilt++
			continue
		}
		if b == nil {
			b = newBuilder(filtered, p)
		}
		pr.probs = append(pr.probs, b.build(comp))
		st.Rebuilt++
	}
	// Components are discovered by ComponentsOf in order of smallest
	// vertex; restoring that order keeps the result bit-identical to a
	// fresh PrepareFiltered, including FindMaximum's tie-breaking.
	sort.Slice(pr.probs, func(i, j int) bool { return pr.probs[i].orig[0] < pr.probs[j].orig[0] })

	// 5. Component ids: shared when no assignment changed — including
	// the common single-edge case where the region's components keep
	// their exact membership — otherwise patched for exactly the region
	// and the leavers (every other vertex keeps its component, proven by
	// the seed argument above).
	shareIDs := len(leavers) == 0 && n == old.n
	if shareIDs {
	idCheck:
		for _, comp := range comps {
			id := comp[0]
			if len(comp) < p.K+1 {
				id = -1
			}
			for _, v := range comp {
				if old.compID[v] != id {
					shareIDs = false
					break idCheck
				}
			}
		}
	}
	if shareIDs {
		pr.compID = old.compID
	} else {
		compID := make([]int32, n)
		copy(compID, old.compID)
		for v := old.n; v < n; v++ {
			compID[v] = -1
		}
		for _, l := range leavers {
			compID[l] = -1
		}
		for _, comp := range comps {
			id := comp[0]
			if len(comp) < p.K+1 {
				id = -1
			}
			for _, v := range comp {
				compID[v] = id
			}
		}
		pr.compID = compID
	}

	pr.byDeg = append([]*problem(nil), pr.probs...)
	sort.SliceStable(pr.byDeg, func(i, j int) bool { return pr.byDeg[i].maxDeg > pr.byDeg[j].maxDeg })
	return pr, visited, true
}

// reusable reports whether the old problem covers exactly the new
// component with no touched member. Equal vertex sequences imply equal
// local ids; no touched member implies identical induced adjacency
// (every changed filtered edge has a touched endpoint, so a changed
// internal edge would mark a member) and identical dissimilarity rows
// (attribute changes mark their vertex).
func reusable(ob *problem, comp []int32, touched []bool) bool {
	if len(ob.orig) != len(comp) {
		return false
	}
	for i, v := range comp {
		if ob.orig[i] != v || touched[v] {
			return false
		}
	}
	return true
}

// probByMin finds the problem whose component is identified by the
// smallest vertex v. probs are sorted by orig[0] (discovery order of
// ComponentsOf, restored after every patch), so a binary search keeps
// single-edge patches free of a map over every component.
func probByMin(probs []*problem, v int32) *problem {
	i := sort.Search(len(probs), func(i int) bool { return probs[i].orig[0] >= v })
	if i < len(probs) && probs[i].orig[0] == v {
		return probs[i]
	}
	return nil
}

// sameVerts reports whether the old problem covers exactly the new
// component's vertex sequence (both sorted ascending).
func sameVerts(ob *problem, comp []int32) bool {
	if len(ob.orig) != len(comp) {
		return false
	}
	for i, v := range comp {
		if ob.orig[i] != v {
			return false
		}
	}
	return true
}

// noneAttrTouched reports whether no member of comp had its attributes
// changed in this batch (attrTouched is nil for structure-only rounds).
func noneAttrTouched(comp []int32, attrTouched map[int32]bool) bool {
	if attrTouched == nil {
		return true
	}
	for _, v := range comp {
		if attrTouched[v] {
			return false
		}
	}
	return true
}

// restructureProblem rebuilds one component's local problem after a
// structure-only change that preserved its vertex set. The vertex
// sequence — hence the local id mapping — is ob's; the dissimilarity
// rows, a function of the unchanged vertex set and attributes only,
// are shared outright. Only the adjacency rows of touched vertices are
// re-derived from the new filtered graph, into a fresh buffer (an
// untouched vertex has no incident filtered-edge change, so its
// induced row is ob's row); every other row is shared too.
// Bit-identical to builder.build on the same component without the
// O(size²) pair pass or the O(component edges) adjacency rebuild.
func restructureProblem(filtered *graph.Graph, ob *problem, comp []int32, touched []bool) *problem {
	pr := &problem{k: ob.k, n: ob.n, rows: slices.Clone(ob.rows), orig: ob.orig}
	var w rowWriter
	var moved []int32 // the touched local ids, in the order w holds their rows
	for u, g := range pr.orig {
		if !touched[g] {
			continue
		}
		// Local ids are indexes in the ascending comp, so the row
		// ascends as the neighbours do.
		for _, x := range filtered.Neighbors(g) {
			if l, ok := slices.BinarySearch(comp, x); ok {
				w.bit(int32(l))
			}
		}
		w.end()
		moved = append(moved, int32(u))
	}
	for i, row := range w.rows() {
		pr.rows[moved[i]] = row
	}
	for v := int32(0); v < int32(pr.n); v++ {
		pr.maxDeg = max(pr.maxDeg, rowCount(pr.adjOf(v)))
	}
	return pr
}
