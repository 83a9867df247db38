package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"krcore/internal/binenc"
	"krcore/internal/bitset"
	"krcore/internal/dataset"
	"krcore/internal/graph"
	"krcore/internal/similarity"
)

// oracleComponent is a prepared component, its lists built by
// oracleLists, and how many search nodes TestRowKernelsMatchLists
// compares the kernels at.
type oracleComponent struct {
	p     *problem
	lists *problemLists
	nodes int
}

// kernelComponents prepares the components the row tests check: 40
// random instances of 10–700 vertices, so rows one to eleven words
// wide; the four presets at k = 5 and their default r, the components
// the serving paths search; and the large sparse component of the
// benchmarks, its rows 30 words wide with few of them nonzero.
func kernelComponents(t *testing.T) []oracleComponent {
	t.Helper()
	var comps []oracleComponent
	add := func(g *graph.Graph, p Params, nodes int) {
		for _, prob := range prepare(g, p) {
			comps = append(comps, oracleComponent{prob, oracleLists(g, p.Oracle, prob), nodes})
		}
	}
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(691)
		inst := geoInstanceOfSize(rng, n)
		if trial%2 == 1 {
			inst = keywordInstanceOfSize(rng, n)
		}
		add(inst.g, inst.p, 40)
	}
	widths := map[int]bool{}
	wide := false
	for _, c := range comps {
		w := rowWords(c.p.n)
		widths[w] = true
		wide = wide || w >= 8
	}
	for w := 1; w <= 5; w++ {
		if !widths[w] {
			t.Fatalf("no random component has rows %d words wide", w)
		}
	}
	if !wide {
		t.Fatal("no random component has rows 8 or more words wide")
	}
	for _, preset := range []string{"brightkite", "gowalla", "dblp", "pokec"} {
		d, err := dataset.Load(preset)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.DefaultThreshold()
		if err != nil {
			t.Fatal(err)
		}
		add(d.Graph, Params{K: 5, Oracle: similarity.NewOracle(d.Metric(), r)}, 40)
	}
	sparse := largeSparseInstance()
	biggest := largest(t, prepare(sparse.g, sparse.p))
	if w := rowWords(biggest.n); w != 30 {
		t.Fatalf("the large sparse component has rows %d words wide, want 30", w)
	}
	comps = append(comps, oracleComponent{biggest, oracleLists(sparse.g, sparse.p.Oracle, biggest), 3})
	return comps
}

// TestRowsMatchOracle checks the rows preparation writes against lists
// built without it (oracleLists): on the components kernelComponents
// prepares, and on the dataset presets' components after a snapshot
// round trip (AppendPrepared, DecodePrepared), which rebuilds the rows
// from the lists it reads.
func TestRowsMatchOracle(t *testing.T) {
	for i, c := range kernelComponents(t) {
		compareRows(t, fmt.Sprintf("component %d", i), c.p, c.lists)
	}
	for _, preset := range []string{"brightkite", "gowalla", "dblp", "pokec"} {
		d, err := dataset.Load(preset)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.DefaultThreshold()
		if err != nil {
			t.Fatal(err)
		}
		o := similarity.NewOracle(d.Metric(), r)
		filtered := FilterDissimilar(d.Graph, o)
		pr, err := PrepareFiltered(filtered, Params{K: 4, Oracle: o})
		if err != nil {
			t.Fatal(err)
		}
		var b binenc.Buffer
		AppendPrepared(&b, pr)
		got, err := DecodePrepared(binenc.NewReader(b.Bytes()), o, d.Graph.N(), filtered, true)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsAgainstOracle(t, preset+" decoded", got, d.Graph, o)
	}
}

// TestRowsSmallerThanLists checks, on each dataset preset at its
// default r and k = 4–6, that the components' rows take fewer bytes
// than their oracle lists would: 24 bytes per slice header and 16 per
// row entry against 24 per header and 4 per list element.
func TestRowsSmallerThanLists(t *testing.T) {
	const header, entry, element = 24, 16, 4
	oracles := map[string]*similarity.Oracle{}
	for _, preset := range []string{"brightkite", "gowalla", "dblp", "pokec"} {
		d, err := dataset.Load(preset)
		if err != nil {
			t.Fatal(err)
		}
		var rowBytes, listBytes int
		for k := 4; k <= 6; k++ {
			for _, p := range presetPrepared(t, oracles, preset, k).probs {
				l := oracleLists(d.Graph, oracles[preset], p)
				rowBytes += header * len(p.rows)
				for _, row := range p.rows {
					rowBytes += entry * len(row)
				}
				for _, lists := range [][][]int32{l.adj, l.dissim} {
					for _, list := range lists {
						listBytes += header + element*len(list)
					}
				}
			}
		}
		t.Logf("%s, k = 4–6: rows %d bytes, lists %d bytes", preset, rowBytes, listBytes)
		if rowBytes >= listBytes {
			t.Errorf("%s, k = 4–6: rows take %d bytes, lists %d", preset, rowBytes, listBytes)
		}
	}
}

// checkRowsAgainstOracle fails t unless every component of pr, prepared
// on g (or on g filtered) with the oracle o, holds the rows of its
// oracle lists.
func checkRowsAgainstOracle(t *testing.T, what string, pr *Prepared, g *graph.Graph, o *similarity.Oracle) {
	t.Helper()
	for i, p := range pr.probs {
		compareRows(t, fmt.Sprintf("%s, component %d", what, i), p, oracleLists(g, o, p))
	}
}

// TestRowKernelsMatchLists walks search trees the way
// TestStateInvariantsDuringSearch does on the components
// kernelComponents prepares and, at every node, checks the state
// against the components' oracle lists (checkInvariants,
// checkFixpoint) and runs the row kernels beside their list-walking
// oracles (listKernels): the Δ simulation of both branches of every
// candidate, the (k,k')-core peel with and without its cascade, and
// early termination (Theorem 5).
func TestRowKernelsMatchLists(t *testing.T) {
	var cover kernelCover
	for i, c := range kernelComponents(t) {
		st := newState(c.p, &budget{})
		lists := newListKernels(c.lists)
		nodes := 0
		var walk func(depth, m int)
		walk = func(depth, m int) {
			if depth > 5 || nodes >= c.nodes || !st.prune(true, m) {
				return
			}
			nodes++
			if err := st.checkInvariants(c.lists); err != nil {
				t.Fatalf("component %d after prune: %v", i, err)
			}
			if err := st.checkFixpoint(c.lists, true); err != nil {
				t.Fatalf("component %d after prune: %v", i, err)
			}
			compareKernels(t, i, st, lists, &cover)
			ch, ok := st.chooseVertex(OrderDelta1ThenDelta2, 5, true, false)
			if !ok {
				return
			}
			m = st.mark()
			st.expand(ch.v)
			walk(depth+1, m)
			st.rewind(m)
			st.discard(ch.v)
			walk(depth+1, m)
			st.rewind(m)
			if err := st.checkInvariants(c.lists); err != nil {
				t.Fatalf("component %d after rewind: %v", i, err)
			}
		}
		walk(0, 0)
		st.release()
	}
	if cover.shortcut == 0 || cover.waves == 0 {
		t.Fatalf("shrink simulations: %d took the shortcut and %d ran the waves, want both", cover.shortcut, cover.waves)
	}
	if cover.terminated == 0 {
		t.Fatal("early termination held at no node")
	}
}

// kernelCover counts the shrink simulations compareKernels ran whose
// vertex has no candidate neighbour with deg(·, M∪C) ≤ k, which
// simulateBranch answers without a wave, and those whose vertex has
// one, which run the two waves; and the nodes where early termination
// holds.
type kernelCover struct{ shortcut, waves, terminated int }

// maxFuzzSteps caps FuzzSearchDecisions' branch paths: a node of a
// 192-vertex component checks every threshold of every bound kind.
const maxFuzzSteps = 12

// FuzzSearchDecisions walks one branch path of the search on each
// component of a random instance of 8–192 vertices, so rows one to
// three words wide, the path's bytes choosing each branching vertex and
// branch, for at most maxFuzzSteps branches. At every node it checks the
// bound decisions against the exact bounds (checkBoundDecisions) and
// the row kernels against their list oracles (compareKernels).
func FuzzSearchDecisions(f *testing.F) {
	f.Add(int64(1), uint8(30), false, []byte{0, 3, 4, 9, 1})
	f.Add(int64(2), uint8(120), true, []byte{255, 6, 17, 0, 0, 2})
	f.Add(int64(3), uint8(184), false, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(int64(4), uint8(70), true, []byte{})
	// Early termination holds through a survivor whose degree counts
	// excluded vertices the peel removes first.
	f.Add(int64(4), uint8(37), true, []byte("a'\xadZC2"))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, keywords bool, path []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(size)%185
		inst := geoInstanceOfSize(rng, n)
		if keywords {
			inst = keywordInstanceOfSize(rng, n)
		}
		var cover kernelCover // one input need not reach both kinds
		for i, p := range prepare(inst.g, inst.p) {
			st := newState(p, &budget{})
			lists := newListKernels(oracleLists(inst.g, inst.p.Oracle, p))
			for step, m := 0, 0; st.prune(true, m); step++ {
				checkBoundDecisions(t, fmt.Sprintf("component %d, step %d", i, step), st)
				compareKernels(t, i, st, lists, &cover)
				if st.cntC == 0 || step == min(len(path), maxFuzzSteps) {
					break
				}
				b := path[step]
				v := nextBit(st.maskC, 0)
				for j := int(b>>1) % st.cntC; j > 0; j-- {
					v = nextBit(st.maskC, v+1)
				}
				m = st.mark()
				if b&1 == 0 {
					st.expand(v)
				} else {
					st.discard(v)
				}
			}
			st.release()
		}
	})
}

// compareRows fails t unless p has one adjacency and one dissimilarity
// row per vertex, each holding exactly the members of its list in l in
// no more entries than the list has elements, and unless p's maxDeg is
// the longest adjacency list's length.
func compareRows(t *testing.T, what string, p *problem, l *problemLists) {
	t.Helper()
	if len(p.rows) != 2*p.n || len(l.adj) != p.n {
		t.Fatalf("%s: %d rows and %d lists for %d vertices", what, len(p.rows), len(l.adj), p.n)
	}
	maxDeg := 0
	for v := int32(0); v < int32(p.n); v++ {
		maxDeg = max(maxDeg, len(l.adj[v]))
		for _, r := range []struct {
			name string
			row  []bitset.Entry
			list []int32
		}{{"adjacency", p.rows[v], l.adj[v]}, {"dissimilarity", p.rows[p.n+int(v)], l.dissim[v]}} {
			var got []int32
			for _, e := range r.row {
				for x := e.W; x != 0; x &= x - 1 {
					got = append(got, e.I<<6|int32(bits.TrailingZeros64(x)))
				}
			}
			if len(r.row) > len(r.list) || !slices.Equal(got, r.list) {
				t.Fatalf("%s, v=%d: %s row holds %v in %d entries, list %v",
					what, v, r.name, got, len(r.row), r.list)
			}
		}
	}
	if p.maxDeg != maxDeg {
		t.Fatalf("%s: maxDeg %d, longest adjacency list %d", what, p.maxDeg, maxDeg)
	}
}

// compareKernels fails t unless st's row kernels agree with the list
// oracles at the current node, and counts its shrink simulations and
// early terminations in cover.
func compareKernels(t *testing.T, comp int, st *state, lists *listKernels, cover *kernelCover) {
	t.Helper()
	st.countCandidates()
	lists.count(st)
	for v := int32(0); v < int32(st.p.n); v++ {
		if !st.eligible(v, false) { // every candidate, a superset of the eligible ones
			continue
		}
		tightNeighbour := slices.ContainsFunc(lists.adj[v], func(u int32) bool {
			return st.status[u] == statusC && lists.degMC[u] <= int32(st.p.k)
		})
		if tightNeighbour {
			cover.waves++
		} else {
			cover.shortcut++
		}
		for _, expand := range []bool{true, false} {
			if rows, list := st.simulateBranch(v, expand), lists.simulate(st, v, expand); rows != list {
				t.Fatalf("component %d, v=%d, expand=%t: rows simulate %+v, lists %+v", comp, v, expand, rows, list)
			}
		}
	}
	for _, structural := range []bool{true, false} {
		if rows, list := st.simPeelBound(structural, -1), lists.peel(st, structural); rows != list {
			t.Fatalf("component %d, structural=%t: rows bound %d, lists %d", comp, structural, rows, list)
		}
	}
	rows, list := st.earlyTerminate(), lists.earlyTerminate(st)
	if rows != list {
		t.Fatalf("component %d: rows early termination %t, lists %t", comp, rows, list)
	}
	if rows {
		cover.terminated++
	}
}

// listKernels walks a component's oracle lists to compute what
// simulateBranch, simPeelBound and earlyTerminate compute on its rows
// and masks, with scratch of its own.
type listKernels struct {
	*problemLists
	epoch               int32
	degMC, dpC          []int32 // by list walks at the node (count)
	mark, deg, degEpoch []int32
	removed             []int32
	inH, inW, seen      []bool
	sdeg, degW, queue   []int32
	bins                binQueue
}

func newListKernels(l *problemLists) *listKernels {
	n := len(l.adj)
	return &listKernels{
		problemLists: l,
		degMC:        make([]int32, n),
		dpC:          make([]int32, n),
		mark:         make([]int32, n),
		deg:          make([]int32, n),
		degEpoch:     make([]int32, n),
		inH:          make([]bool, n),
		inW:          make([]bool, n),
		seen:         make([]bool, n),
		sdeg:         make([]int32, n),
		degW:         make([]int32, n),
		bins: binQueue{
			key:  make([]int32, n),
			pos:  make([]int32, n),
			vert: make([]int32, n),
			bin:  make([]int32, n+1),
		},
	}
}

// count fills degMC and dpC by walking every vertex's lists at the
// current node of s, as countCandidates does on the rows.
func (l *listKernels) count(s *state) {
	for v := range l.degMC {
		a, d := statusCounts(s, l.adj[v]), statusCounts(s, l.dissim[v])
		l.degMC[v], l.dpC[v] = a[statusM]+a[statusC], d[statusC]
	}
}

// simulate is simulateBranch on the lists: a wave walks the adjacency
// lists of its frontier, lowering a tentative degree per neighbour and
// marking a candidate removed when it drops below k. A marked candidate
// is lowered no further, so W2 is decided against S∪W1 alone here too.
func (l *listKernels) simulate(s *state, v int32, expandBranch bool) branchSim {
	l.epoch++
	ep := l.epoch
	removed := l.removed[:0]
	markRemoved := func(u int32) {
		if l.mark[u] != ep {
			l.mark[u] = ep
			removed = append(removed, u)
		}
	}
	tentDeg := func(u int32) int32 {
		if l.degEpoch[u] != ep {
			l.degEpoch[u] = ep
			l.deg[u] = l.degMC[u]
		}
		return l.deg[u]
	}
	if expandBranch {
		for _, d := range l.dissim[v] {
			if s.status[d] == statusC {
				markRemoved(d)
			}
		}
	} else {
		markRemoved(v)
	}
	frontier := removed
	for wave := 0; wave < 2 && len(frontier) > 0; wave++ {
		start := len(removed)
		for _, r := range frontier {
			for _, nb := range l.adj[r] {
				if s.status[nb] != statusC || l.mark[nb] == ep {
					continue
				}
				d := tentDeg(nb) - 1
				l.deg[nb] = d
				if d < int32(s.p.k) {
					markRemoved(nb)
				}
			}
		}
		frontier = removed[start:]
	}
	l.removed = removed[:0]
	var pairLoss, edgeLoss int64
	for _, r := range removed {
		pairLoss += int64(l.dpC[r])
		edgeLoss += int64(l.degMC[r])
	}
	return s.deltas(pairLoss, edgeLoss)
}

// peel is simPeelBound on the lists.
func (l *listKernels) peel(s *state, structural bool) int {
	h := listMembers(s, statusM, statusC)
	n := len(h)
	if n == 0 {
		return 0
	}
	inH := l.inH
	clear(inH)
	for _, v := range h {
		inH[v] = true
	}
	q, sdeg := l.bins, l.sdeg
	for _, v := range h {
		dIn := int32(0)
		for _, d := range l.dissim[v] {
			if inH[d] {
				dIn++
			}
		}
		q.key[v] = int32(n) - 1 - dIn
		sdeg[v] = l.degMC[v]
	}
	q.sort(h)
	removedTotal := int32(0)
	kPrime := int32(0)
	queue := l.queue[:0]
	for _, v := range q.vert[:n] {
		if !inH[v] {
			continue
		}
		if eff := q.key[v] - removedTotal; eff > kPrime {
			kPrime = eff
		}
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if !inH[u] {
				continue
			}
			inH[u] = false
			removedTotal++
			for _, d := range l.dissim[u] {
				if inH[d] {
					q.raise(d)
				}
			}
			for _, nb := range l.adj[u] {
				if !inH[nb] {
					continue
				}
				sdeg[nb]--
				if structural && sdeg[nb] < int32(s.p.k) {
					queue = append(queue, nb)
				}
			}
		}
	}
	l.queue = queue[:0]
	return int(kPrime) + 1
}

// earlyTerminate is Theorem 5 on the lists: condition (i) from list
// counts, and condition (ii) as a queue peel of the eligible excluded
// vertices W on per-vertex degrees in M∪W, then a walk from M inside M
// and the survivors. After dropping the survivors the walk does not
// reach it re-checks the degrees of the rest, a check earlyTerminate
// leaves out because it cannot fail: a survivor's neighbours among the
// survivors are reached with it.
func (l *listKernels) earlyTerminate(s *state) bool {
	k := int32(s.p.k)
	inW, degW := l.inW, l.degW
	clear(inW)
	var w []int32
	for _, v := range listMembers(s, statusE) {
		a, d := statusCounts(s, l.adj[v]), statusCounts(s, l.dissim[v])
		if d[statusC] != 0 {
			continue
		}
		if a[statusM] >= k {
			return true
		}
		if d[statusE] == 0 {
			w = append(w, v)
			inW[v] = true
		}
	}
	if len(w) == 0 {
		return false
	}
	degIn := func(v int32) int32 {
		d := statusCounts(s, l.adj[v])[statusM]
		for _, nb := range l.adj[v] {
			if inW[nb] {
				d++
			}
		}
		return d
	}
	for _, v := range w {
		degW[v] = degIn(v)
	}
	queue := l.queue[:0]
	for _, v := range w {
		if degW[v] < k {
			queue = append(queue, v)
			inW[v] = false
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, nb := range l.adj[v] {
			if !inW[nb] {
				continue
			}
			if degW[nb]--; degW[nb] < k {
				inW[nb] = false
				queue = append(queue, nb)
			}
		}
	}
	// Walk from every vertex of M inside M and the survivors.
	seen := l.seen
	clear(seen)
	queue = append(queue[:0], listMembers(s, statusM)...)
	for _, v := range queue {
		seen[v] = true
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, nb := range l.adj[v] {
			if !seen[nb] && (inW[nb] || s.status[nb] == statusM) {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	l.queue = queue[:0]
	attached, dropped := false, false
	for _, v := range w {
		if inW[v] && seen[v] {
			attached = true
		} else if inW[v] {
			inW[v] = false
			dropped = true
		}
	}
	if !attached {
		return false
	}
	if dropped {
		for _, v := range w {
			if inW[v] && degIn(v) < k {
				return false
			}
		}
	}
	return true
}
