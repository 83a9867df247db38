package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"krcore/internal/dataset"
	"krcore/internal/similarity"
)

// TestRowKernelsMatchLists walks search trees the way
// TestStateInvariantsDuringSearch does and, at every node, checks the
// state against its list oracles (checkInvariants, checkFixpoint) and
// runs the row kernels beside their list-walking oracles (listKernels):
// the Δ simulation of both branches of every candidate, the
// (k,k')-core peel with and without its cascade, and early termination
// (Theorem 5). Once per component it also checks the rows themselves
// against the lists. The random instances have 10–700 vertices, so
// their rows span one to eleven words; the presets add the components
// the serving paths search, and the large sparse component of the
// benchmarks rows 30 words wide, few of them nonzero.
func TestRowKernelsMatchLists(t *testing.T) {
	type component struct {
		p     *problem
		nodes int // search nodes to compare at
	}
	var comps []component
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(691)
		inst := geoInstanceOfSize(rng, n)
		if trial%2 == 1 {
			inst = keywordInstanceOfSize(rng, n)
		}
		for _, p := range prepare(inst.g, inst.p) {
			comps = append(comps, component{p, 40})
		}
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
		for _, p := range prepare(d.Graph, Params{K: 5, Oracle: similarity.NewOracle(d.Metric(), r)}) {
			comps = append(comps, component{p, 40})
		}
	}
	sparse := largeSparseInstance()
	biggest := largest(t, prepare(sparse.g, sparse.p))
	if w := rowWords(biggest.n); w != 30 {
		t.Fatalf("the large sparse component has rows %d words wide, want 30", w)
	}
	comps = append(comps, component{biggest, 3})

	var cover kernelCover
	for i, c := range comps {
		st := newState(c.p, &budget{})
		compareRows(t, i, st)
		lists := newListKernels(c.p.n)
		nodes := 0
		var walk func(depth, m int)
		walk = func(depth, m int) {
			if depth > 5 || nodes >= c.nodes || !st.prune(true, m) {
				return
			}
			nodes++
			if err := st.checkInvariants(); err != nil {
				t.Fatalf("component %d after prune: %v", i, err)
			}
			if err := st.checkFixpoint(true); err != nil {
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
			if err := st.checkInvariants(); err != nil {
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
			lists := newListKernels(p.n)
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

// compareRows fails t unless every row of st holds exactly the members
// of its list, in list order, in no more entries than the list has
// elements.
func compareRows(t *testing.T, comp int, st *state) {
	t.Helper()
	for v := int32(0); v < int32(st.p.n); v++ {
		for _, r := range []struct {
			name string
			row  []rowEntry
			list []int32
		}{{"adjacency", st.adjOf(v), st.p.adj[v]}, {"dissimilarity", st.disOf(v), st.p.dissim[v]}} {
			var got []int32
			for _, e := range r.row {
				for x := e.w; x != 0; x &= x - 1 {
					got = append(got, e.i<<6|int32(bits.TrailingZeros64(x)))
				}
			}
			if len(r.row) > len(r.list) || !slices.Equal(got, r.list) {
				t.Fatalf("component %d, v=%d: %s row holds %v in %d entries, list %v",
					comp, v, r.name, got, len(r.row), r.list)
			}
		}
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
		tightNeighbour := slices.ContainsFunc(st.p.adj[v], func(u int32) bool {
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

// listKernels walks a state's adjacency and dissimilarity lists to
// compute what simulateBranch, simPeelBound and earlyTerminate compute
// on its rows and masks, with scratch of its own.
type listKernels struct {
	epoch               int32
	degMC, dpC          []int32 // by list walks at the node (count)
	mark, deg, degEpoch []int32
	removed             []int32
	inH, inW, seen      []bool
	sdeg, degW, queue   []int32
	bins                binQueue
}

func newListKernels(n int) *listKernels {
	return &listKernels{
		degMC:    make([]int32, n),
		dpC:      make([]int32, n),
		mark:     make([]int32, n),
		deg:      make([]int32, n),
		degEpoch: make([]int32, n),
		inH:      make([]bool, n),
		inW:      make([]bool, n),
		seen:     make([]bool, n),
		sdeg:     make([]int32, n),
		degW:     make([]int32, n),
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
		a, d := statusCounts(s, s.p.adj[v]), statusCounts(s, s.p.dissim[v])
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
		for _, d := range s.p.dissim[v] {
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
			for _, nb := range s.p.adj[r] {
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
		for _, d := range s.p.dissim[v] {
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
			for _, d := range s.p.dissim[u] {
				if inH[d] {
					q.raise(d)
				}
			}
			for _, nb := range s.p.adj[u] {
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
		a, d := statusCounts(s, s.p.adj[v]), statusCounts(s, s.p.dissim[v])
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
		d := statusCounts(s, s.p.adj[v])[statusM]
		for _, nb := range s.p.adj[v] {
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
		for _, nb := range s.p.adj[v] {
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
		for _, nb := range s.p.adj[v] {
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
