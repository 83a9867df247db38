package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/graph"
	"krcore/internal/similarity"
)

// figure1Instance builds a small analogue of the paper's Figure 1: two
// dense similar groups G1, G2 sharing structure, a structurally-dense
// but dissimilar group, and a similar but sparse group.
func figure1Instance() testInstance {
	// Vertices 0-4: clique, all similar (G1).
	// Vertices 5-8: clique, all similar (G2), vertex 4 bridges them
	//   structurally but 5-8 are dissimilar to 0-3.
	// Vertices 9-12: clique but mutually dissimilar (G5 analogue).
	// Vertices 13-16: all similar but only a path (G4 analogue).
	n := 17
	b := graph.NewBuilder(n)
	cliqueEdges := func(vs []int32) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				b.AddEdge(vs[i], vs[j])
			}
		}
	}
	cliqueEdges([]int32{0, 1, 2, 3, 4})
	cliqueEdges([]int32{5, 6, 7, 8})
	cliqueEdges([]int32{9, 10, 11, 12})
	b.AddEdge(4, 5) // structural bridge
	b.AddEdge(13, 14)
	b.AddEdge(14, 15)
	b.AddEdge(15, 16)
	g := b.Build()

	geo := attr.NewGeo(n)
	for _, v := range []int32{0, 1, 2, 3, 4} {
		geo.SetVertex(v, attr.Point{X: 0, Y: float64(v)})
	}
	for _, v := range []int32{5, 6, 7, 8} {
		geo.SetVertex(v, attr.Point{X: 100, Y: float64(v)})
	}
	for i, v := range []int32{9, 10, 11, 12} {
		geo.SetVertex(v, attr.Point{X: 1000 * float64(i+1), Y: 1000 * float64(i+1)})
	}
	for _, v := range []int32{13, 14, 15, 16} {
		geo.SetVertex(v, attr.Point{X: 500, Y: float64(v)})
	}
	return testInstance{
		g: g,
		p: Params{K: 2, Oracle: similarity.NewOracle(similarity.Euclidean{Store: geo}, 20)},
	}
}

func TestEnumerateFigure1(t *testing.T) {
	inst := figure1Instance()
	res, err := Enumerate(inst.g, inst.p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("unexpected timeout")
	}
	// Expected maximal (2,r)-cores: {0..4}, {5..8}, {13..16}? The path
	// 13-14-15-16 has max degree 2 but endpoint degree 1 < 2, so it is
	// not a 2-core. The dissimilar clique 9-12 fails similarity.
	want := [][]int32{{0, 1, 2, 3, 4}, {5, 6, 7, 8}}
	if !sameCoreSets(res.Cores, want) {
		t.Fatalf("cores = %v, want %v", res.Cores, want)
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	variants := []EnumOptions{
		{}, // AdvEnum defaults
		{Order: OrderDegree},
		{Order: OrderRandom},
		{Order: OrderDelta1},
		{Order: OrderDelta2},
		{Order: OrderLambdaDelta, Lambda: 5},
		{DisableRetention: true},
		{DisableEarlyTermination: true},
		{DisableMaximalCheck: true},
		{DisableRetention: true, DisableEarlyTermination: true, DisableMaximalCheck: true},
		{DisableEarlyTermination: true, DisableMaximalCheck: true},
		{CheckOrder: OrderLambdaDelta},
		{CheckOrder: OrderDelta1ThenDelta2},
	}
	for trial := 0; trial < 160; trial++ {
		inst := randomInstance(rng, 12)
		want, err := BruteForce(inst.g, inst.p)
		if err != nil {
			t.Fatal(err)
		}
		opt := variants[trial%len(variants)]
		res, err := Enumerate(inst.g, inst.p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCoreSets(res.Cores, want) {
			t.Fatalf("trial %d (k=%d, opts=%+v): got %v, want %v",
				trial, inst.p.K, opt, res.Cores, want)
		}
	}
}

func TestEnumerateAllResultsAreValidCores(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng, 18)
		res, err := Enumerate(inst.g, inst.p, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cores {
			if !validCore(inst, c) {
				t.Fatalf("trial %d: invalid core %v", trial, c)
			}
		}
		// No result may contain another.
		for i := range res.Cores {
			for j := range res.Cores {
				if i != j && isSubset(res.Cores[i], res.Cores[j]) {
					t.Fatalf("trial %d: core %v contained in %v", trial, res.Cores[i], res.Cores[j])
				}
			}
		}
	}
}

func TestEnumerateParamValidation(t *testing.T) {
	inst := figure1Instance()
	if _, err := Enumerate(inst.g, Params{K: 0, Oracle: inst.p.Oracle}, EnumOptions{}); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := Enumerate(inst.g, Params{K: 2}, EnumOptions{}); err == nil {
		t.Fatal("nil oracle must be rejected")
	}
}

func TestEnumerateEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	geo := attr.NewGeo(0)
	res, err := Enumerate(g, Params{K: 2, Oracle: similarity.NewOracle(similarity.Euclidean{Store: geo}, 1)}, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 0 || res.TimedOut {
		t.Fatalf("empty graph result: %+v", res)
	}
}

func TestEnumerateNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// A larger instance so the limit actually triggers.
	inst := randomGeoInstance(rng, 18)
	opt := EnumOptions{Limits: Limits{MaxNodes: 1}}
	res, err := Enumerate(inst.g, inst.p, opt)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Enumerate(inst.g, inst.p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Nodes > 1 && !res.TimedOut {
		t.Fatalf("expected TimedOut with MaxNodes=1 (full run took %d nodes)", full.Nodes)
	}
}

func TestSummarize(t *testing.T) {
	r := &Result{Cores: [][]int32{{1, 2, 3}, {4, 5, 6, 7, 8}}}
	s := r.Summarize()
	if s.Count != 2 || s.MaxSize != 5 || s.AvgSize != 4 {
		t.Fatalf("stats = %+v", s)
	}
	empty := (&Result{}).Summarize()
	if empty.Count != 0 || empty.MaxSize != 0 || empty.AvgSize != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

// TestStateInvariantsDuringSearch walks search trees with retention on
// and off and checks the state against its list oracles at every node:
// the counters, masks and sums (checkInvariants) after each transition
// and rewind, and prune's fixpoint (checkFixpoint) after each prune. At
// every leaf (no dissimilar pair left in C) it also checks the maximal
// check's verdicts against brute force and its allocations
// (checkLeafVerdicts).
func TestStateInvariantsDuringSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var cover leafCover
	for trial := 0; trial < 200; trial++ {
		inst := randomInstance(rng, 12)
		bud := &budget{}
		for _, prob := range prepare(inst.g, inst.p) {
			lists := oracleLists(inst.g, inst.p.Oracle, prob)
			for _, retention := range []bool{true, false} {
				st := newState(prob, bud)
				if err := st.checkInvariants(lists); err != nil {
					t.Fatalf("trial %d initial state: %v", trial, err)
				}
				var walk func(depth, m int)
				walk = func(depth, m int) {
					if depth > 6 || !st.prune(retention, m) {
						return
					}
					if err := st.checkInvariants(lists); err != nil {
						t.Fatalf("trial %d, retention %t, after prune: %v", trial, retention, err)
					}
					if err := st.checkFixpoint(lists, retention); err != nil {
						t.Fatalf("trial %d, retention %t, after prune: %v", trial, retention, err)
					}
					if st.sumDpC == 0 {
						checkLeafVerdicts(t, fmt.Sprintf("trial %d, retention %t", trial, retention), inst, lists, st, &cover)
					}
					ch, ok := st.chooseVertex(OrderDegree, 5, retention, false)
					if !ok {
						return
					}
					m = st.mark()
					st.expand(ch.v)
					if err := st.checkInvariants(lists); err != nil {
						t.Fatalf("trial %d, retention %t, after expand: %v", trial, retention, err)
					}
					walk(depth+1, m)
					st.rewind(m)
					if err := st.checkInvariants(lists); err != nil {
						t.Fatalf("trial %d, retention %t, after rewind: %v", trial, retention, err)
					}
					st.discard(ch.v)
					walk(depth+1, m)
					st.rewind(m)
					if err := st.checkInvariants(lists); err != nil {
						t.Fatalf("trial %d, retention %t, after shrink rewind: %v", trial, retention, err)
					}
				}
				walk(0, 0)
				st.release()
			}
		}
	}
	if cover.maximal == 0 || cover.extended == 0 || cover.branched == 0 {
		t.Fatalf("leaf cores checked: %d maximal, %d not, %d checks branched; want each", cover.maximal, cover.extended, cover.branched)
	}
}

// leafCover counts what checkLeafVerdicts checked: the maximal and the
// non-maximal cores, and the checks that branched.
type leafCover struct{ maximal, extended, branched int }

// checkLeafVerdicts runs checkMaximal in each check order on every
// candidate core of at least k+1 vertices at the leaf st is at. It fails
// t unless each verdict matches bruteMaximal's, the check leaves the
// state as it found it (the trail, the statuses, the leaf's cores and
// every counter, checkInvariants), and a check that branches, run
// again, allocates nothing.
func checkLeafVerdicts(t *testing.T, what string, inst testInstance, lists *problemLists, st *state, cover *leafCover) {
	t.Helper()
	st.leafCores()
	leaf, leafEnd := slices.Clone(st.leaf), slices.Clone(st.leafEnd)
	trail, status := len(st.trail), slices.Clone(st.status)
	start := int32(0)
	for _, end := range leafEnd {
		r := leaf[start:end]
		start = end
		if len(r) < st.p.k+1 {
			continue
		}
		want := bruteMaximal(inst, lists, st, r)
		if want {
			cover.maximal++
		} else {
			cover.extended++
		}
		for _, order := range []Order{OrderDegree, OrderRandom, OrderDelta1ThenDelta2, OrderLambdaDelta} {
			nodes := st.bud.count()
			if got := st.checkMaximal(r, order, 0); got != want {
				t.Fatalf("%s, core %v, check order %v: checkMaximal says maximal=%t, brute force %t", what, r, order, got, want)
			}
			if st.bud.count()-nodes > 1 {
				cover.branched++
				if allocs := testing.AllocsPerRun(3, func() { st.checkMaximal(r, order, 0) }); allocs != 0 {
					t.Fatalf("%s, core %v, check order %v: a check that branches makes %.0f allocations", what, r, order, allocs)
				}
			}
			if len(st.trail) != trail || !slices.Equal(st.status, status) ||
				!slices.Equal(st.leaf, leaf) || !slices.Equal(st.leafEnd, leafEnd) {
				t.Fatalf("%s, core %v, check order %v: the check changed the state", what, r, order)
			}
			if err := st.checkInvariants(lists); err != nil {
				t.Fatalf("%s, core %v, check order %v, after the check: %v", what, r, order, err)
			}
		}
	}
}

// TestCheckCoreNeedsConnectivity checks the maximal check's core test
// on M alone: two triangles joined only through a candidate give every
// vertex of M its k = 2 neighbours in M, yet M is no core until the
// candidate joins it.
func TestCheckCoreNeedsConnectivity(t *testing.T) {
	b := graph.NewBuilder(7)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 6}, {6, 3}} {
		b.AddEdge(e[0], e[1])
	}
	geo := attr.NewGeo(7) // every vertex at the origin, so all are similar
	probs := prepare(b.Build(), Params{K: 2, Oracle: similarity.NewOracle(similarity.Euclidean{Store: geo}, 1)})
	if len(probs) != 1 || !slices.Equal(probs[0].orig, []int32{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("want one component of all 7 vertices, got %d components", len(probs))
	}
	st := newState(probs[0], &budget{})
	defer st.release()
	for v := int32(0); v < 6; v++ {
		st.expand(v)
	}
	if st.connectedCoreM() {
		t.Fatal("two triangles joined only through a candidate pass as a connected core")
	}
	st.expand(6)
	if !st.connectedCoreM() {
		t.Fatal("the joined triangles fail as a connected core")
	}
}

// bruteMaximal reports, by trying every subset, whether no non-empty
// set U of E's vertices similar to all of the core r makes r∪U a
// connected (k,r)-core, judged on inst's graph and oracle.
func bruteMaximal(inst testInstance, lists *problemLists, st *state, r []int32) bool {
	var eligible []int32
	for _, v := range listMembers(st, statusE) {
		if !slices.ContainsFunc(lists.dissim[v], func(d int32) bool { return slices.Contains(r, d) }) {
			eligible = append(eligible, v)
		}
	}
	for set := 1; set < 1<<len(eligible); set++ {
		ext := slices.Clone(r)
		for i, v := range eligible {
			if set>>i&1 == 1 {
				ext = append(ext, v)
			}
		}
		if subsetIsCore(inst.g, inst.p, st.p.toGlobal(ext)) {
			return false
		}
	}
	return true
}
