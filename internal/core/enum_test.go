package core

import (
	"math/rand"
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
// and rewind, and prune's fixpoint (checkFixpoint) after each prune.
func TestStateInvariantsDuringSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		inst := randomInstance(rng, 12)
		bud := &budget{}
		for _, prob := range prepare(inst.g, inst.p) {
			for _, retention := range []bool{true, false} {
				st := newState(prob, bud)
				if err := st.checkInvariants(); err != nil {
					t.Fatalf("trial %d initial state: %v", trial, err)
				}
				var walk func(depth, m int)
				walk = func(depth, m int) {
					if depth > 6 || !st.prune(retention, m) {
						return
					}
					if err := st.checkInvariants(); err != nil {
						t.Fatalf("trial %d, retention %t, after prune: %v", trial, retention, err)
					}
					if err := st.checkFixpoint(retention); err != nil {
						t.Fatalf("trial %d, retention %t, after prune: %v", trial, retention, err)
					}
					ch, ok := st.chooseVertex(OrderDegree, 5, retention, false)
					if !ok {
						return
					}
					m = st.mark()
					st.expand(ch.v)
					if err := st.checkInvariants(); err != nil {
						t.Fatalf("trial %d, retention %t, after expand: %v", trial, retention, err)
					}
					walk(depth+1, m)
					st.rewind(m)
					if err := st.checkInvariants(); err != nil {
						t.Fatalf("trial %d, retention %t, after rewind: %v", trial, retention, err)
					}
					st.discard(ch.v)
					walk(depth+1, m)
					st.rewind(m)
					if err := st.checkInvariants(); err != nil {
						t.Fatalf("trial %d, retention %t, after shrink rewind: %v", trial, retention, err)
					}
				}
				walk(0, 0)
				st.release()
			}
		}
	}
}
