package krcore

import (
	"testing"
	"time"
)

// buildTwoGroups wires the quickstart topology: two dense similar
// groups bridged by one structural edge.
func buildTwoGroups() (*Graph, *KeywordAttributes) {
	b := NewGraphBuilder(9)
	groups := [][]int32{{0, 1, 2, 3, 4}, {5, 6, 7, 8}}
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				b.AddEdge(g[i], g[j])
			}
		}
	}
	b.AddEdge(4, 5)
	kw := NewKeywordAttributes(9)
	for _, v := range groups[0] {
		kw.Set(v, []int32{1, 2, 3})
	}
	for _, v := range groups[1] {
		kw.Set(v, []int32{10, 11, 12})
	}
	return b.Build(), kw
}

func TestEnumerateMaximalFacade(t *testing.T) {
	g, kw := buildTwoGroups()
	res, err := EnumerateMaximal(g, Params{K: 2, Oracle: kw.JaccardAtLeast(0.5)}, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("got %d cores, want 2: %v", len(res.Cores), res.Cores)
	}
	stats := res.Summarize()
	if stats.MaxSize != 5 || stats.Count != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFindMaximumFacade(t *testing.T) {
	g, kw := buildTwoGroups()
	res, err := FindMaximum(g, Params{K: 2, Oracle: kw.JaccardAtLeast(0.5)}, MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 || len(res.Cores[0]) != 5 {
		t.Fatalf("maximum = %v, want the 5-clique", res.Cores)
	}
}

func TestCliquePlusFacade(t *testing.T) {
	g, kw := buildTwoGroups()
	res, err := CliquePlus(g, Params{K: 2, Oracle: kw.JaccardAtLeast(0.5)}, CliqueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("Clique+ found %d cores, want 2", len(res.Cores))
	}
}

func TestKCoreFacade(t *testing.T) {
	g, _ := buildTwoGroups()
	if got := len(KCore(g, 3)); got != 9 {
		t.Fatalf("3-core size = %d, want 9", got)
	}
	if got := len(KCore(g, 4)); got != 5 {
		t.Fatalf("4-core size = %d, want 5 (only the 5-clique)", got)
	}
	nums := CoreNumbers(g)
	if nums[0] != 4 || nums[8] != 3 {
		t.Fatalf("core numbers = %v", nums)
	}
}

func TestGeoFacade(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	g := b.Build()
	geo := NewGeoAttributes(4)
	geo.Set(0, 0, 0)
	geo.Set(1, 1, 0)
	geo.Set(2, 0, 1)
	geo.Set(3, 100, 100)
	res, err := EnumerateMaximal(g, Params{K: 2, Oracle: geo.WithinDistance(5)}, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 || len(res.Cores[0]) != 3 {
		t.Fatalf("cores = %v, want the triangle", res.Cores)
	}
}

func TestWeightedFacadeAndThreshold(t *testing.T) {
	w := NewWeightedKeywordAttributes(3)
	w.Set(0, []int32{1, 2}, []float64{2, 2})
	w.Set(1, []int32{1, 2}, []float64{2, 2})
	w.Set(2, []int32{9}, nil) // missing weights default to 1
	o := w.WeightedJaccardAtLeast(0.9)
	if !o.Similar(0, 1) || o.Similar(0, 2) {
		t.Fatal("weighted oracle wrong")
	}
	thr := TopPermilleThreshold(w.Metric(), 3, 500)
	if thr < 0 || thr > 1 {
		t.Fatalf("threshold %v out of range", thr)
	}
	if NewOracle(w.Metric(), 0.5) == nil {
		t.Fatal("NewOracle returned nil")
	}
}

// TestBuildIndexFacade exercises the serving-layer pattern: pre-build
// the similarity index once, reuse it across many (k,r) searches, and
// query it directly for bulk similar pairs.
func TestBuildIndexFacade(t *testing.T) {
	g, kw := buildTwoGroups()
	o := kw.JaccardAtLeast(0.5)
	idx := BuildIndex(o)
	if idx == nil {
		t.Fatal("BuildIndex returned nil")
	}
	if BuildIndex(o) != idx {
		t.Fatal("BuildIndex must reuse the attached index")
	}
	// Direct bulk query: inside group one everything is similar, across
	// groups nothing is.
	adj := idx.SimilarAdjacency([]int32{0, 1, 5}, nil)
	if len(adj[0]) != 1 || adj[0][0] != 1 || len(adj[2]) != 0 {
		t.Fatalf("bulk adjacency wrong: %v", adj)
	}
	// Searches with the pre-built index return the usual cores at
	// several k against the same oracle.
	for _, k := range []int{2, 3} {
		res, err := EnumerateMaximal(g, Params{K: k, Oracle: o}, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cores) != 2 {
			t.Fatalf("k=%d: got %d cores, want 2", k, len(res.Cores))
		}
	}
}

func TestFacadeLimits(t *testing.T) {
	g, kw := buildTwoGroups()
	res, err := EnumerateMaximal(g, Params{K: 2, Oracle: kw.JaccardAtLeast(0.5)},
		EnumOptions{Limits: Limits{Deadline: time.Now().Add(time.Minute)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("minute-long budget should not expire on a toy graph")
	}
}
