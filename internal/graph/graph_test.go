package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func buildPath(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop dropped
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 1 || g.Degree(3) != 1 {
		t.Fatalf("unexpected degrees: %d %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2), g.Degree(3))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) || g.HasEdge(2, 2) {
		t.Fatal("HasEdge gave wrong answers")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph should have all-zero statistics")
	}
	if comps := g.ComponentsOf(nil); len(comps) != 0 {
		t.Fatalf("empty graph has %d components, want 0", len(comps))
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	g := b.Build()
	want := []int32{1, 2, 3, 4}
	if !reflect.DeepEqual(g.Neighbors(0), want) {
		t.Fatalf("Neighbors(0) = %v, want %v", g.Neighbors(0), want)
	}
}

func TestEdgesIteration(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	var got [][2]int32
	g.Edges(func(u, v int32) { got = append(got, [2]int32{u, v}) })
	if len(got) != 4 {
		t.Fatalf("iterated %d edges, want 4", len(got))
	}
	for _, e := range got {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not emitted with u < v", e)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5)
	g := b.Build()
	comps := g.ComponentsOf(nil)
	want := [][]int32{{0, 1, 2}, {3}, {4, 5}, {6}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
}

func TestComponentsOfSubset(t *testing.T) {
	g := buildPath(6) // 0-1-2-3-4-5
	comps := g.ComponentsOf([]int32{0, 1, 3, 4, 5})
	want := [][]int32{{0, 1}, {3, 4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
	if g.IsConnectedSubset([]int32{0, 1, 3}) {
		t.Fatal("subset {0,1,3} of a path should be disconnected")
	}
	if !g.IsConnectedSubset([]int32{2, 3, 4}) {
		t.Fatal("subset {2,3,4} of a path should be connected")
	}
	if !g.IsConnectedSubset(nil) || !g.IsConnectedSubset([]int32{2}) {
		t.Fatal("empty and singleton subsets are connected by definition")
	}
}

func TestInduced(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 0)
	g := b.Build() // 5-cycle
	local := make([]int32, g.N())
	sub, orig := g.Induced([]int32{0, 1, 2, 4}, local)
	if sub.N() != 4 {
		t.Fatalf("induced N = %d, want 4", sub.N())
	}
	// Edges among {0,1,2,4}: (0,1),(1,2),(4,0) -> 3 edges.
	if sub.M() != 3 {
		t.Fatalf("induced M = %d, want 3", sub.M())
	}
	if !reflect.DeepEqual(orig, []int32{0, 1, 2, 4}) {
		t.Fatalf("orig mapping = %v", orig)
	}
	// local ids: 0->0, 1->1, 2->2, 4->3
	if !sub.HasEdge(0, 3) || sub.HasEdge(2, 3) {
		t.Fatal("induced adjacency wrong")
	}
	// The scratch comes back all zero, so it serves the next call.
	if !reflect.DeepEqual(local, make([]int32, g.N())) {
		t.Fatalf("scratch left as %v", local)
	}
	sub2, _ := g.Induced([]int32{2, 3, 4}, local)
	if sub2.M() != 2 || !sub2.HasEdge(0, 1) || !sub2.HasEdge(1, 2) || sub2.HasEdge(0, 2) {
		t.Fatal("induced adjacency wrong on a reused scratch")
	}
}

func TestInducedUnsortedPanics(t *testing.T) {
	g := buildPath(4)
	for _, vs := range [][]int32{{0, 2, 1}, {1, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Induced(%v) must panic: the vertices do not ascend strictly", vs)
				}
			}()
			g.Induced(vs, make([]int32, g.N()))
		}()
	}
}

func TestFilterEdges(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	f := g.FilterEdges(func(u, v int32) bool { return u != 1 && v != 1 })
	if f.M() != 1 || !f.HasEdge(2, 3) || f.HasEdge(0, 1) {
		t.Fatalf("filtered graph wrong: M=%d", f.M())
	}
	if f.N() != g.N() {
		t.Fatal("FilterEdges must preserve the vertex set")
	}
}

// TestKeepEdgesMatchesRebuild checks the mask filter and FilterEdges
// against a graph rebuilt from the kept edges by the Builder, which
// sorts and deduplicates independently.
func TestKeepEdgesMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		keep := func(u, v int32) bool { return (u+v)%3 != 0 }
		mask := make([]bool, 0, g.M())
		rb := NewBuilder(n)
		g.Edges(func(u, v int32) {
			mask = append(mask, keep(u, v))
			if keep(u, v) {
				rb.AddEdge(v, u)
			}
		})
		want := rb.Build()
		for name, got := range map[string]*Graph{"KeepEdges": g.KeepEdges(mask), "FilterEdges": g.FilterEdges(keep)} {
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("trial %d %s: N/M mismatch: %d/%d vs %d/%d", trial, name, got.N(), got.M(), want.N(), want.M())
			}
			for u := 0; u < n; u++ {
				gn, wn := got.Neighbors(int32(u)), want.Neighbors(int32(u))
				if len(gn) != len(wn) {
					t.Fatalf("trial %d %s: degree mismatch at %d", trial, name, u)
				}
				for i := range wn {
					if gn[i] != wn[i] {
						t.Fatalf("trial %d %s: neighbours differ at %d: %v vs %v", trial, name, u, gn, wn)
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a mask of the wrong length must panic")
		}
	}()
	buildPath(3).KeepEdges([]bool{true})
}

func TestDegreeWithin(t *testing.T) {
	g := buildPath(5)
	in := []bool{true, true, false, true, true}
	if d := g.DegreeWithin(1, in); d != 1 {
		t.Fatalf("DegreeWithin(1) = %d, want 1", d)
	}
	if d := g.DegreeWithin(3, in); d != 1 {
		t.Fatalf("DegreeWithin(3) = %d, want 1", d)
	}
}

// Property: for random graphs, the sum of degrees equals 2M and all
// neighbor lists are sorted, deduplicated and symmetric.
func TestRandomGraphInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		sum := 0
		for u := 0; u < n; u++ {
			nb := g.Neighbors(int32(u))
			sum += len(nb)
			if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
				return false
			}
			for i, v := range nb {
				if i > 0 && v == nb[i-1] {
					return false // duplicate
				}
				if v == int32(u) {
					return false // self loop
				}
				if !g.HasEdge(v, int32(u)) {
					return false // asymmetric
				}
			}
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: components partition the vertex set and every component is
// internally connected.
func TestComponentsPartitionProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		comps := g.ComponentsOf(nil)
		seen := make([]bool, n)
		total := 0
		for _, c := range comps {
			total += len(c)
			for _, v := range c {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			if !g.IsConnectedSubset(c) {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
