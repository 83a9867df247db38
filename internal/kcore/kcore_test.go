package kcore

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"krcore/internal/graph"
)

func clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func TestDecomposeClique(t *testing.T) {
	g := clique(6)
	core := Decompose(g)
	for u, c := range core {
		if c != 5 {
			t.Fatalf("core[%d] = %d, want 5", u, c)
		}
	}
}

func TestDecomposePath(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.Build()
	for u, c := range Decompose(g) {
		if c != 1 {
			t.Fatalf("core[%d] = %d, want 1 on a path", u, c)
		}
	}
}

func TestDecomposeMixed(t *testing.T) {
	// A 4-clique {0,1,2,3} with a pendant path 3-4-5.
	b := graph.NewBuilder(6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	got := Decompose(g)
	want := []int{3, 3, 3, 3, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decompose = %v, want %v", got, want)
	}
	if kc := KCore(g, 3); !reflect.DeepEqual(kc, []int32{0, 1, 2, 3}) {
		t.Fatalf("KCore(3) = %v", kc)
	}
	if kc := KCore(g, 4); kc != nil {
		t.Fatalf("KCore(4) = %v, want empty", kc)
	}
}

func TestDecomposeEmptyAndIsolated(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	got := Decompose(g)
	want := []int{0, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decompose = %v, want %v", got, want)
	}
	if g0 := graph.NewBuilder(0).Build(); len(Decompose(g0)) != 0 {
		t.Fatal("Decompose of empty graph must be empty")
	}
}

// naiveKCore peels by repeated scanning; the reference for Decompose.
func naiveKCore(g *graph.Graph, k int, mask []bool) {
	for {
		removed := false
		for u := 0; u < g.N(); u++ {
			if mask[u] && g.DegreeWithin(int32(u), mask) < k {
				mask[u] = false
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}

func randomGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < extra; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// Property: core numbers from Decompose agree with iterated naive
// peeling: vertex u has core number >= k iff u survives naive k-core
// peeling.
func TestDecomposeMatchesNaive(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 3*n)
		core := Decompose(g)
		maxK := 0
		for _, c := range core {
			if c > maxK {
				maxK = c
			}
		}
		for k := 0; k <= maxK+1; k++ {
			mask := make([]bool, n)
			for u := range mask {
				mask[u] = true
			}
			naiveKCore(g, k, mask)
			for u := 0; u < n; u++ {
				if mask[u] != (core[u] >= k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: every vertex of the k-core has degree >= k inside the k-core
// (the defining invariant), and the k-core is the *maximal* such set:
// adding any removed vertex breaks maximality via its own degree.
func TestKCoreInvariant(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, 3*n)
		k := 1 + rng.Intn(4)
		kc := KCore(g, k)
		in := make([]bool, n)
		for _, u := range kc {
			in[u] = true
		}
		for _, u := range kc {
			if g.DegreeWithin(u, in) < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 20000, 120000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(g)
	}
}
