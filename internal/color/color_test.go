package color

import (
	"math/rand"
	"testing"
	"testing/quick"

	"krcore/internal/clique"
	"krcore/internal/graph"
)

// dissimOf builds the dissimilarity lists of the complement of g: j is
// dissimilar to i iff (i,j) is NOT an edge of g.
func dissimOf(g *graph.Graph) [][]int32 {
	n := g.N()
	out := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !g.HasEdge(int32(i), int32(j)) {
				out[i] = append(out[i], int32(j))
			}
		}
	}
	return out
}

// Property: ColorsComplement on dissim(g) produces a proper colouring
// count for g itself, i.e. it upper-bounds g's max clique. We check the
// clique bound, the complete and edgeless extremes, and agreement under
// an active subset.
func TestColorsComplementBoundsClique(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		return ColorsComplement(dissimOf(g), nil, n) >= clique.MaxCliqueSize(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a limit below the whole count stops the count at limit+1,
// so ColorsComplement with limit l is min(count, l+1).
func TestColorsComplementLimit(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		dis := dissimOf(b.Build())
		whole := ColorsComplement(dis, nil, n)
		for limit := 0; limit <= n; limit++ {
			if ColorsComplement(dis, nil, limit) != min(whole, limit+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestColorsComplementExtremes(t *testing.T) {
	// Complete graph: empty dissim lists -> every vertex needs its own colour.
	n := 6
	dis := make([][]int32, n)
	if got := ColorsComplement(dis, nil, len(dis)); got != n {
		t.Fatalf("complete graph colours = %d, want %d", got, n)
	}
	// Edgeless graph: everyone dissimilar -> one colour suffices.
	for i := range dis {
		for j := 0; j < n; j++ {
			if j != i {
				dis[i] = append(dis[i], int32(j))
			}
		}
	}
	if got := ColorsComplement(dis, nil, len(dis)); got != 1 {
		t.Fatalf("edgeless graph colours = %d, want 1", got)
	}
}

func TestColorsComplementActiveSubset(t *testing.T) {
	// 4 vertices, 0-1 similar, everything else dissimilar. Restricted to
	// {0,1} the complement graph is one edge: needs 2 colours; restricted
	// to {2,3}: 1 colour.
	dis := [][]int32{
		{2, 3},
		{2, 3},
		{0, 1, 3},
		{0, 1, 2},
	}
	if got := ColorsComplement(dis, []int32{0, 1}, 2); got != 2 {
		t.Fatalf("active {0,1} colours = %d, want 2", got)
	}
	if got := ColorsComplement(dis, []int32{2, 3}, 2); got != 1 {
		t.Fatalf("active {2,3} colours = %d, want 1", got)
	}
	if got := ColorsComplement(dis, nil, len(dis)); got != 2 {
		t.Fatalf("all active colours = %d, want 2", got)
	}
}
