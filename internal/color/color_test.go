package color

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"krcore/internal/bitset"
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

// rowsOf returns the sparse rows of ascending lists.
func rowsOf(lists [][]int32) [][]bitset.Entry {
	rows := make([][]bitset.Entry, len(lists))
	for v, l := range lists {
		for _, u := range l {
			if last := len(rows[v]) - 1; last >= 0 && rows[v][last].I == u>>6 {
				rows[v][last].W |= 1 << (u & 63)
			} else {
				rows[v] = append(rows[v], bitset.Entry{W: 1 << (u & 63), I: u >> 6})
			}
		}
	}
	return rows
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
		return ColorsComplement(rowsOf(dissimOf(g)), nil, n, new(Scratch)) >= clique.MaxCliqueSize(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a limit below the whole count stops the count at limit+1,
// so ColorsComplement with limit l is min(count, l+1). One Scratch
// serves every call, across graphs of different sizes.
func TestColorsComplementLimit(t *testing.T) {
	var sc Scratch
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		dis := dissimOf(b.Build())
		whole := ColorsComplement(rowsOf(dis), nil, n, &sc)
		for limit := 0; limit <= n; limit++ {
			if ColorsComplement(rowsOf(dis), nil, limit, &sc) != min(whole, limit+1) {
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
	if got := ColorsComplement(rowsOf(dis), nil, len(dis), new(Scratch)); got != n {
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
	if got := ColorsComplement(rowsOf(dis), nil, len(dis), new(Scratch)); got != 1 {
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
	var sc Scratch
	if got := ColorsComplement(rowsOf(dis), []int32{0, 1}, 2, &sc); got != 2 {
		t.Fatalf("active {0,1} colours = %d, want 2", got)
	}
	if got := ColorsComplement(rowsOf(dis), []int32{2, 3}, 2, &sc); got != 1 {
		t.Fatalf("active {2,3} colours = %d, want 1", got)
	}
	if got := ColorsComplement(rowsOf(dis), nil, len(dis), &sc); got != 2 {
		t.Fatalf("all active colours = %d, want 2", got)
	}
}

// referenceColors is the greedy colouring with the vertices ordered by
// a comparison sort on (|dissim(v)|, v) and fresh arrays per call.
func referenceColors(dissim [][]int32, active []int32, limit int) int {
	order := append([]int32(nil), active...)
	inSet := make([]bool, len(dissim))
	for _, u := range order {
		inSet[u] = true
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := len(dissim[order[i]]), len(dissim[order[j]])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	color := make([]int, len(dissim))
	for i := range color {
		color[i] = -1
	}
	var size []int
	maxColor := 0
	for _, u := range order {
		dissimWith := make([]int, maxColor)
		for _, v := range dissim[u] {
			if inSet[v] && color[v] >= 0 {
				dissimWith[color[v]]++
			}
		}
		c := 0
		for c < maxColor && size[c] > dissimWith[c] {
			c++
		}
		color[u] = c
		if c == maxColor {
			if maxColor++; maxColor > limit {
				return maxColor
			}
			size = append(size, 0)
		}
		size[c]++
	}
	return maxColor
}

// Property: on ascending active subsets of random graphs, with every
// limit, the counting sort and a reused Scratch give the count of the
// comparison-sorted colouring.
func TestColorsComplementMatchesReference(t *testing.T) {
	var sc Scratch
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(4*n+1); i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		dis := dissimOf(b.Build())
		active := []int32{} // not nil, which would mean every vertex
		for v := 0; v < n; v++ {
			if rng.Intn(3) > 0 {
				active = append(active, int32(v))
			}
		}
		for limit := 0; limit <= len(active); limit++ {
			if ColorsComplement(rowsOf(dis), active, limit, &sc) != referenceColors(dis, active, limit) {
				return false
			}
		}
		all := make([]int32, n)
		for v := range all {
			all[v] = int32(v)
		}
		return ColorsComplement(rowsOf(dis), nil, n, &sc) == referenceColors(dis, all, n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A warm call, on a Scratch that has seen an input as large, allocates
// nothing.
func TestColorsComplementWarmAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	b := graph.NewBuilder(n)
	for i := 0; i < 20*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	dis := rowsOf(dissimOf(b.Build()))
	active := make([]int32, 0, n)
	for v := 0; v < n; v += 2 {
		active = append(active, int32(v))
	}
	var sc Scratch
	for _, act := range [][]int32{nil, active} {
		ColorsComplement(dis, act, n, &sc)
		if allocs := testing.AllocsPerRun(10, func() { ColorsComplement(dis, act, n, &sc) }); allocs != 0 {
			t.Fatalf("active %d of %d: %.0f allocations per warm call", len(act), n, allocs)
		}
	}
}
