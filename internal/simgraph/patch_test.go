package simgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/graph"
	"krcore/internal/similarity"
)

// scratchFilter filters g's edges through the oracle from scratch — the
// reference PatchFiltered must match bit for bit.
func scratchFilter(g *graph.Graph, o *similarity.Oracle) *graph.Graph {
	return g.FilterEdges(func(u, v int32) bool { return o.Similar(u, v) })
}

func sameGraph(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: got N=%d M=%d, want N=%d M=%d", label, got.N(), got.M(), want.N(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		if fmt.Sprint(got.Neighbors(int32(u))) != fmt.Sprint(want.Neighbors(int32(u))) {
			t.Fatalf("%s: neighbors of %d: got %v, want %v",
				label, u, got.Neighbors(int32(u)), want.Neighbors(int32(u)))
		}
	}
}

// TestPatchFilteredEquivalence mutates a random geo-attributed graph —
// edge churn, attribute moves and vertex growth — and asserts after
// every batch that the patched filtered graph equals a from-scratch
// re-filter of the mutated graph.
func TestPatchFilteredEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(30)
		store := attr.NewGeo(n)
		for u := 0; u < n; u++ {
			store.SetVertex(int32(u), attr.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30})
		}
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		r := 4 + rng.Float64()*10
		oracle := similarity.NewOracle(similarity.Euclidean{Store: store}, r)
		filtered := scratchFilter(g, oracle)

		for batch := 0; batch < 4; batch++ {
			d := graph.NewDelta(g)
			var attrVerts []int32
			seenAttr := map[int32]bool{}
			for op := 0; op < 1+rng.Intn(8); op++ {
				switch rng.Intn(6) {
				case 0:
					nv := d.AddVertex()
					store.Grow(int(nv) + 1)
					store.SetVertex(nv, attr.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30})
					if err := d.AddEdge(nv, int32(rng.Intn(int(nv)))); err != nil {
						t.Fatal(err)
					}
				case 1:
					u := int32(rng.Intn(g.N()))
					if !seenAttr[u] {
						seenAttr[u] = true
						attrVerts = append(attrVerts, u)
					}
					store.SetVertex(u, attr.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30})
				case 2, 3:
					u, v := int32(rng.Intn(d.N())), int32(rng.Intn(d.N()))
					if u != v {
						if err := d.AddEdge(u, v); err != nil {
							t.Fatal(err)
						}
					}
				default:
					u, v := int32(rng.Intn(d.N())), int32(rng.Intn(d.N()))
					if u != v {
						if err := d.RemoveEdge(u, v); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			g2 := g.Apply(d)
			add, del := d.Diff()
			got, addF, delF := PatchFiltered(filtered, oracle, g2, add, del, attrVerts)
			want := scratchFilter(g2, oracle)
			sameGraph(t, fmt.Sprintf("trial %d batch %d", trial, batch), got, want)
			// The reported filtered diff must be exactly the edge change
			// between the old and new filtered graphs.
			for _, p := range addF {
				if filtered.HasEdge(p[0], p[1]) || !got.HasEdge(p[0], p[1]) {
					t.Fatalf("trial %d batch %d: bogus filtered addition %v", trial, batch, p)
				}
			}
			for _, p := range delF {
				if !filtered.HasEdge(p[0], p[1]) || got.HasEdge(p[0], p[1]) {
					t.Fatalf("trial %d batch %d: bogus filtered removal %v", trial, batch, p)
				}
			}
			if got.M()-filtered.M() != len(addF)-len(delF) {
				t.Fatalf("trial %d batch %d: filtered diff %d-%d inconsistent with M %d->%d",
					trial, batch, len(addF), len(delF), filtered.M(), got.M())
			}
			g, filtered = g2, got
		}
	}
}

// TestPatchFilteredNoop verifies that a no-change batch returns the
// filtered graph itself (shared, zero work beyond the empty batch).
func TestPatchFilteredNoop(t *testing.T) {
	store := attr.NewGeo(4)
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	oracle := similarity.NewOracle(similarity.Euclidean{Store: store}, 1)
	filtered := scratchFilter(g, oracle)
	got, addF, delF := PatchFiltered(filtered, oracle, g, nil, nil, nil)
	if got != filtered {
		t.Fatal("no-op patch must return the filtered graph unchanged")
	}
	if len(addF) != 0 || len(delF) != 0 {
		t.Fatalf("no-op patch reported a filtered diff: +%v -%v", addF, delF)
	}
}
