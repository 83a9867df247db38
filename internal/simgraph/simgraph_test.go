package simgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"krcore/internal/attr"
	"krcore/internal/graph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

func geoOracle(pts []attr.Point, r float64) *similarity.Oracle {
	g := attr.NewGeo(len(pts))
	for i, p := range pts {
		g.SetVertex(int32(i), p)
	}
	return similarity.NewOracle(similarity.Euclidean{Store: g}, r)
}

func TestBuildDissim(t *testing.T) {
	// Three points: 0 and 1 close, 2 far away.
	o := geoOracle([]attr.Point{{X: 0}, {X: 1}, {X: 100}}, 10)
	d := BuildDissim(o, []int32{0, 1, 2})
	if d.Pairs != 2 {
		t.Fatalf("Pairs = %d, want 2", d.Pairs)
	}
	if len(d.Lists[0]) != 1 || d.Lists[0][0] != 2 {
		t.Fatalf("dissim(0) = %v, want [2]", d.Lists[0])
	}
	if len(d.Lists[2]) != 2 {
		t.Fatalf("dissim(2) = %v, want [0 1]", d.Lists[2])
	}
	if !d.IsDissimilar(0, 2) || d.IsDissimilar(0, 1) || !d.IsDissimilar(2, 1) {
		t.Fatal("IsDissimilar wrong")
	}
	if d.SimDegree(0) != 1 || d.SimDegree(2) != 0 {
		t.Fatal("SimDegree wrong")
	}
}

func TestSimilarityGraphAndComplementAgree(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		pts := make([]attr.Point, n)
		for i := range pts {
			pts[i] = attr.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		o := geoOracle(pts, 5+rng.Float64()*20)
		vs := make([]int32, n)
		for i := range vs {
			vs[i] = int32(i)
		}
		sg := SimilarityGraph(o, vs)
		d := BuildDissim(o, vs)
		comp := d.Complement()
		if sg.N() != comp.N() || sg.M() != comp.M() {
			return false
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				want := o.Similar(int32(u), int32(v))
				if sg.HasEdge(int32(u), int32(v)) != want {
					return false
				}
				if comp.HasEdge(int32(u), int32(v)) != want {
					return false
				}
				if d.IsDissimilar(int32(u), int32(v)) == want {
					return false
				}
			}
		}
		// Pair accounting: similar + dissimilar = all pairs.
		if sg.M()+d.Pairs != n*(n-1)/2 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sparseKeys are key ids the keyword stores draw from: shared small
// ids, negative ones and both ends of int32, so no engine may assume
// keys are small, dense or non-negative.
var sparseKeys = []int32{0, 1, 2, 3, 5, 8, -1, -7, math.MinInt32, math.MinInt32 + 1, math.MaxInt32, math.MaxInt32 - 2, 1 << 20}

// tieStores builds one store per attribute kind over n vertices. Geo
// points sit on a small integer lattice, so integer thresholds tie
// exactly with some distances; keyword sets draw from sparseKeys, with
// empty sets, zero weights and duplicated keys sprinkled in.
func tieStores(rng *rand.Rand, n int) (*attr.Geo, *attr.Keywords, *attr.Weighted) {
	geo := attr.NewGeo(n)
	kw := attr.NewKeywords(n)
	ww := attr.NewWeighted(n)
	for u := int32(0); u < int32(n); u++ {
		geo.SetVertex(u, attr.Point{X: float64(rng.Intn(9)), Y: float64(rng.Intn(9))})
		if rng.Intn(6) == 0 {
			kw.SetVertex(u, nil)
			ww.SetVertex(u, nil)
			continue
		}
		var words []int32
		var entries []attr.WeightedEntry
		for i := 0; i < 1+rng.Intn(6); i++ {
			k := sparseKeys[rng.Intn(len(sparseKeys))]
			words = append(words, k)
			w := float64(rng.Intn(4))
			if rng.Intn(3) == 0 {
				w = rng.Float64() * 3
			}
			entries = append(entries, attr.WeightedEntry{Key: k, Weight: w})
		}
		kw.SetVertex(u, words)
		ww.SetVertex(u, entries)
	}
	return geo, kw, ww
}

// TestBulkBuildersMatchSerial checks the dissimilarity lists of every
// engine — the pair tests of Grid, Inverted and WeightedInverted, and
// the similar adjacency of Brute over a custom metric and of Serial,
// which have no test — against the per-pair BuildDissim, with no hint,
// with every similar pair hinted and with a random half of them, on
// random vertex subsets. Thresholds cover r <= 0, +Inf, NaN and exact ties: r is
// set to some pair's own score or one ulp either side of it, inside
// the weighted test's band. The bulk similarity graph is checked
// against SimilarityGraph on the same subsets.
func TestBulkBuildersMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nan, inf := math.NaN(), math.Inf(1)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		geo, kw, ww := tieStores(rng, n)
		metrics := []similarity.Metric{
			similarity.Euclidean{Store: geo},
			similarity.Jaccard{Store: kw},
			similarity.WeightedJaccard{Store: ww},
			manhattan{geo: geo},
		}
		for mi, m := range metrics {
			// A tie: the score of a random pair, so that pair and every
			// pair scoring the same sit exactly on the threshold.
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			tie := similarity.NewOracle(m, 0).Key(u, v)
			if mi == 0 {
				tie = float64(rng.Intn(6)) // squared keys: use a lattice distance
			}
			up, down := math.Nextafter(tie, inf), math.Nextafter(tie, -inf)
			for _, r := range []float64{0, -0.5, -3, tie, up, down, tie + 1e-12, rng.Float64(), 2 + rng.Float64()*4, inf, nan} {
				for _, serial := range []bool{false, true} {
					o := similarity.NewOracle(m, r)
					if serial {
						o.SetBulk(simindex.NewSerial(o))
					}
					label := fmt.Sprintf("trial %d %s r=%v serial=%v", trial, m.Name(), r, serial)
					checkBulkBuilders(t, rng, label, o, n)
				}
			}
		}
	}
}

// checkBulkBuilders compares the bulk builders with the per-pair ones
// for one oracle on every vertex, then on two random vertex subsets.
// An engine without a pair test builds as a preparation does: from its
// similar adjacency, passed as the hint.
func checkBulkBuilders(t *testing.T, rng *rand.Rand, label string, o *similarity.Oracle, n int) {
	t.Helper()
	test := simindex.NewPairTest(o)
	switch simindex.For(o).(type) {
	case *simindex.Brute, *simindex.Serial:
	default:
		if test == nil {
			t.Fatalf("%s: engine %T has no pair test", label, simindex.For(o))
		}
	}
	for rep := 0; rep < 3; rep++ {
		perm := rng.Perm(n)
		vs := make([]int32, n)
		if rep > 0 {
			vs = vs[:rng.Intn(n+1)]
		}
		for i := range vs {
			vs[i] = int32(perm[i])
		}
		want := BuildDissim(o, vs)
		sim := SimilarityGraph(o, vs)
		full := make([][]int32, len(vs))
		half := make([][]int32, len(vs))
		for i := range vs {
			full[i] = sim.Neighbors(int32(i))
			for _, j := range full[i] {
				if rng.Intn(2) == 0 {
					half[i] = append(half[i], j)
				}
			}
		}
		for _, known := range [][][]int32{nil, full, half} {
			if test == nil {
				known = simindex.For(o).SimilarAdjacency(vs, known)
			}
			got := BuildDissimBulk(test, vs, known)
			if got.Pairs != want.Pairs || fmt.Sprint(got.Lists) != fmt.Sprint(want.Lists) {
				t.Fatalf("%s on %v (hint %v): BuildDissimBulk = %v/%d, want %v/%d",
					label, vs, known != nil, got.Lists, got.Pairs, want.Lists, want.Pairs)
			}
		}
		if sgb := SimilarityGraphBulk(simindex.For(o), vs); fmt.Sprint(adjacency(sgb)) != fmt.Sprint(adjacency(sim)) {
			t.Fatalf("%s on %v: SimilarityGraphBulk = %v, want %v", label, vs, adjacency(sgb), adjacency(sim))
		}
	}
}

func adjacency(g *graph.Graph) [][]int32 {
	out := make([][]int32, g.N())
	for u := range out {
		out[u] = g.Neighbors(int32(u))
	}
	return out
}

func TestDissimSubsetMapping(t *testing.T) {
	// Local ids must refer to positions in the input slice, not global ids.
	o := geoOracle([]attr.Point{{X: 0}, {X: 100}, {X: 1}, {X: 101}}, 10)
	d := BuildDissim(o, []int32{1, 3, 0}) // local 0=g1, 1=g3, 2=g0
	// g1 and g3 are close (dist 1): similar. g1-g0 and g3-g0 far.
	if d.IsDissimilar(0, 1) {
		t.Fatal("local 0 and 1 (global 1,3) should be similar")
	}
	if !d.IsDissimilar(0, 2) || !d.IsDissimilar(1, 2) {
		t.Fatal("global vertex 0 should be dissimilar to 1 and 3")
	}
	if d.Pairs != 2 {
		t.Fatalf("Pairs = %d, want 2", d.Pairs)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	o := geoOracle([]attr.Point{{X: 0}}, 1)
	d := BuildDissim(o, nil)
	if d.Pairs != 0 || len(d.Lists) != 0 {
		t.Fatal("empty dissim wrong")
	}
	d1 := BuildDissim(o, []int32{0})
	if d1.Pairs != 0 || d1.SimDegree(0) != 0 {
		t.Fatal("singleton dissim wrong")
	}
	if g := SimilarityGraph(o, []int32{0}); g.N() != 1 || g.M() != 0 {
		t.Fatal("singleton similarity graph wrong")
	}
}
