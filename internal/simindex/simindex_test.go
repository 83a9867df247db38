package simindex_test

import (
	"math"
	"math/rand"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/simgraph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// sameAdjacency compares two local adjacency-list sets exactly.
func sameAdjacency(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// subset draws a random distinct vertex subset (sometimes everything,
// sometimes a shuffled slice, sometimes tiny or empty).
func subset(rng *rand.Rand, n int) []int32 {
	switch rng.Intn(4) {
	case 0:
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	case 1:
		return nil
	default:
		perm := rng.Perm(n)
		k := rng.Intn(n + 1)
		out := make([]int32, 0, k)
		for _, v := range perm[:k] {
			out = append(out, int32(v))
		}
		return out
	}
}

// checkSource cross-checks one bulk engine against the serial reference
// on random subsets and random pair batches.
func checkSource(t *testing.T, rng *rand.Rand, name string, src similarity.BulkSource, o *similarity.Oracle, n int) {
	t.Helper()
	serial := simindex.NewSerial(o)
	o.SetBulk(src)
	test := simindex.NewPairTest(o)
	for trial := 0; trial < 4; trial++ {
		vs := subset(rng, n)
		got := src.SimilarAdjacency(vs, nil)
		want := serial.SimilarAdjacency(vs, nil)
		if !sameAdjacency(got, want) {
			t.Fatalf("%s: SimilarAdjacency mismatch on %v (r=%v):\ngot  %v\nwant %v",
				name, vs, o.Threshold(), got, want)
		}
		// A hint of pairs known similar changes the work, never the
		// output: every similar pair, none, and a random subset.
		for hint, known := range map[string][][]int32{
			"all":    want,
			"none":   make([][]int32, len(vs)),
			"random": randomHint(rng, want),
		} {
			if got := src.SimilarAdjacency(vs, known); !sameAdjacency(got, want) {
				t.Fatalf("%s: SimilarAdjacency with the %q hint %v differs on %v (r=%v):\ngot  %v\nwant %v",
					name, hint, known, vs, o.Threshold(), got, want)
			}
		}
		// The dissimilarity lists of the engine's pair test, or of its
		// similar adjacency for an engine without one, must be
		// bit-identical to the serial BuildDissim, with or without a
		// hint, and the bulk similarity graph to the serial
		// SimilarityGraph.
		ds := simgraph.BuildDissim(o, vs)
		for _, known := range [][][]int32{nil, want, randomHint(rng, want)} {
			if test == nil {
				known = src.SimilarAdjacency(vs, known)
			}
			d := simgraph.BuildDissimBulk(test, vs, known)
			if d.Pairs != ds.Pairs || !sameAdjacency(d.Lists, ds.Lists) {
				t.Fatalf("%s: BuildDissimBulk mismatch on %v (r=%v): got %v/%d want %v/%d",
					name, vs, o.Threshold(), d.Lists, d.Pairs, ds.Lists, ds.Pairs)
			}
		}
		sg := simgraph.SimilarityGraphBulk(src, vs)
		sgs := simgraph.SimilarityGraph(o, vs)
		if sg.N() != sgs.N() || sg.M() != sgs.M() {
			t.Fatalf("%s: SimilarityGraphBulk mismatch on %v: %d/%d edges, want %d/%d",
				name, vs, sg.N(), sg.M(), sgs.N(), sgs.M())
		}
		for u := 0; u < sg.N(); u++ {
			gu, wu := sg.Neighbors(int32(u)), sgs.Neighbors(int32(u))
			for k := range wu {
				if gu[k] != wu[k] {
					t.Fatalf("%s: SimilarityGraphBulk neighbours differ at %d", name, u)
				}
			}
		}
	}
}

// randomHint keeps each directed entry of a similar adjacency with
// probability one half, so a pair may be hinted from one side only.
func randomHint(rng *rand.Rand, sim [][]int32) [][]int32 {
	known := make([][]int32, len(sim))
	for i, row := range sim {
		for _, j := range row {
			if rng.Intn(2) == 0 {
				known[i] = append(known[i], j)
			}
		}
	}
	return known
}

// geoStore builds a random geo store, with duplicated coordinates
// sprinkled in (the r=0 degenerate case needs exact collisions).
func geoStore(rng *rand.Rand, n int) *attr.Geo {
	geo := attr.NewGeo(n)
	for u := 0; u < n; u++ {
		if u > 0 && rng.Intn(5) == 0 {
			geo.SetVertex(int32(u), geo.Vertex(int32(rng.Intn(u)))) // duplicate point
			continue
		}
		geo.SetVertex(int32(u), attr.Point{
			X: rng.Float64()*40 - 20,
			Y: rng.Float64()*40 - 20,
		})
	}
	return geo
}

func TestGridMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		geo := geoStore(rng, n)
		var r float64
		switch trial % 5 {
		case 0:
			r = 0 // exact-match degenerate case
		case 1:
			r = 1e9 // all-similar
		case 2:
			r = -(1 + rng.Float64()*5) // negative threshold: |r| semantics
		default:
			r = rng.Float64() * 15
		}
		o := similarity.NewOracle(similarity.Euclidean{Store: geo}, r)
		checkSource(t, rng, "grid", simindex.NewGrid(geo, r), o, n)
	}
}

// TestNaNThresholdMatchesSerial: a NaN threshold satisfies no score
// comparison, so every engine must report no similar pairs (and must
// not panic), exactly like the oracle.
func TestNaNThresholdMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nan := math.NaN()
	n := 20

	geo := geoStore(rng, n)
	og := similarity.NewOracle(similarity.Euclidean{Store: geo}, nan)
	checkSource(t, rng, "grid-nan", simindex.NewGrid(geo, nan), og, n)

	kw := keywordStore(rng, n)
	oj := similarity.NewOracle(similarity.Jaccard{Store: kw}, nan)
	checkSource(t, rng, "inverted-nan", simindex.NewInverted(kw, nan), oj, n)

	ww := weightedStore(rng, n)
	ow := similarity.NewOracle(similarity.WeightedJaccard{Store: ww}, nan)
	checkSource(t, rng, "weighted-nan", simindex.NewWeightedInverted(ww, nan), ow, n)
}

func TestGridUngriddableFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	geo := attr.NewGeo(6)
	for u := 0; u < 6; u++ {
		geo.SetVertex(int32(u), attr.Point{X: float64(u) * 10, Y: 0})
	}
	// A threshold so small the cell coordinates overflow: the grid must
	// fall back to brute-force scans, still matching the oracle.
	r := 1e-300
	o := similarity.NewOracle(similarity.Euclidean{Store: geo}, r)
	checkSource(t, rng, "grid-fallback", simindex.NewGrid(geo, r), o, 6)
}

// keywordStore builds a random keyword store including empty sets.
func keywordStore(rng *rand.Rand, n int) *attr.Keywords {
	kw := attr.NewKeywords(n)
	for u := 0; u < n; u++ {
		if rng.Intn(6) == 0 {
			kw.SetVertex(int32(u), nil) // empty keyword set
			continue
		}
		topic := int32(rng.Intn(3)) * 10
		words := []int32{topic, topic + 1}
		for i := 0; i < rng.Intn(6); i++ {
			words = append(words, int32(rng.Intn(25)))
		}
		kw.SetVertex(int32(u), words)
	}
	return kw
}

func TestInvertedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		kw := keywordStore(rng, n)
		var r float64
		switch trial % 5 {
		case 0:
			r = 0 // everything similar (score >= 0)
		case 1:
			r = -0.5 // negative threshold: also everything similar
		case 2:
			r = 1 // only identical non-empty sets
		default:
			r = rng.Float64()
		}
		o := similarity.NewOracle(similarity.Jaccard{Store: kw}, r)
		checkSource(t, rng, "inverted", simindex.NewInverted(kw, r), o, n)
	}
}

// weightedStore builds a random weighted store including empty and
// zero-weight lists.
func weightedStore(rng *rand.Rand, n int) *attr.Weighted {
	ww := attr.NewWeighted(n)
	for u := 0; u < n; u++ {
		if rng.Intn(6) == 0 {
			ww.SetVertex(int32(u), nil)
			continue
		}
		var entries []attr.WeightedEntry
		topic := int32(rng.Intn(3)) * 10
		for i := 0; i < 1+rng.Intn(6); i++ {
			w := float64(rng.Intn(5))
			if rng.Intn(8) == 0 {
				w = 0 // zero-weight entries stress the weight-ratio bound
			}
			entries = append(entries, attr.WeightedEntry{
				Key:    topic + int32(rng.Intn(8)),
				Weight: w,
			})
		}
		ww.SetVertex(int32(u), entries)
	}
	return ww
}

func TestWeightedInvertedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Finite weights whose sums overflow: the merge scores such a pair
	// NaN, so it is dissimilar even at r <= 0.
	huge := attr.NewWeighted(4)
	for u := int32(0); u < 4; u++ {
		var entries []attr.WeightedEntry
		for k := int32(0); k < 3+u%2; k++ {
			entries = append(entries, attr.WeightedEntry{Key: k, Weight: math.MaxFloat64 / 3})
		}
		huge.SetVertex(u, entries)
	}
	for _, r := range []float64{0, -0.5, 0.5} {
		o := similarity.NewOracle(similarity.WeightedJaccard{Store: huge}, r)
		checkSource(t, rng, "weighted-overflow", simindex.NewWeightedInverted(huge, r), o, 4)
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		ww := weightedStore(rng, n)
		var r float64
		switch trial % 4 {
		case 0:
			r = 0
		case 1:
			r = 1
		default:
			r = rng.Float64()
		}
		o := similarity.NewOracle(similarity.WeightedJaccard{Store: ww}, r)
		checkSource(t, rng, "weighted-inverted", simindex.NewWeightedInverted(ww, r), o, n)
	}
}

// negated inverts an existing metric's sign, producing a metric type
// the index factory does not recognise.
type negated struct{ m similarity.Metric }

func (n negated) Score(u, v int32) float64 { return -n.m.Score(u, v) }
func (n negated) Distance() bool           { return !n.m.Distance() }
func (n negated) Name() string             { return "neg-" + n.m.Name() }

func TestBruteMatchesSerialForCustomMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		geo := geoStore(rng, n)
		// Negated Euclidean distance is a "similarity" (bigger = closer);
		// the factory must fall back to the parallel brute engine.
		m := negated{m: similarity.Euclidean{Store: geo}}
		r := -rng.Float64() * 15
		o := similarity.NewOracle(m, r)
		src := simindex.New(o)
		if _, ok := src.(*simindex.Brute); !ok {
			t.Fatalf("custom metric should select Brute, got %T", src)
		}
		checkSource(t, rng, "brute", src, o, n)
	}
}

func TestForAttachesAndReuses(t *testing.T) {
	geo := attr.NewGeo(4)
	o := similarity.NewOracle(similarity.Euclidean{Store: geo}, 2)
	if o.Bulk() != nil {
		t.Fatal("fresh oracle should have no bulk engine")
	}
	a := simindex.For(o)
	if _, ok := a.(*simindex.Grid); !ok {
		t.Fatalf("Euclidean oracle should select Grid, got %T", a)
	}
	if b := simindex.For(o); b != a {
		t.Fatal("For must reuse the attached engine")
	}
	if o.Bulk() != a {
		t.Fatal("For must attach the engine to the oracle")
	}
}

func TestFactorySelectsIndexPerMetric(t *testing.T) {
	kw := attr.NewKeywords(3)
	ww := attr.NewWeighted(3)
	if _, ok := simindex.New(similarity.NewOracle(similarity.Jaccard{Store: kw}, 0.5)).(*simindex.Inverted); !ok {
		t.Fatal("Jaccard should select Inverted")
	}
	if _, ok := simindex.New(similarity.NewOracle(similarity.WeightedJaccard{Store: ww}, 0.5)).(*simindex.WeightedInverted); !ok {
		t.Fatal("WeightedJaccard should select WeightedInverted")
	}
}
