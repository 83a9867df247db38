package similarity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"krcore/internal/attr"
)

func keywordFixture() *attr.Keywords {
	s := attr.NewKeywords(3)
	s.SetVertex(0, []int32{1, 2, 3, 4})
	s.SetVertex(1, []int32{1, 2, 3, 9})
	s.SetVertex(2, []int32{7, 8})
	return s
}

func TestOracleJaccard(t *testing.T) {
	o := NewOracle(Jaccard{Store: keywordFixture()}, 0.5)
	if !o.Similar(0, 1) { // 3/5 = 0.6 >= 0.5
		t.Fatal("0 and 1 should be similar")
	}
	if o.Similar(0, 2) { // 0
		t.Fatal("0 and 2 should be dissimilar")
	}
	if !o.Similar(2, 2) {
		t.Fatal("a vertex is similar to itself")
	}
	if o.Threshold() != 0.5 || o.Metric().Name() != "jaccard" {
		t.Fatal("accessors wrong")
	}
}

func TestOracleEuclideanThresholdInclusive(t *testing.T) {
	g := attr.NewGeo(3)
	g.SetVertex(0, attr.Point{X: 0, Y: 0})
	g.SetVertex(1, attr.Point{X: 3, Y: 4}) // distance exactly 5
	g.SetVertex(2, attr.Point{X: 10, Y: 0})
	o := NewOracle(Euclidean{Store: g}, 5)
	if !o.Similar(0, 1) {
		t.Fatal("distance exactly r must count as similar (<= r)")
	}
	if o.Similar(0, 2) {
		t.Fatal("distance 10 > 5 must be dissimilar")
	}
	if !(Euclidean{}).Distance() {
		t.Fatal("Euclidean must report Distance() = true")
	}
	if got := (Euclidean{Store: g}).Score(0, 1); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Euclidean score = %v, want 5", got)
	}
}

func TestWeightedJaccardMetric(t *testing.T) {
	w := attr.NewWeighted(2)
	w.SetVertex(0, []attr.WeightedEntry{{Key: 1, Weight: 2}})
	w.SetVertex(1, []attr.WeightedEntry{{Key: 1, Weight: 2}})
	o := NewOracle(WeightedJaccard{Store: w}, 0.99)
	if !o.Similar(0, 1) {
		t.Fatal("identical weighted sets must be similar at any threshold <= 1")
	}
	if (WeightedJaccard{}).Distance() {
		t.Fatal("weighted Jaccard is a similarity, not a distance")
	}
}

func TestTopPermilleMonotone(t *testing.T) {
	// Construct keyword sets with three distinct pairwise score levels.
	n := 60
	s := attr.NewKeywords(n)
	for u := 0; u < n; u++ {
		base := int32(u / 20 * 100) // three topic groups
		s.SetVertex(int32(u), []int32{base, base + 1, base + 2, int32(u)})
	}
	m := Jaccard{Store: s}
	r1 := TopPermille(m, n, 50, 2000, 7)  // top 5%
	r5 := TopPermille(m, n, 300, 2000, 7) // top 30%
	r9 := TopPermille(m, n, 900, 2000, 7) // top 90%
	if !(r1 >= r5 && r5 >= r9) {
		t.Fatalf("TopPermille not monotone: %v %v %v", r1, r5, r9)
	}
	// Intra-group pairs share 3 of 5 keys -> score 0.6; cross-group 0.
	if r1 < 0.5 {
		t.Fatalf("top-5%% threshold %v should select intra-group scores", r1)
	}
	if r9 > 0.1 {
		t.Fatalf("top-90%% threshold %v should reach cross-group scores", r9)
	}
}

func TestTopPermilleEdgeCases(t *testing.T) {
	s := keywordFixture()
	m := Jaccard{Store: s}
	if got := TopPermille(m, 1, 3, 100, 1); !math.IsInf(got, 1) {
		t.Fatalf("n<2 should yield +Inf, got %v", got)
	}
	// Clamping: p <= 0 and p > 1000 must not panic.
	_ = TopPermille(m, 3, -1, 10, 1)
	_ = TopPermille(m, 3, 5000, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("TopPermille on a distance metric must panic")
		}
	}()
	_ = TopPermille(Euclidean{Store: attr.NewGeo(3)}, 3, 3, 10, 1)
}

// TestTopPermilleTinyGraphExact: when the requested sample covers every
// distinct pair, the threshold must come from exact pair enumeration —
// the regression guard against pathological with-replacement sampling
// on tiny graphs (near-complete samples revisit pairs indefinitely and
// skew the quantile).
func TestTopPermilleTinyGraphExact(t *testing.T) {
	// Two vertices: a single distinct pair, so every permille level must
	// return exactly that pair's score whatever the sample size.
	s := attr.NewKeywords(2)
	s.SetVertex(0, []int32{1, 2})
	s.SetVertex(1, []int32{2, 3})
	m := Jaccard{Store: s}
	want := m.Score(0, 1)
	for _, p := range []float64{1, 500, 1000} {
		if got := TopPermille(m, 2, p, 1<<30, 99); got != want {
			t.Fatalf("TopPermille(n=2, p=%v) = %v, want the single pair score %v", p, got, want)
		}
	}
	// Three vertices with three distinct scores: exact quantiles, and
	// independent of the sampling seed.
	fx := keywordFixture()
	mf := Jaccard{Store: fx}
	if a, b := TopPermille(mf, 3, 400, 100, 1), TopPermille(mf, 3, 400, 100, 2); a != b {
		t.Fatalf("exact path must not depend on the seed: %v vs %v", a, b)
	}
	// p=1000 selects the smallest sampled score; here the 0 of the
	// disjoint pairs.
	if got := TopPermille(mf, 3, 1000, 100, 1); got != 0 {
		t.Fatalf("bottom quantile = %v, want 0", got)
	}
}

func TestTopPermilleDeterministic(t *testing.T) {
	s := keywordFixture()
	m := Jaccard{Store: s}
	a := TopPermille(m, 3, 500, 100, 42)
	b := TopPermille(m, 3, 500, 100, 42)
	if a != b {
		t.Fatalf("same seed must give same threshold: %v vs %v", a, b)
	}
}

// Property: Oracle.Similar is symmetric and reflexive for random stores.
func TestOracleSymmetry(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		geo := attr.NewGeo(n)
		kw := attr.NewKeywords(n)
		for u := 0; u < n; u++ {
			geo.SetVertex(int32(u), attr.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
			var ks []int32
			for i := 0; i < rng.Intn(6); i++ {
				ks = append(ks, int32(rng.Intn(10)))
			}
			kw.SetVertex(int32(u), ks)
		}
		og := NewOracle(Euclidean{Store: geo}, rng.Float64()*100)
		oj := NewOracle(Jaccard{Store: kw}, rng.Float64())
		for i := 0; i < 30; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if og.Similar(u, v) != og.Similar(v, u) {
				return false
			}
			if oj.Similar(u, v) != oj.Similar(v, u) {
				return false
			}
			if !og.Similar(u, u) || !oj.Similar(u, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMetricNamesAndBulk covers the metric name surface and the bulk
// engine attachment used by the serving layer.
func TestMetricNamesAndBulk(t *testing.T) {
	geo := attr.NewGeo(2)
	kw := attr.NewKeywords(2)
	ww := attr.NewWeighted(2)
	names := map[string]Metric{
		"euclidean":        Euclidean{Store: geo},
		"jaccard":          Jaccard{Store: kw},
		"weighted-jaccard": WeightedJaccard{Store: ww},
	}
	for want, m := range names {
		if m.Name() != want {
			t.Fatalf("Name() = %q, want %q", m.Name(), want)
		}
	}
	o := NewOracle(Jaccard{Store: kw}, 0.5)
	if o.Bulk() != nil {
		t.Fatal("fresh oracle must have no bulk engine")
	}
	b := fakeBulk{}
	o.SetBulk(b)
	if o.Bulk() == nil {
		t.Fatal("SetBulk did not attach")
	}
}

type fakeBulk struct{}

func (fakeBulk) SimilarAdjacency(vs []int32, _ [][]int32) [][]int32 {
	return make([][]int32, len(vs))
}

// TestTopPermilleClamping covers the clamping and tiny-graph branches.
func TestTopPermilleClamping(t *testing.T) {
	kw := attr.NewKeywords(3)
	for u := 0; u < 3; u++ {
		kw.SetVertex(int32(u), []int32{int32(u), 5})
	}
	m := Jaccard{Store: kw}
	if got := TopPermille(m, 1, 3, 100, 1); !math.IsInf(got, 1) {
		t.Fatalf("n<2 must yield +Inf, got %v", got)
	}
	// p out of range is clamped on both ends; sample<=0 uses the default.
	lo := TopPermille(m, 3, -1, 0, 1)
	hi := TopPermille(m, 3, 5000, 0, 1)
	if lo < hi {
		t.Fatalf("smaller permille must not lower the threshold: p~0 -> %v, p=1000 -> %v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TopPermille must panic on a distance metric")
		}
	}()
	TopPermille(Euclidean{Store: attr.NewGeo(3)}, 3, 3, 100, 1)
}
