package simindex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/binenc"
	"krcore/internal/similarity"
)

// roundTripIndex encodes the oracle's freshly built index and decodes
// it onto a second oracle over the same store.
func roundTripIndex(t *testing.T, o *similarity.Oracle) similarity.BulkSource {
	t.Helper()
	fresh := New(o)
	var b binenc.Buffer
	if err := AppendIndex(&b, fresh); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIndex(binenc.NewReader(b.Bytes()), o)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded index must agree with the fresh one on a full
	// adjacency query.
	n := 0
	switch m := o.Metric().(type) {
	case similarity.Euclidean:
		n = m.Store.N()
	case similarity.Jaccard:
		n = m.Store.N()
	case similarity.WeightedJaccard:
		n = m.Store.N()
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	if fmt.Sprint(got.SimilarAdjacency(vs, nil)) != fmt.Sprint(fresh.SimilarAdjacency(vs, nil)) {
		t.Fatal("decoded index disagrees with fresh index")
	}
	return got
}

func TestGridIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	geo := attr.NewGeo(60)
	for u := 0; u < 60; u++ {
		geo.SetVertex(int32(u), attr.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40})
	}
	for _, r := range []float64{5, 0} { // gridded and exact-match cases
		if _, ok := roundTripIndex(t, similarity.NewOracle(similarity.Euclidean{Store: geo}, r)).(*Grid); !ok {
			t.Fatalf("r=%g: decoded index is not a grid", r)
		}
	}
}

func TestInvertedIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	kw := attr.NewKeywords(50)
	for u := 0; u < 50; u++ {
		kw.SetVertex(int32(u), []int32{int32(rng.Intn(20)), int32(rng.Intn(20)), int32(rng.Intn(20))})
	}
	for _, r := range []float64{0.4, 0} {
		if _, ok := roundTripIndex(t, similarity.NewOracle(similarity.Jaccard{Store: kw}, r)).(*Inverted); !ok {
			t.Fatalf("r=%g: decoded index is not inverted", r)
		}
	}
}

func TestWeightedInvertedIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := attr.NewWeighted(50)
	for u := 0; u < 50; u++ {
		ws.SetVertex(int32(u), []attr.WeightedEntry{
			{Key: int32(rng.Intn(20)), Weight: float64(1 + rng.Intn(3))},
			{Key: int32(rng.Intn(20)), Weight: float64(1 + rng.Intn(3))},
		})
	}
	for _, r := range []float64{0.5, 0} {
		o := similarity.NewOracle(similarity.WeightedJaccard{Store: ws}, r)
		if _, ok := roundTripIndex(t, o).(*WeightedInverted); !ok {
			t.Fatalf("r=%g: decoded index is not weighted inverted", r)
		}
	}
}

func TestAppendIndexRejectsBrute(t *testing.T) {
	geo := attr.NewGeo(2)
	o := similarity.NewOracle(similarity.Euclidean{Store: geo}, 1)
	var b binenc.Buffer
	if err := AppendIndex(&b, NewBrute(o)); err == nil {
		t.Fatal("brute index serialised")
	}
}

func TestDecodeIndexRejectsCorruption(t *testing.T) {
	geo := attr.NewGeo(10)
	o := similarity.NewOracle(similarity.Euclidean{Store: geo}, 2)
	var b binenc.Buffer
	if err := AppendIndex(&b, New(o)); err != nil {
		t.Fatal(err)
	}
	raw := b.Bytes()

	// Wrong tag for the metric.
	mut := append([]byte(nil), raw...)
	mut[0] = tagInverted
	if _, err := DecodeIndex(binenc.NewReader(mut), o); err == nil {
		t.Fatal("wrong tag accepted")
	}
	// Inconsistent flags (never-flag on a finite threshold).
	mut = append([]byte(nil), raw...)
	mut[1] |= gridNever
	if _, err := DecodeIndex(binenc.NewReader(mut), o); err == nil {
		t.Fatal("inconsistent grid flags accepted")
	}
	// Truncation.
	if _, err := DecodeIndex(binenc.NewReader(raw[:len(raw)-3]), o); err == nil {
		t.Fatal("truncated index accepted")
	}
	// Cell arrays sized for the wrong store.
	small := attr.NewGeo(3)
	os := similarity.NewOracle(similarity.Euclidean{Store: small}, 2)
	if _, err := DecodeIndex(binenc.NewReader(raw), os); err == nil {
		t.Fatal("mis-sized cell arrays accepted")
	}
}

func TestDecodeInvertedRejectsBadPrefix(t *testing.T) {
	kw := attr.NewKeywords(2)
	kw.SetVertex(0, []int32{1, 2})
	kw.SetVertex(1, []int32{2, 3})
	o := similarity.NewOracle(similarity.Jaccard{Store: kw}, 0.5)
	var b binenc.Buffer
	b.U8(tagInverted)
	b.I32s([]int32{3, 1}) // prefix 3 > |keys(0)| = 2
	if _, err := DecodeIndex(binenc.NewReader(b.Bytes()), o); err == nil {
		t.Fatal("prefix beyond key count accepted")
	}
	if math.IsNaN(o.Threshold()) {
		t.Fatal("unreachable")
	}
}
