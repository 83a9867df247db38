package attr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"krcore/internal/binenc"
)

func TestKeywordsJaccard(t *testing.T) {
	s := NewKeywords(4)
	s.SetVertex(0, []int32{1, 2, 3})
	s.SetVertex(1, []int32{2, 3, 4})
	s.SetVertex(2, []int32{1, 2, 3})
	// vertex 3 left empty
	if got := s.Jaccard(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Jaccard(0,1) = %v, want 0.5", got)
	}
	if got := s.Jaccard(0, 2); got != 1 {
		t.Fatalf("Jaccard of identical sets = %v, want 1", got)
	}
	if got := s.Jaccard(0, 3); got != 0 {
		t.Fatalf("Jaccard with empty set = %v, want 0", got)
	}
	if got := s.Jaccard(3, 3); got != 0 {
		t.Fatalf("Jaccard of two empty sets = %v, want 0 by convention", got)
	}
}

func TestKeywordsSetVertexDedup(t *testing.T) {
	s := NewKeywords(1)
	s.SetVertex(0, []int32{5, 1, 5, 3, 1})
	got := s.Vertex(0)
	want := []int32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Vertex(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vertex(0) = %v, want %v", got, want)
		}
	}
}

func TestWeightedJaccard(t *testing.T) {
	s := NewWeighted(3)
	s.SetVertex(0, []WeightedEntry{{Key: 1, Weight: 2}, {Key: 2, Weight: 3}})
	s.SetVertex(1, []WeightedEntry{{Key: 1, Weight: 1}, {Key: 3, Weight: 4}})
	// min sum over union: key1 min(2,1)=1; key2 min(3,0)=0; key3 min(0,4)=0 => 1
	// max sum: key1 2 + key2 3 + key3 4 = 9
	if got := s.WeightedJaccard(0, 1); math.Abs(got-1.0/9.0) > 1e-12 {
		t.Fatalf("WeightedJaccard = %v, want 1/9", got)
	}
	if got := s.WeightedJaccard(0, 0); got != 1 {
		t.Fatalf("self weighted Jaccard = %v, want 1", got)
	}
	if got := s.WeightedJaccard(0, 2); got != 0 {
		t.Fatalf("weighted Jaccard with empty = %v, want 0", got)
	}
	if got := s.WeightedJaccard(2, 2); got != 0 {
		t.Fatalf("weighted Jaccard of empties = %v, want 0", got)
	}
}

func TestWeightedSetVertexMergesDuplicates(t *testing.T) {
	s := NewWeighted(1)
	s.SetVertex(0, []WeightedEntry{{Key: 2, Weight: 1}, {Key: 2, Weight: 4}, {Key: 1, Weight: 3}})
	got := s.Vertex(0)
	if len(got) != 2 || got[0].Key != 1 || got[0].Weight != 3 || got[1].Key != 2 || got[1].Weight != 5 {
		t.Fatalf("merged entries = %v", got)
	}
}

func TestGeoDistance(t *testing.T) {
	s := NewGeo(2)
	s.SetVertex(0, Point{X: 0, Y: 0})
	s.SetVertex(1, Point{X: 3, Y: 4})
	if got := s.Distance2(0, 1); got != 25 {
		t.Fatalf("Distance2 = %v, want 25", got)
	}
	if got := s.Distance2(0, 0); got != 0 {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

// Properties: symmetry and range of both Jaccard variants.
func TestJaccardProperties(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		kw := NewKeywords(n)
		ww := NewWeighted(n)
		for u := 0; u < n; u++ {
			var ks []int32
			var ws []WeightedEntry
			for i := 0; i < rng.Intn(8); i++ {
				k := int32(rng.Intn(12))
				ks = append(ks, k)
				ws = append(ws, WeightedEntry{Key: k, Weight: float64(1 + rng.Intn(5))})
			}
			kw.SetVertex(int32(u), ks)
			ww.SetVertex(int32(u), ws)
		}
		for i := 0; i < 20; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			j1, j2 := kw.Jaccard(u, v), kw.Jaccard(v, u)
			w1, w2 := ww.WeightedJaccard(u, v), ww.WeightedJaccard(v, u)
			if j1 != j2 || w1 != w2 {
				return false // symmetry
			}
			if j1 < 0 || j1 > 1 || w1 < 0 || w1 > 1 {
				return false // range
			}
			// Plain Jaccard with unit weights equals weighted Jaccard of
			// the deduplicated set only if weights are equal; skip that
			// cross-check here, covered by the explicit tests above.
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindKeywords.String() != "keywords" || KindWeighted.String() != "weighted-keywords" ||
		KindGeo.String() != "geo" || Kind(99).String() != "unknown" {
		t.Fatal("Kind.String() wrong")
	}
}

// TestGrow covers the dynamic-engine growth path of all three stores:
// growth preserves existing attributes, new vertices are zero-valued,
// and shrinking requests are no-ops.
func TestGrow(t *testing.T) {
	kw := NewKeywords(2)
	kw.SetVertex(1, []int32{3, 1})
	kw.Grow(4)
	if kw.N() != 4 || len(kw.Vertex(3)) != 0 {
		t.Fatalf("Keywords.Grow: N=%d, v3=%v", kw.N(), kw.Vertex(3))
	}
	if got := kw.Vertex(1); len(got) != 2 || got[0] != 1 {
		t.Fatalf("Keywords.Grow lost attributes: %v", got)
	}
	kw.SetVertex(3, []int32{7})
	if kw.Len(3) != 1 {
		t.Fatal("grown vertex not assignable")
	}
	kw.Grow(1)
	if kw.N() != 4 {
		t.Fatal("Grow must never shrink")
	}

	ww := NewWeighted(1)
	ww.SetVertex(0, []WeightedEntry{{Key: 2, Weight: 3}})
	ww.Grow(3)
	if ww.N() != 3 || ww.Len(2) != 0 || ww.Len(0) != 1 {
		t.Fatalf("Weighted.Grow: N=%d", ww.N())
	}

	geo := NewGeo(1)
	geo.SetVertex(0, Point{X: 5, Y: 6})
	geo.Grow(3)
	if geo.N() != 3 || geo.Vertex(2) != (Point{}) || geo.Vertex(0) != (Point{X: 5, Y: 6}) {
		t.Fatalf("Geo.Grow: N=%d v0=%v v2=%v", geo.N(), geo.Vertex(0), geo.Vertex(2))
	}
}

// checkDenseIDs verifies the dictionary invariant of a keyword store:
// equal keys carry equal ids, distinct keys distinct ones, and every id
// lies below NumIDs.
func checkDenseIDs(t *testing.T, label string, n, numIDs int, keys, ids func(int32) []int32) {
	t.Helper()
	idOf := map[int32]int32{}
	keyOf := map[int32]int32{}
	for u := int32(0); u < int32(n); u++ {
		ks, is := keys(u), ids(u)
		if len(ks) != len(is) {
			t.Fatalf("%s: vertex %d has %d keys and %d ids", label, u, len(ks), len(is))
		}
		for i, k := range ks {
			id := is[i]
			if id < 0 || int(id) >= numIDs {
				t.Fatalf("%s: vertex %d key %d has id %d outside [0,%d)", label, u, k, id, numIDs)
			}
			if prev, ok := idOf[k]; ok && prev != id {
				t.Fatalf("%s: key %d has ids %d and %d", label, k, prev, id)
			}
			if prev, ok := keyOf[id]; ok && prev != k {
				t.Fatalf("%s: id %d names keys %d and %d", label, id, prev, k)
			}
			idOf[k], keyOf[id] = id, k
		}
	}
}

// TestDenseIDs checks the keyword stores' dense ids through random
// re-assignments (slot reuse and fresh slots), a clone edited apart
// from its original, and a decode, which numbers the keys afresh.
func TestDenseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := []int32{0, 7, -3, math.MinInt32, math.MaxInt32, 1 << 30, 12}
	n := 12
	kw := NewKeywords(n)
	ww := NewWeighted(n)
	for round := 0; round < 60; round++ {
		u := int32(rng.Intn(n))
		var keys []int32
		var entries []WeightedEntry
		for i := 0; i < rng.Intn(6); i++ {
			k := pool[rng.Intn(len(pool))]
			keys = append(keys, k)
			entries = append(entries, WeightedEntry{Key: k, Weight: float64(rng.Intn(3))})
		}
		kw.SetVertex(u, keys)
		ww.SetVertex(u, entries)
		checkDenseIDs(t, "keywords", n, kw.NumIDs(), kw.Vertex, kw.IDs)
		checkDenseIDs(t, "weighted", n, ww.NumIDs(), ww.Keys, ww.IDs)
	}
	kc, wc := kw.Clone(), ww.Clone()
	kc.SetVertex(0, []int32{99, 100})
	wc.SetVertex(0, []WeightedEntry{{Key: 99, Weight: 1}})
	if kw.NumIDs() == kc.NumIDs() || ww.NumIDs() == wc.NumIDs() {
		t.Fatal("a clone's new keys reached the original's dictionary")
	}
	checkDenseIDs(t, "keywords clone", n, kc.NumIDs(), kc.Vertex, kc.IDs)
	checkDenseIDs(t, "weighted clone", n, wc.NumIDs(), wc.Keys, wc.IDs)
	checkDenseIDs(t, "keywords original", n, kw.NumIDs(), kw.Vertex, kw.IDs)

	var b binenc.Buffer
	kc.AppendBinary(&b)
	kd, err := DecodeKeywords(binenc.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkDenseIDs(t, "keywords decoded", n, kd.NumIDs(), kd.Vertex, kd.IDs)
	var bw binenc.Buffer
	wc.AppendBinary(&bw)
	wd, err := DecodeWeighted(binenc.NewReader(bw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkDenseIDs(t, "weighted decoded", n, wd.NumIDs(), wd.Keys, wd.IDs)
	kd.SetVertex(1, []int32{-99})
	checkDenseIDs(t, "keywords decoded then set", n, kd.NumIDs(), kd.Vertex, kd.IDs)
}

// TestWeightedRejectsBadWeights checks both guards on stored weights:
// CheckWeights reports a negative or non-finite weight, before and
// after duplicate keys merge, and SetVertex panics on a stored one and
// leaves the store unchanged.
func TestWeightedRejectsBadWeights(t *testing.T) {
	inf := math.Inf(1)
	bad := [][]WeightedEntry{
		{{Key: 1, Weight: -3}},
		{{Key: 1, Weight: math.NaN()}},
		{{Key: 1, Weight: inf}},
		{{Key: 2, Weight: 1}, {Key: 1, Weight: -inf}},
		{{Key: 1, Weight: math.MaxFloat64}, {Key: 1, Weight: math.MaxFloat64}},
	}
	for _, entries := range bad {
		if CheckWeights(entries) == nil {
			t.Errorf("CheckWeights(%v) = nil", entries)
		}
		s := NewWeighted(1)
		s.SetVertex(0, []WeightedEntry{{Key: 5, Weight: 1}})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetVertex(%v) did not panic", entries)
				}
			}()
			s.SetVertex(0, append([]WeightedEntry(nil), entries...))
		}()
		if got := s.Vertex(0); len(got) != 1 || got[0] != (WeightedEntry{Key: 5, Weight: 1}) {
			t.Errorf("a rejected SetVertex changed the vertex to %v", got)
		}
	}
	// A negative input weight is refused at the boundary even when its
	// key's merged weight would be fine; SetVertex, which checks what
	// it stores, takes it.
	mixed := []WeightedEntry{{Key: 1, Weight: -1}, {Key: 1, Weight: 3}}
	if CheckWeights(mixed) == nil {
		t.Error("CheckWeights accepted a negative input weight")
	}
	NewWeighted(1).SetVertex(0, mixed)
	for _, ok := range [][]WeightedEntry{nil, {{Key: 1, Weight: 0}}, {{Key: 1, Weight: math.MaxFloat64}}} {
		if err := CheckWeights(ok); err != nil {
			t.Errorf("CheckWeights(%v) = %v", ok, err)
		}
		NewWeighted(1).SetVertex(0, ok)
	}
}

// checkTotals fails t unless every vertex's Total is, bit for bit, its
// stored weights added in key order from +0.
func checkTotals(t *testing.T, what string, s *Weighted) {
	t.Helper()
	for u := int32(0); u < int32(s.N()); u++ {
		var want float64
		for _, w := range s.Weights(u) {
			want += w
		}
		if got := s.Total(u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: vertex %d total %v, want %v", what, u, got, want)
		}
	}
}

// TestWeightedTotals keeps each vertex's total right through random
// re-assignments, with duplicate keys to merge and lists that shrink
// and grow, and through Grow, Clone and a binary round trip.
func TestWeightedTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := NewWeighted(6)
	for step := 0; step < 200; step++ {
		u := int32(rng.Intn(s.N()))
		var entries []WeightedEntry
		for i := rng.Intn(6); i > 0; i-- {
			entries = append(entries, WeightedEntry{Key: int32(rng.Intn(8)), Weight: rng.Float64() * 10})
		}
		s.SetVertex(u, entries)
		checkTotals(t, fmt.Sprintf("step %d", step), s)
		if step%50 == 49 {
			s.Grow(s.N() + 2)
			checkTotals(t, fmt.Sprintf("step %d, grown", step), s)
		}
	}
	c := s.Clone()
	c.SetVertex(0, []WeightedEntry{{Key: 1, Weight: 123}})
	checkTotals(t, "original after its clone changed", s)
	checkTotals(t, "clone", c)
	if c.Total(0) != 123 {
		t.Fatalf("clone's re-assigned total %v, want 123", c.Total(0))
	}
	var b binenc.Buffer
	s.AppendBinary(&b)
	got, err := DecodeWeighted(binenc.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkTotals(t, "decoded", got)
	for u := int32(0); u < int32(s.N()); u++ {
		if math.Float64bits(got.Total(u)) != math.Float64bits(s.Total(u)) {
			t.Fatalf("decoded vertex %d total %v, want %v", u, got.Total(u), s.Total(u))
		}
	}
}
