package simgraph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/graph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// manhattan is a custom distance metric: the index factory does not
// know it, so its oracle takes the generic (non-geo) key path and its
// bulk engine is the brute-force fallback.
type manhattan struct{ geo *attr.Geo }

func (m manhattan) Score(u, v int32) float64 {
	a, b := m.geo.Vertex(u), m.geo.Vertex(v)
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}
func (m manhattan) Distance() bool { return true }
func (m manhattan) Name() string   { return "manhattan" }

func randomGraph(rng *rand.Rand, n, edges int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// keyStores builds one random store per attribute kind, with
// duplicated coordinates and empty keyword sets sprinkled in.
func keyStores(rng *rand.Rand, n int) (*attr.Geo, *attr.Keywords, *attr.Weighted) {
	geo := attr.NewGeo(n)
	kw := attr.NewKeywords(n)
	ww := attr.NewWeighted(n)
	for u := int32(0); u < int32(n); u++ {
		if u > 0 && rng.Intn(4) == 0 {
			geo.SetVertex(u, geo.Vertex(int32(rng.Intn(int(u)))))
		} else {
			geo.SetVertex(u, attr.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20})
		}
		if rng.Intn(5) == 0 {
			kw.SetVertex(u, nil)
			ww.SetVertex(u, nil)
			continue
		}
		topic := int32(rng.Intn(3)) * 10
		var words []int32
		var entries []attr.WeightedEntry
		for i := 0; i < 1+rng.Intn(5); i++ {
			w := topic + int32(rng.Intn(8))
			words = append(words, w)
			entries = append(entries, attr.WeightedEntry{Key: w, Weight: float64(rng.Intn(5))})
		}
		kw.SetVertex(u, words)
		ww.SetVertex(u, entries)
	}
	return geo, kw, ww
}

// TestFilterByKeysMatchesFilterEdges checks the key filter against the
// per-edge oracle filter for every metric kind, at zero, negative, NaN
// and ordinary thresholds, with one key table per metric scored at an
// unrelated threshold (as krcore.Engine shares it across every r) and
// with a table scored by the filtering oracle itself (as
// core.FilterDissimilar does).
func TestFilterByKeysMatchesFilterEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nan := math.NaN()
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(80)
		g := randomGraph(rng, n, 4*n)
		geo, kw, ww := keyStores(rng, n)
		cases := []struct {
			m  similarity.Metric
			rs []float64
		}{
			{similarity.Euclidean{Store: geo}, []float64{0, -3, nan, 2, 8, 1e9}},
			{similarity.Jaccard{Store: kw}, []float64{0, -0.5, nan, 0.3, 0.6, 1}},
			{similarity.WeightedJaccard{Store: ww}, []float64{0, -0.5, nan, 0.3, 0.6, 1}},
			{manhattan{geo: geo}, []float64{0, -3, nan, 4, 10}},
		}
		for _, c := range cases {
			if _, ok := c.m.(manhattan); ok {
				if src, ok := simindex.New(similarity.NewOracle(c.m, 1)).(*simindex.Brute); !ok {
					t.Fatalf("custom metric should take the brute path, got %T", src)
				}
			}
			shared := EdgeKeys(g, similarity.NewOracle(c.m, c.rs[rng.Intn(len(c.rs))]))
			for _, r := range c.rs {
				o := similarity.NewOracle(c.m, r)
				want := scratchFilter(g, o)
				label := fmt.Sprintf("trial %d %s r=%v", trial, c.m.Name(), r)
				sameGraph(t, label+" shared keys", FilterByKeys(g, shared, o), want)
				sameGraph(t, label+" own keys", FilterByKeys(g, EdgeKeys(g, o), o), want)
			}
		}
	}
}

// TestEdgeKeysSharded checks the multi-worker key build against a
// serial Edges walk on a graph large enough to shard, at worker counts
// that do not divide the edge count.
func TestEdgeKeysSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 3000
	g := randomGraph(rng, n, 4*n)
	if g.M() < parallelEdges {
		t.Fatalf("graph has %d edges, need >= %d to shard", g.M(), parallelEdges)
	}
	geo, _, ww := keyStores(rng, n)
	for _, m := range []similarity.Metric{similarity.Euclidean{Store: geo}, similarity.WeightedJaccard{Store: ww}} {
		o := similarity.NewOracle(m, 0.5)
		var want []float64
		g.Edges(func(u, v int32) { want = append(want, o.Key(u, v)) })
		for _, procs := range []int{1, 3, 7} {
			prev := runtime.GOMAXPROCS(procs)
			got := EdgeKeys(g, o)
			runtime.GOMAXPROCS(prev)
			if len(got) != len(want) {
				t.Fatalf("%s at %d procs: %d keys, want %d", m.Name(), procs, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s at %d procs: key %d = %v, want %v", m.Name(), procs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFilterByTestSharded checks the pair-test filter against the
// per-edge oracle filter for every engine with a pair test, at worker
// counts that do not divide the edge count, on a graph large enough to
// shard.
func TestFilterByTestSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 3000
	g := randomGraph(rng, n, 4*n)
	geo, kw, ww := keyStores(rng, n)
	cases := []struct {
		m similarity.Metric
		r float64
	}{
		{similarity.Euclidean{Store: geo}, 6},
		{similarity.Jaccard{Store: kw}, 0.4},
		{similarity.WeightedJaccard{Store: ww}, 0.4},
	}
	for _, c := range cases {
		o := similarity.NewOracle(c.m, c.r)
		want := scratchFilter(g, o)
		for _, procs := range []int{1, 3, 7} {
			prev := runtime.GOMAXPROCS(procs)
			got := FilterByTest(g, func() similarity.PairTest { return simindex.NewPairTest(o) })
			runtime.GOMAXPROCS(prev)
			sameGraph(t, fmt.Sprintf("%s at %d procs", c.m.Name(), procs), got, want)
		}
	}
}
