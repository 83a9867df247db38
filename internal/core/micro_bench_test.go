package core

// Micro-benchmarks for the engine's building blocks: problem
// preparation, the three size bounds (the ablation behind Figure 10),
// state transitions with trail rewind, and full searches on the hard
// band of the synthetic Gowalla stand-in, whose large component has
// rows 10 words wide and mostly nonzero, and on a large sparse
// component, whose rows are 30 words wide and mostly zero (rows.go).
// BenchmarkWarmPresetSearches runs the searches a warm server answers
// on the dataset presets. Figure-level benchmarks live in the
// repository root's bench_test.go.

import (
	"fmt"
	"math/rand"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/dataset"
	"krcore/internal/graph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// benchInstance builds a mid-sized tangled component: three overlapping
// geo clusters whose boundaries straddle the threshold.
func benchInstance() testInstance {
	rng := rand.New(rand.NewSource(424242))
	n := 600
	b := graph.NewBuilder(n)
	geo := attr.NewGeo(n)
	for c := 0; c < 12; c++ {
		base := c * 50
		cx := float64(c) * 6
		members := make([]int32, 0, 50)
		for i := 0; i < 50; i++ {
			v := int32(base + i)
			members = append(members, v)
			geo.SetVertex(v, attr.Point{
				X: cx + rng.NormFloat64()*3,
				Y: rng.NormFloat64() * 3,
			})
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if rng.Float64() < 0.25 {
					b.AddEdge(members[i], members[j])
				}
			}
		}
		if c > 0 {
			for i := 0; i < 60; i++ {
				b.AddEdge(int32(base-50+rng.Intn(50)), int32(base+rng.Intn(50)))
			}
		}
	}
	return testInstance{
		g: b.Build(),
		p: Params{K: 5, Oracle: similarity.NewOracle(similarity.Euclidean{Store: geo}, 10)},
	}
}

func BenchmarkPrepare(b *testing.B) {
	inst := benchInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if probs := prepare(inst.g, inst.p); len(probs) == 0 {
			b.Fatal("expected candidate components")
		}
	}
}

// BenchmarkPrepareSerial pins the oracle to the serial per-pair
// reference engine, measuring the preprocessing the similarity indexes
// replace (compare with BenchmarkPrepare).
func BenchmarkPrepareSerial(b *testing.B) {
	inst := benchInstance()
	inst.p.Oracle.SetBulk(simindex.NewSerial(inst.p.Oracle))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if probs := prepare(inst.g, inst.p); len(probs) == 0 {
			b.Fatal("expected candidate components")
		}
	}
}

func benchRootState(b *testing.B) *state {
	b.Helper()
	inst := benchInstance()
	return newState(largest(b, prepare(inst.g, inst.p)), &budget{})
}

// largest returns the component with the most vertices.
func largest(tb testing.TB, probs []*problem) *problem {
	tb.Helper()
	if len(probs) == 0 {
		tb.Fatal("no components")
	}
	biggest := probs[0]
	for _, p := range probs {
		if p.n > biggest.n {
			biggest = p
		}
	}
	return biggest
}

func BenchmarkBoundNaive(b *testing.B) {
	st := benchRootState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.bound(BoundNaive)
	}
}

func BenchmarkBoundColor(b *testing.B) {
	st := benchRootState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.bound(BoundColor)
	}
}

func BenchmarkBoundKcoreSim(b *testing.B) {
	st := benchRootState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.bound(BoundKcore)
	}
}

func BenchmarkBoundDoubleKcore(b *testing.B) {
	st := benchRootState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.bound(BoundDoubleKcore)
	}
}

func BenchmarkStateExpandRewind(b *testing.B) {
	st := benchRootState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := st.mark()
		st.expand(int32(i % st.p.n))
		st.prune(true, m)
		st.rewind(m)
	}
}

func BenchmarkChooseVertexDelta(b *testing.B) {
	st := benchRootState(b)
	st.prune(true, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.chooseVertex(OrderDelta1ThenDelta2, 5, true, false)
	}
}

// benchPrepared prepares inst once, so the search benchmarks measure
// the search alone (BenchmarkPrepare measures the preparation). It fails
// b unless the largest component's rows are words wide.
func benchPrepared(b *testing.B, inst testInstance, words int) *Prepared {
	b.Helper()
	pr, err := Prepare(inst.g, inst.p)
	if err != nil {
		b.Fatal(err)
	}
	if biggest := largest(b, pr.probs); rowWords(biggest.n) != words {
		b.Fatalf("the %d-vertex component has rows %d words wide, want %d", biggest.n, rowWords(biggest.n), words)
	}
	return pr
}

func BenchmarkEnumerateHardBand(b *testing.B) {
	pr := benchPrepared(b, benchInstance(), 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pr.Enumerate(EnumOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.TimedOut {
			b.Fatal("unexpected timeout")
		}
	}
}

func BenchmarkFindMaximumHardBand(b *testing.B) {
	pr := benchPrepared(b, benchInstance(), 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.FindMaximum(MaxOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// largeSparseInstance builds one component of about 1,900 vertices and
// average degree about 8: a ring lattice joining each vertex to the next
// four, plus random chords, on points spread over a square so that about
// 11% of pairs are dissimilar (and as many edges are filtered out). Its
// rows are 30 words wide, far above its average degree, so most of
// their words are zero.
func largeSparseInstance() testInstance {
	rng := rand.New(rand.NewSource(2000))
	const n = 2000
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 1; d <= 4; d++ {
			b.AddEdge(int32(v), int32((v+d)%n))
		}
	}
	for i := 0; i < n/2; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	geo := attr.NewGeo(n)
	for v := 0; v < n; v++ {
		geo.SetVertex(int32(v), attr.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	return testInstance{
		g: b.Build(),
		p: Params{K: 5, Oracle: similarity.NewOracle(similarity.Euclidean{Store: geo}, 83)},
	}
}

// largeSparseNodes caps the large sparse searches, which would run for
// hours, at about a second per search.
const largeSparseNodes = 32

func BenchmarkEnumerateLargeSparse(b *testing.B) {
	pr := benchPrepared(b, largeSparseInstance(), 30)
	opt := EnumOptions{Limits: Limits{MaxNodes: largeSparseNodes}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pr.Enumerate(opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Nodes != largeSparseNodes {
			b.Fatalf("searched %d nodes, want %d", res.Nodes, largeSparseNodes)
		}
	}
}

func BenchmarkFindMaximumLargeSparse(b *testing.B) {
	pr := benchPrepared(b, largeSparseInstance(), 30)
	opt := MaxOptions{Limits: Limits{MaxNodes: largeSparseNodes}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pr.FindMaximum(opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Nodes != largeSparseNodes {
			b.Fatalf("searched %d nodes, want %d", res.Nodes, largeSparseNodes)
		}
	}
}

func BenchmarkCliquePlusHardBand(b *testing.B) {
	inst := benchInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CliquePlus(inst.g, inst.p, CliqueOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForceSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	inst := randomGeoInstance(rng, 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BruteForce(inst.g, inst.p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmPresetSearches runs the default searches on cached
// settings, as a warm server does: on brightkite, gowalla and dblp at
// the default r, each op runs Enumerate, EnumerateContaining at the
// first vertex of the setting's maximum core, and FindMaximum on each
// of k = 4, 5 and 6, prepared outside the timer.
func BenchmarkWarmPresetSearches(b *testing.B) {
	for _, preset := range []string{"brightkite", "gowalla", "dblp"} {
		b.Run(preset, func(b *testing.B) {
			d, err := dataset.Load(preset)
			if err != nil {
				b.Fatal(err)
			}
			r, err := d.DefaultThreshold()
			if err != nil {
				b.Fatal(err)
			}
			o := similarity.NewOracle(d.Metric(), r)
			type setting struct {
				pr     *Prepared
				anchor int32
			}
			var settings []setting
			for k := 4; k <= 6; k++ {
				pr, err := Prepare(d.Graph, Params{K: k, Oracle: o})
				if err != nil {
					b.Fatal(err)
				}
				res, err := pr.FindMaximum(MaxOptions{})
				if err != nil || len(res.Cores) == 0 {
					b.Fatalf("%s k=%d: no maximum core (%v)", preset, k, err)
				}
				settings = append(settings, setting{pr, res.Cores[0][0]})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, st := range settings {
					if _, err := st.pr.Enumerate(EnumOptions{}); err != nil {
						b.Fatal(err)
					}
					if _, err := st.pr.EnumerateContaining(st.anchor, EnumOptions{}); err != nil {
						b.Fatal(err)
					}
					if _, err := st.pr.FindMaximum(MaxOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// dblpSettings are the settings the dblp benchmarks prepare: the hot
// (5, r0) and three of the kind a cold sweep draws (k in 4..10, r in
// [0.7, 1.3]·r0), as k and a factor of r0.
var dblpSettings = []struct {
	k int
	f float64
}{{5, 1}, {4, 0.75}, {7, 1.1}, {9, 1.25}}

// loadDBLP loads the dblp preset and its default threshold r0, with the
// preset's weighted-Jaccard metric or, unweighted, the Jaccard metric
// over the same keys without their weights (the Keywords store, which
// no preset uses). At the same r0 both keep about the same edges.
func loadDBLP(b *testing.B, weighted bool) (*graph.Graph, similarity.Metric, float64) {
	d, err := dataset.Load("dblp")
	if err != nil {
		b.Fatal(err)
	}
	r0, err := d.DefaultThreshold()
	if err != nil {
		b.Fatal(err)
	}
	if weighted {
		return d.Graph, d.Metric(), r0
	}
	ws := d.Metric().(similarity.WeightedJaccard).Store
	kw := attr.NewKeywords(d.Graph.N())
	for u := int32(0); u < int32(d.Graph.N()); u++ {
		kw.SetVertex(u, append([]int32(nil), ws.Keys(u)...))
	}
	return d.Graph, similarity.Jaccard{Store: kw}, r0
}

// BenchmarkPrepareDBLP times PrepareFiltered on dblp at each of
// dblpSettings: the k-core peel, the component split and each
// component's problem, dissimilarity lists included. The index and
// the filtered graph are built outside the timer, as a serving engine
// keeps them per threshold.
func BenchmarkPrepareDBLP(b *testing.B) { benchPrepareDBLP(b, true) }

// BenchmarkPrepareDBLPKeywords is BenchmarkPrepareDBLP on the
// unweighted Jaccard metric over dblp's keys.
func BenchmarkPrepareDBLPKeywords(b *testing.B) { benchPrepareDBLP(b, false) }

func benchPrepareDBLP(b *testing.B, weighted bool) {
	g, m, r0 := loadDBLP(b, weighted)
	for _, s := range dblpSettings {
		b.Run(fmt.Sprintf("k=%d,r=%.2fr0", s.k, s.f), func(b *testing.B) {
			o := similarity.NewOracle(m, s.f*r0)
			simindex.For(o)
			p := Params{K: s.k, Oracle: o}
			filtered := FilterDissimilar(g, o)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PrepareFiltered(filtered, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFindMaximumDBLP times FindMaximum on dblp at each of
// dblpSettings, prepared outside the timer: the search of the hot
// re-query at (5, r0) and those of three new settings a cold sweep
// prepares and searches once each.
func BenchmarkFindMaximumDBLP(b *testing.B) {
	g, m, r0 := loadDBLP(b, true)
	for _, s := range dblpSettings {
		b.Run(fmt.Sprintf("k=%d,r=%.2fr0", s.k, s.f), func(b *testing.B) {
			pr, err := Prepare(g, Params{K: s.k, Oracle: similarity.NewOracle(m, s.f*r0)})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pr.FindMaximum(MaxOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFilterDissimilarDBLP times the one-shot dissimilar-edge
// filter on dblp at the thresholds of dblpSettings, each with its
// index attached outside the timer.
func BenchmarkFilterDissimilarDBLP(b *testing.B) { benchFilterDBLP(b, true) }

// BenchmarkFilterDissimilarDBLPKeywords is BenchmarkFilterDissimilarDBLP
// on the unweighted Jaccard metric over dblp's keys.
func BenchmarkFilterDissimilarDBLPKeywords(b *testing.B) { benchFilterDBLP(b, false) }

func benchFilterDBLP(b *testing.B, weighted bool) {
	g, m, r0 := loadDBLP(b, weighted)
	for _, s := range dblpSettings {
		b.Run(fmt.Sprintf("r=%.2fr0", s.f), func(b *testing.B) {
			o := similarity.NewOracle(m, s.f*r0)
			simindex.For(o)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FilterDissimilar(g, o)
			}
		})
	}
}
