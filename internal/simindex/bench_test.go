package simindex_test

// Benchmarks for bulk similar-pair construction on the Table 3 dataset
// presets: each pair compares the serial per-pair oracle scan against
// the metric's index. The headline acceptance number is the geo preset
// at its default threshold (gowalla at DefaultR = 10km, the regime of
// the quickstart example and the geosocial case study), where the
// spatial grid replaces the O(n²) distance scan. The denser 25km and
// 100km thresholds are included to show how the advantage shrinks as
// the similar-pair output itself approaches quadratic size.
//
// Run with:
//
//	go test ./internal/simindex -bench SimilarPairs -benchtime 20x
//
// Representative single-core results (Intel Xeon 2.10GHz, GOMAXPROCS=1)
// are recorded in the README's benchmark section.

import (
	"testing"

	"krcore/internal/dataset"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// allVertices returns 0..n-1 for a dataset graph.
func allVertices(d *dataset.Dataset) []int32 {
	vs := make([]int32, d.Graph.N())
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}

// benchAdjacency measures one engine's bulk similar-pair construction
// over the whole preset vertex set.
func benchAdjacency(b *testing.B, src similarity.BulkSource, vs []int32) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if adj := src.SimilarAdjacency(vs, nil); len(adj) != len(vs) {
			b.Fatal("bad adjacency size")
		}
	}
}

func loadPreset(b *testing.B, name string) *dataset.Dataset {
	b.Helper()
	d, err := dataset.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// defaultR resolves a geo preset's declared default threshold.
func defaultR(b *testing.B, name string) float64 {
	b.Helper()
	cfg, err := dataset.Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	return cfg.DefaultR
}

// Gowalla at its default r (10km).

func BenchmarkSimilarPairsGowallaDefaultSerial(b *testing.B) {
	d := loadPreset(b, "gowalla")
	o := d.Oracle(defaultR(b, "gowalla"))
	benchAdjacency(b, simindex.NewSerial(o), allVertices(d))
}

func BenchmarkSimilarPairsGowallaDefaultGrid(b *testing.B) {
	d := loadPreset(b, "gowalla")
	src := simindex.NewGrid(d.Geo, defaultR(b, "gowalla"))
	benchAdjacency(b, src, allVertices(d))
}

// Gowalla at denser thresholds: the output itself grows toward
// quadratic, shrinking the achievable advantage.

func BenchmarkSimilarPairsGowalla25kmSerial(b *testing.B) {
	d := loadPreset(b, "gowalla")
	benchAdjacency(b, simindex.NewSerial(d.Oracle(25)), allVertices(d))
}

func BenchmarkSimilarPairsGowalla25kmGrid(b *testing.B) {
	d := loadPreset(b, "gowalla")
	benchAdjacency(b, simindex.NewGrid(d.Geo, 25), allVertices(d))
}

func BenchmarkSimilarPairsGowalla100kmSerial(b *testing.B) {
	d := loadPreset(b, "gowalla")
	benchAdjacency(b, simindex.NewSerial(d.Oracle(100)), allVertices(d))
}

func BenchmarkSimilarPairsGowalla100kmGrid(b *testing.B) {
	d := loadPreset(b, "gowalla")
	benchAdjacency(b, simindex.NewGrid(d.Geo, 100), allVertices(d))
}

// Brightkite at its default r (10km).

func BenchmarkSimilarPairsBrightkiteDefaultSerial(b *testing.B) {
	d := loadPreset(b, "brightkite")
	o := d.Oracle(defaultR(b, "brightkite"))
	benchAdjacency(b, simindex.NewSerial(o), allVertices(d))
}

func BenchmarkSimilarPairsBrightkiteDefaultGrid(b *testing.B) {
	d := loadPreset(b, "brightkite")
	src := simindex.NewGrid(d.Geo, defaultR(b, "brightkite"))
	benchAdjacency(b, src, allVertices(d))
}

// DBLP at its default calibration (top 3 permille, weighted Jaccard).

func dblpThreshold(b *testing.B, d *dataset.Dataset) float64 {
	b.Helper()
	cfg, err := dataset.Preset("dblp")
	if err != nil {
		b.Fatal(err)
	}
	return d.TopPermille(cfg.DefaultPermille)
}

func BenchmarkSimilarPairsDBLPDefaultSerial(b *testing.B) {
	d := loadPreset(b, "dblp")
	o := d.Oracle(dblpThreshold(b, d))
	benchAdjacency(b, simindex.NewSerial(o), allVertices(d))
}

func BenchmarkSimilarPairsDBLPDefaultInverted(b *testing.B) {
	d := loadPreset(b, "dblp")
	src := simindex.NewWeightedInverted(d.Weighted, dblpThreshold(b, d))
	benchAdjacency(b, src, allVertices(d))
}

// Index construction cost, for the build-once-serve-many trade-off.

func BenchmarkBuildGridGowalla(b *testing.B) {
	d := loadPreset(b, "gowalla")
	r := defaultR(b, "gowalla")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if simindex.NewGrid(d.Geo, r) == nil {
			b.Fatal("nil index")
		}
	}
}

func BenchmarkBuildInvertedDBLP(b *testing.B) {
	d := loadPreset(b, "dblp")
	r := dblpThreshold(b, d)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if simindex.NewWeightedInverted(d.Weighted, r) == nil {
			b.Fatal("nil index")
		}
	}
}
