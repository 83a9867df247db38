package simindex_test

import (
	"math"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// fuzzKeys are the keys a fuzz input picks from: shared small ids,
// negative ones and both ends of int32.
var fuzzKeys = []int32{0, 1, 2, 3, -1, -2, math.MinInt32, math.MaxInt32}

// fuzzWeight decodes one weight byte: quarters (whose sums are exact),
// tenths and thirds (whose sums round), and a few extremes.
func fuzzWeight(b byte) float64 {
	switch {
	case b < 96:
		return float64(b%16) / 4
	case b < 176:
		return float64(b%16) / 10
	case b < 248:
		return float64(b%8) / 3
	case b == 248:
		return 5e-324 // the smallest subnormal
	case b == 249:
		return 1e-300
	case b == 250:
		return 1e300
	case b == 251:
		return math.MaxFloat64 / 3
	case b == 252:
		return 0x1p-1022 // the smallest normal
	case b == 253:
		return 0x1.5p-1022
	default:
		return 0
	}
}

// fuzzStores decodes a fuzz input into one store per attribute kind
// over the same vertices. data[0] picks the vertex count; then each
// vertex reads a length byte and that many (key, weight) byte pairs.
// The geo point of a vertex is its first two weights. A weighted list
// the store refuses (weights that overflow once merged) is left empty.
func fuzzStores(data []byte) (*attr.Geo, *attr.Keywords, *attr.Weighted) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next()%7)
	geo, kw, ww := attr.NewGeo(n), attr.NewKeywords(n), attr.NewWeighted(n)
	for u := int32(0); u < int32(n); u++ {
		var keys []int32
		var entries []attr.WeightedEntry
		var xy [2]float64
		for i := 0; i < int(next()%7); i++ {
			k, w := fuzzKeys[next()%byte(len(fuzzKeys))], fuzzWeight(next())
			keys = append(keys, k)
			entries = append(entries, attr.WeightedEntry{Key: k, Weight: w})
			if i < 2 {
				xy[i] = w
			}
		}
		geo.SetVertex(u, attr.Point{X: xy[0], Y: xy[1]})
		kw.SetVertex(u, keys)
		if attr.CheckWeights(entries) == nil {
			ww.SetVertex(u, entries)
		}
	}
	return geo, kw, ww
}

// FuzzPairTest checks the pair test of every engine that has one
// against Oracle.Similar on every ordered pair of a small decoded
// instance: Grid on the geo store, Inverted and WeightedInverted on
// the keyword stores. tie%4 picks
// the threshold: r itself, or the metric's own key for the pair (0,1),
// exactly or one ulp above or below, so that pair sits on the
// threshold; for the weighted metric it then falls inside the pair
// test's band, where the test must defer to the merge. The seeds
// include such ties on weights whose sums round.
func FuzzPairTest(f *testing.F) {
	// Ties inside the band: the gathered ratio of the weighted pair
	// (0,1) lands one ulp below the merge's score (r = that score, so
	// the pair is similar) and one ulp above it (r one ulp above the
	// score, so the pair is dissimilar).
	f.Add([]byte{0, 4, 1, 124, 2, 207, 1, 233, 2, 191, 3, 0, 154, 3, 193, 3, 184}, 0.0, uint8(1))
	f.Add([]byte{0, 2, 3, 105, 2, 97, 3, 2, 109, 3, 124, 0, 170}, 0.0, uint8(2))
	f.Add([]byte{0, 2, 3, 105, 2, 97, 3, 2, 109, 3, 124, 0, 170}, 0.0, uint8(3))
	// A threshold of one subnormal ulp: the two ratios round to
	// different subnormals, so only the merge may decide.
	f.Add([]byte{0, 3, 0, 248, 2, 44, 3, 64, 5, 0, 186, 2, 65, 1, 221, 3, 185, 2, 249}, 0.0, uint8(1))
	// Weights whose Σmin overflows: the merge scores the pair NaN, so it
	// is similar at no threshold, not even r = 0.
	f.Add([]byte("00000000000C\xfb0C\xfb0$\xfb000000000000000000000C\xfb0C\xfb0$\xfb"), 0.0, uint8(0))
	// Weights whose sum overflows: W_u + W_v is infinite.
	f.Add([]byte("00C\xfb100\xfb0C\xfb"), 0.0, uint8(1))
	f.Add([]byte{1, 3, 0, 4, 1, 8, 2, 12, 3, 0, 4, 1, 4, 3, 4, 2, 180, 3, 200}, 0.3, uint8(0))
	f.Add([]byte{4, 2, 6, 248, 7, 250, 2, 6, 251, 7, 249, 0, 1, 5, 0}, 1e-310, uint8(0))
	f.Add([]byte{2, 1, 3, 0, 0, 2, 3, 5, 3, 5}, math.Inf(1), uint8(0))
	f.Add([]byte{2, 1, 3, 0, 0, 2, 3, 5, 3, 5}, math.NaN(), uint8(1))
	f.Add([]byte{3, 2, 0, 1, 0, 1, 2, 0, 1, 0, 1}, -0.25, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, r float64, tie uint8) {
		geo, kw, ww := fuzzStores(data)
		metrics := []similarity.Metric{
			similarity.Euclidean{Store: geo},
			similarity.Jaccard{Store: kw},
			similarity.WeightedJaccard{Store: ww},
		}
		for _, m := range metrics {
			thr := r
			if tie%4 != 0 {
				thr = similarity.NewOracle(m, 0).Key(0, 1)
				if _, ok := m.(similarity.Euclidean); ok {
					thr = math.Sqrt(thr)
				}
				switch tie % 4 {
				case 2:
					thr = math.Nextafter(thr, math.Inf(1))
				case 3:
					thr = math.Nextafter(thr, math.Inf(-1))
				}
			}
			o := similarity.NewOracle(m, thr)
			test := simindex.NewPairTest(o)
			n := int32(geo.N())
			for u := int32(0); u < n; u++ {
				test.Probe(u)
				for v := int32(0); v < n; v++ {
					if v == u {
						continue
					}
					if got, want := test.Similar(v), o.Similar(u, v); got != want {
						t.Fatalf("%s r=%v: pair (%d,%d) test says %v, oracle %v (key %v)",
							m.Name(), thr, u, v, got, want, o.Key(u, v))
					}
				}
			}
		}
	})
}
