package simindex

import (
	"math"

	"krcore/internal/attr"
	"krcore/internal/similarity"
)

// NewPairTest returns the exact pair test of the oracle's engine (see
// similarity.PairTest), attaching the engine first (see For). Each
// indexed engine decides a pair from its own data:
//
//   - Grid compares the store's Distance2 with r², the oracle's own key.
//   - Inverted gathers the intersection over a dense row of the probing
//     vertex's keys (indexed by the store's dense key ids), so
//     inter/union is the oracle's exact key.
//   - WeightedInverted gathers Σmin the same way and takes
//     W_u + W_v − Σmin as the denominator, W being the store's totals;
//     see weightedTest for when it falls back to the oracle's merge.
//
// Any other engine (Serial, Brute over a custom metric, or a caller's
// own engine attached with Oracle.SetBulk) has no test: NewPairTest
// returns nil, and callers build from the engine's SimilarAdjacency
// instead, which Brute shards across cores.
func NewPairTest(o *similarity.Oracle) similarity.PairTest {
	switch ix := For(o).(type) {
	case *Grid:
		return &gridTest{store: ix.store, r2: ix.r2}
	case *Inverted:
		if !(ix.r > 0) {
			return constTest(ix.r <= 0)
		}
		return &jaccardTest{store: ix.store, r: ix.r, in: make([]uint8, ix.store.NumIDs())}
	case *WeightedInverted:
		if math.IsNaN(ix.r) {
			return constTest(false)
		}
		band := ix.r * gatherBand
		if ix.r < minTrusted {
			band = math.Inf(1) // every pair takes the merge
		}
		return &weightedTest{
			store: ix.store,
			r:     ix.r,
			band:  band,
			row:   make([]float64, ix.store.NumIDs()),
		}
	}
	return nil
}

// constTest answers every pair alike: a NaN threshold makes no pair
// similar, and Jaccard, which scores every pair at least 0, makes every
// pair similar at r <= 0.
type constTest bool

func (constTest) Probe(int32)          {}
func (t constTest) Similar(int32) bool { return bool(t) }

// gridTest is Grid's test: the oracle's geo fast path.
type gridTest struct {
	store *attr.Geo
	r2    float64
	u     int32
}

func (t *gridTest) Probe(u int32)        { t.u = u }
func (t *gridTest) Similar(v int32) bool { return t.store.Distance2(t.u, v) <= t.r2 }

// jaccardTest is Inverted's test. in marks, by dense id, the keys of
// the probing vertex, whose ids it keeps to clear them again.
type jaccardTest struct {
	store *attr.Keywords
	r     float64
	in    []uint8
	ids   []int32
}

func (t *jaccardTest) Probe(u int32) {
	for _, id := range t.ids {
		t.in[id] = 0
	}
	t.ids = t.store.IDs(u)
	for _, id := range t.ids {
		t.in[id] = 1
	}
}

// Similar counts the shared keys exactly, so the score is the one
// Keywords.Jaccard computes: 0 for two empty sets, inter/union else.
func (t *jaccardTest) Similar(v int32) bool {
	ids, in := t.store.IDs(v), t.in
	inter := 0
	for _, id := range ids {
		inter += int(in[id])
	}
	score := 0.0
	if union := len(t.ids) + len(ids) - inter; union > 0 {
		score = float64(inter) / float64(union)
	}
	return score >= t.r
}

// The weighted test's error bound. Its numerator Σmin is the merge's
// bit for bit; its denominator W_u + W_v − Σmin differs from the
// merge's Σmax by rounding alone. Each of W_u, W_v, Σmin and Σmax is
// a float sum of at most n = |u| + |v| non-negative terms, with a
// relative error of at most γ_n = n·2⁻⁵³/(1 − n·2⁻⁵³). Since
// Σmin <= min(W_u, W_v), the exact denominator is at least
// (W_u + W_v)/2, so the subtraction adds no more than 3γ_n + 3·2⁻⁵³,
// and the two ratios differ by a relative 4γ_n + 5·2⁻⁵³ or less:
// under 3·10⁻¹¹ for n <= gatherMaxLen, far inside the band. The bound
// holds while no sum overflows; the test runs the merge for a total
// that might, for a NaN ratio, inside the band, for longer lists and
// at thresholds below minTrusted.
const (
	// gatherBand is the relative half-width of the band around r in
	// which the weighted test does not trust its ratio.
	gatherBand = 1e-9
	// gatherMaxLen is the longest pair of lists, in entries, the error
	// bound covers.
	gatherMaxLen = 1 << 16
	// minTrusted is the smallest threshold the weighted test decides
	// by its ratio. A ratio below the smallest normal float, 2⁻¹⁰²², has
	// an absolute rounding error, not a relative one; from minTrusted
	// up such a ratio, and the merge's beside it, still lies far below
	// r, and every ratio outside the band above r is normal.
	minTrusted = 0x1p-1000
)

// weightedTest is WeightedInverted's test. row holds, by dense id, the
// probing vertex's weights and 0 for keys it lacks, so min(row[id], w)
// adds +0 for every key of v the probing vertex lacks and Σmin over v's
// keys, in v's key order, is the merge's numerator: the same additions
// in the same (ascending key) order. That needs every weight to be
// non-negative, which the store guarantees.
type weightedTest struct {
	store   *attr.Weighted
	r, band float64
	row     []float64
	u       int32
	wu      float64 // the probing vertex's total weight
	ids     []int32
}

func (t *weightedTest) Probe(u int32) {
	for _, id := range t.ids {
		t.row[id] = 0
	}
	t.u, t.wu, t.ids = u, t.store.Total(u), t.store.IDs(u)
	for i, w := range t.store.Weights(u) {
		t.row[t.ids[i]] = w
	}
}

// Similar keeps its common path free of branches on the data, which
// the CPU would mispredict: min compiles to a select, and only the rare
// fallback to the merge is a branch.
func (t *weightedTest) Similar(v int32) bool {
	ids, ws, row := t.store.IDs(v), t.store.Weights(v), t.row
	ws = ws[:len(ids)]
	var num float64
	for i, id := range ids {
		num += min(row[id], ws[i])
	}
	if t.r <= 0 {
		// Every score is at least 0 >= r but a NaN one, which the merge
		// yields exactly when its Σmin, this same sum, overflows (its
		// Σmax never falls below its Σmin).
		return num <= math.MaxFloat64
	}
	// No sum overflows while W_u + W_v stays below half the largest
	// float; the comparison also fails for an infinite or NaN total,
	// as the band test does for a NaN ratio.
	total := t.wu + t.store.Total(v)
	q := num / (total - num)
	if total <= math.MaxFloat64/2 && len(t.ids)+len(ids) <= gatherMaxLen && math.Abs(q-t.r) > t.band {
		return q >= t.r
	}
	return t.store.WeightedJaccard(t.u, v) >= t.r
}
