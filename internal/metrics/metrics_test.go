package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "operations")
	depth := int64(7)
	r.SampleFunc("test_depth", "queue depth", KindGauge, nil, func() []Sample {
		return []Sample{{Value: float64(depth)}}
	})
	c.Add(41)
	c.Inc()
	depth -= 3

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_ops_total operations
# TYPE test_ops_total counter
test_ops_total 42
# HELP test_depth queue depth
# TYPE test_depth gauge
test_depth 4
`
	if b.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestVecLabelsAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_errs_total", "errors", "endpoint", "cause")
	v.With("enumerate", "timeout").Add(3)
	v.With("update", `quo"te\and`+"\nnewline").Inc()
	if v.With("enumerate", "timeout") != v.With("enumerate", "timeout") {
		t.Fatal("With is not caching children")
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_errs_total{endpoint="enumerate",cause="timeout"} 3`,
		`test_errs_total{endpoint="update",cause="quo\"te\\and\nnewline"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestHistogramQuantileUniform checks the interpolation against a
// known uniform distribution: with fine buckets, p50/p99/p999 must
// land within one bucket width of the true quantiles.
func TestHistogramQuantileUniform(t *testing.T) {
	bounds := make([]float64, 100) // 0.01 .. 1.00
	for i := range bounds {
		bounds[i] = float64(i+1) / 100
	}
	h := newHistogram(bounds)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Observe((float64(i) + 0.5) / n)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if s := h.Sum(); math.Abs(s-n/2) > 1 {
		t.Fatalf("sum = %f, want ~%d", s, n/2)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0.5}, {0.99, 0.99}, {0.999, 0.999}, {0.25, 0.25},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 0.011 {
			t.Errorf("Quantile(%g) = %g, want %g ± one bucket width", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileExponential cross-checks against the empirical
// quantiles of a deterministic exponential-ish sample with geometric
// buckets: the relative error must stay within one bucket factor.
func TestHistogramQuantileExponential(t *testing.T) {
	h := newHistogram(ExponentialBuckets(1e-4, 1.5, 40))
	rng := rand.New(rand.NewSource(8))
	var xs []float64
	for i := 0; i < 50000; i++ {
		x := rng.ExpFloat64() * 2e-3 // mean 2ms
		xs = append(xs, x)
		h.Observe(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := sorted[int(q*float64(len(sorted)))-1]
		got := h.Quantile(q)
		if got < want/1.5 || got > want*1.5 {
			t.Errorf("Quantile(%g) = %g, empirical %g: outside one bucket factor", q, got, want)
		}
	}
}

// TestHistogramQuantileEdges pins the documented estimator semantics:
// point masses interpolate inside their bucket, overflow observations
// report the largest finite bound, empties are NaN.
func TestHistogramQuantileEdges(t *testing.T) {
	h := newHistogram([]float64{0.5, 1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.9) // all mass in the (0.5, 1] bucket
	}
	if got := h.Quantile(0.5); got != 0.75 {
		t.Fatalf("point-mass p50 = %g, want the bucket midpoint 0.75", got)
	}
	if got := h.Quantile(1); got != 1.0 {
		t.Fatalf("point-mass p100 = %g, want the bucket upper bound 1", got)
	}

	over := newHistogram([]float64{0.001, 0.01})
	over.Observe(5)
	over.Observe(7)
	if got := over.Quantile(0.99); got != 0.01 {
		t.Fatalf("overflow quantile = %g, want the largest finite bound 0.01", got)
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(10)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_seconds latency
# TYPE test_seconds histogram
test_seconds_bucket{le="0.1"} 1
test_seconds_bucket{le="1"} 3
test_seconds_bucket{le="+Inf"} 4
test_seconds_sum 11.05
test_seconds_count 4
`
	if b.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_req_seconds", "per endpoint", []float64{1}, "endpoint")
	v.With("enumerate").Observe(0.5)
	v.With("maximum").Observe(2)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_req_seconds_bucket{endpoint="enumerate",le="1"} 1`,
		`test_req_seconds_bucket{endpoint="maximum",le="+Inf"} 1`,
		`test_req_seconds_count{endpoint="maximum"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSampleFunc(t *testing.T) {
	r := NewRegistry()
	r.SampleFunc("test_cache_hits_total", "per setting", KindCounter, []string{"k", "r"}, func() []Sample {
		return []Sample{
			{Labels: []string{"5", "10"}, Value: 12},
			{Labels: []string{"6", "12.5"}, Value: 3},
		}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_cache_hits_total counter",
		`test_cache_hits_total{k="5",r="10"} 12`,
		`test_cache_hits_total{k="6",r="12.5"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines (run under -race in CI) and checks the totals are exact:
// lock-free must not mean lossy.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "x")
	h := r.Histogram("test_h", "x", DefLatencyBuckets())
	v := r.CounterVec("test_v_total", "x", "who")

	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lab := []string{"a", "b"}[w%2]
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.001 * float64(i%10))
				v.With(lab).Inc()
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WriteText(&b) // scrape concurrently with updates
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got := v.With("a").Value() + v.With("b").Value(); got != workers*per {
		t.Fatalf("vec total = %d, want %d", got, workers*per)
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	for name, fn := range map[string]func(){
		"duplicate name": func() { r.Counter("dup_total", "x") },
		"invalid name":   func() { r.Counter("bad-name", "x") },
		"empty bounds":   func() { r.Histogram("h_total", "x", nil) },
		"bad bounds":     func() { r.Histogram("h2_total", "x", []float64{2, 1}) },
		"no vec labels":  func() { r.CounterVec("v_total", "x") },
		"bad label":      func() { r.CounterVec("v2_total", "x", "le gal") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestVecArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}
