// Package metrics is the self-contained observability substrate of the
// serving layer: lock-free counters and fixed-bucket latency
// histograms, collected in a Registry that renders the Prometheus text
// exposition format (version 0.0.4) — no external dependencies, so the
// daemon's /metrics endpoint costs nothing to ship and nothing to
// scrape.
//
// Hot-path instruments (Counter, Histogram and their labelled Vec
// variants) are updated with single atomic operations; label
// resolution (Vec.With) takes a read lock only on the child-map lookup
// and callers on a steady label set should cache the returned child.
// Pull-style series — values that live elsewhere, like engine cache
// counters, gauges or runtime stats — register a SampleFunc callback
// gathered at scrape time.
//
// Histograms estimate quantiles the standard Prometheus way: the
// observation count per fixed bucket, with linear interpolation inside
// the bucket holding the requested rank. The estimate's error is
// bounded by the bucket width around the true quantile, which is why
// the default latency buckets grow geometrically — constant relative
// error across six orders of magnitude.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a pull-style SampleFunc family for the TYPE line.
type Kind int

const (
	// KindCounter renders as a Prometheus counter (monotone total).
	KindCounter Kind = iota
	// KindGauge renders as a Prometheus gauge (point-in-time value).
	KindGauge
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Sample is one series of a pull-style family: its label values (in
// the family's label-name order) and current value.
type Sample struct {
	Labels []string
	Value  float64
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be >= 0 for the series to stay a valid
// Prometheus counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution of float64 observations
// (latencies in seconds, batch sizes, ...). Observations are two
// atomic operations; there is no per-observation allocation.
type Histogram struct {
	bounds []float64       // strictly increasing finite upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // IEEE-754 bits of the observation sum
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("metrics: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution: it finds the bucket holding the rank q·count and
// interpolates linearly inside it, exactly as Prometheus's
// histogram_quantile does. Ranks landing in the +Inf overflow bucket
// return the largest finite bound (the estimate cannot exceed the
// instrumented range); an empty histogram returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		return lower + (h.bounds[i]-lower)*(rank-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// ExponentialBuckets returns count bounds starting at start, each
// factor times the previous — the right shape for latency, where
// relative error matters at every magnitude.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("metrics: ExponentialBuckets needs start > 0, factor > 1, count >= 1")
	}
	b := make([]float64, count)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// DefLatencyBuckets spans 50µs to ~27s geometrically (×2 per bucket,
// 20 buckets): sub-millisecond cache hits, multi-second cold searches
// and everything between resolve with ≤ 2× relative quantile error.
func DefLatencyBuckets() []float64 { return ExponentialBuckets(50e-6, 2, 20) }

// family is one named metric family in a registry.
type family struct {
	name string
	help string
	typ  string
	// collect gathers the family's rendered sample lines. It may take
	// family-internal locks but must not block on I/O: the registry
	// writes the lines to the scrape response only after collect
	// returns.
	collect func() []string
}

// Registry holds metric families and renders them in registration
// order. All methods are safe for concurrent use; registration is
// expected at construction time (duplicate or invalid names panic —
// they are programming errors, not runtime conditions).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

func (r *Registry) register(name, help, typ string, collect func() []string) {
	checkName(name, "metric")
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.byName[name] = true
	r.families = append(r.families, &family{name: name, help: help, typ: typ, collect: collect})
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func() []string {
		return []string{sampleLine(name, "", c.Value())}
	})
	return c
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (strictly increasing; a +Inf overflow bucket is
// implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, "histogram", func() []string {
		return renderHistogram(name, "", h)
	})
	return h
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{vec: newVec(labelNames)}
	r.register(name, help, "counter", func() []string {
		var lines []string
		for _, ch := range v.vec.children() {
			lines = append(lines, sampleLine(name, ch.labels, ch.metric.(*Counter).Value()))
		}
		return lines
	})
	return v
}

// HistogramVec registers a labelled histogram family; every child
// shares the same bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	newHistogram(bounds) // validate once, loudly, at registration
	v := &HistogramVec{vec: newVec(labelNames), bounds: bounds}
	r.register(name, help, "histogram", func() []string {
		var lines []string
		for _, ch := range v.vec.children() {
			lines = append(lines, renderHistogram(name, ch.labels, ch.metric.(*Histogram))...)
		}
		return lines
	})
	return v
}

// SampleFunc registers a pull-style family: fn is called at scrape
// time and returns one Sample per series, each with len(labelNames)
// label values. fn must not block on I/O and must tolerate concurrent
// calls.
func (r *Registry) SampleFunc(name, help string, kind Kind, labelNames []string, fn func() []Sample) {
	for _, l := range labelNames {
		checkName(l, "label")
	}
	names := append([]string(nil), labelNames...)
	r.register(name, help, kind.String(), func() []string {
		samples := fn()
		lines := make([]string, 0, len(samples))
		for _, s := range samples {
			if len(s.Labels) != len(names) {
				panic(fmt.Sprintf("metrics: %s sample has %d label values, family declares %d", name, len(s.Labels), len(names)))
			}
			lines = append(lines, name+labelBlock(renderLabels(names, s.Labels))+" "+formatFloat(s.Value))
		}
		return lines
	})
}

// WriteText renders every family in the Prometheus text exposition
// format. Samples are gathered before anything is written, so no
// registry or family lock is held while w (typically a network
// response) blocks.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, line := range f.collect() {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TextContentType is the Content-Type of the rendered exposition.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// vec is the shared child-map machinery of the labelled families.
type vec struct {
	labelNames []string
	mu         sync.RWMutex
	kids       map[string]any
}

func newVec(labelNames []string) *vec {
	if len(labelNames) == 0 {
		panic("metrics: a Vec needs at least one label name")
	}
	for _, l := range labelNames {
		checkName(l, "label")
	}
	return &vec{labelNames: append([]string(nil), labelNames...), kids: map[string]any{}}
}

// with returns the child for the label values, creating it with mk on
// first use.
func (v *vec) with(values []string, mk func() any) any {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("metrics: got %d label values, want %d", len(values), len(v.labelNames)))
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	m, ok := v.kids[key]
	v.mu.RUnlock()
	if ok {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok := v.kids[key]; ok {
		return m
	}
	// Every mk in this package is a plain struct constructor; nothing
	// caller-supplied crosses the package boundary, so running it under
	// v.mu cannot reach I/O.
	m = mk() //krlint:ignore lockheld mk is a package-local pure constructor
	v.kids[key] = m
	return m
}

// child pairs a rendered label block body with its metric, for
// deterministic (label-sorted) scrape output.
type child struct {
	labels string
	metric any
}

func (v *vec) children() []child {
	v.mu.RLock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]child, 0, len(keys))
	for _, k := range keys {
		out = append(out, child{
			labels: renderLabels(v.labelNames, strings.Split(k, "\xff")),
			metric: v.kids[k],
		})
	}
	v.mu.RUnlock()
	return out
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ vec *vec }

// With returns the counter for the given label values (in the
// family's label-name order), creating it on first use. Callers on a
// hot path with a fixed label set should cache the result.
func (v *CounterVec) With(values ...string) *Counter {
	return v.vec.with(values, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a family of histograms distinguished by label
// values.
type HistogramVec struct {
	vec    *vec
	bounds []float64
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.vec.with(values, func() any { return newHistogram(v.bounds) }).(*Histogram)
}

// renderLabels renders `a="x",b="y"` (no braces) with escaped values.
func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// labelBlock wraps a non-empty label body in braces.
func labelBlock(body string) string {
	if body == "" {
		return ""
	}
	return "{" + body + "}"
}

func sampleLine(name, labels string, v int64) string {
	return name + labelBlock(labels) + " " + strconv.FormatInt(v, 10)
}

// renderHistogram emits the cumulative _bucket series plus _sum and
// _count, merging the family labels with le.
func renderHistogram(name, labels string, h *Histogram) []string {
	lines := make([]string, 0, len(h.bounds)+3)
	var cum uint64
	withLE := func(le string) string {
		body := labels
		if body != "" {
			body += ","
		}
		return labelBlock(body + `le="` + le + `"`)
	}
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		lines = append(lines, name+"_bucket"+withLE(formatFloat(bound))+" "+strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.bounds)].Load()
	lines = append(lines,
		name+"_bucket"+withLE("+Inf")+" "+strconv.FormatUint(cum, 10),
		name+"_sum"+labelBlock(labels)+" "+formatFloat(h.Sum()),
		name+"_count"+labelBlock(labels)+" "+strconv.FormatUint(cum, 10),
	)
	return lines
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// checkName validates a metric or label name against the Prometheus
// grammar.
func checkName(s, what string) {
	if s == "" {
		panic("metrics: empty " + what + " name")
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(what == "metric" && c == ':') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid %s name %q", what, s))
		}
	}
}
