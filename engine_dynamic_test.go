package krcore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krcore/internal/kcore"
)

// ---------------------------------------------------------------------
// Differential test harness: apply random mutation sequences to a
// DynamicEngine and assert after every step that Enumerate/FindMaximum
// results are bit-identical (same cores, same sizes) to a fresh
// NewEngine built from the mutated graph, across Euclidean and Jaccard
// metrics and several (k,r) presets. The race CI job runs this under
// -race.
// ---------------------------------------------------------------------

// diffSteps is the mutation count per metric; the acceptance bar is
// >= 500 randomized steps (reduced under -short for quick local runs).
func diffSteps(t *testing.T) int {
	if testing.Short() {
		return 120
	}
	return 500
}

// dynMirror is the ground truth a DynamicEngine run is checked against:
// the plain edge set and per-vertex attributes, rebuilt into a fresh
// Engine after every step.
type dynMirror struct {
	n     int
	edges map[[2]int32]bool
	attrs []VertexAttributes
}

func normPair(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// apply replicates ApplyBatch's semantics (in-order, last op wins) on
// the mirror. Only called for batches the engine accepted.
func (m *dynMirror) apply(ups []Update) {
	for _, up := range ups {
		switch up.Op {
		case OpAddVertex:
			m.n++
			m.attrs = append(m.attrs, VertexAttributes{})
		case OpAddEdge:
			m.edges[normPair(up.U, up.V)] = true
		case OpRemoveEdge:
			delete(m.edges, normPair(up.U, up.V))
		case OpSetAttributes:
			m.attrs[up.U] = up.Attrs
		}
	}
}

// graph builds the mirror's current graph.
func (m *dynMirror) graph() *Graph {
	b := NewGraphBuilder(m.n)
	for e := range m.edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// sortedEdges returns the mirror's edges in deterministic order (map
// iteration is randomized; random picks must come from the rng alone).
func (m *dynMirror) sortedEdges() [][2]int32 {
	out := make([][2]int32, 0, len(m.edges))
	for e := range m.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// diffMetric describes one metric flavour of the harness. Attributes
// are drawn per cluster (the same clusters the edge generator favours),
// so dense similar groups — and therefore non-trivial cores — exist.
type diffMetric struct {
	name    string
	presets []struct {
		k int
		r float64
	}
	newStore func() DynamicAttributes
	randAttr func(rng *rand.Rand, cluster int) VertexAttributes
}

// diffClusters is the number of planted clusters in the harness
// instances; vertex u belongs to cluster u % diffClusters.
const diffClusters = 4

// diffMetrics returns the Euclidean and Jaccard harness configurations.
func diffMetrics() []diffMetric {
	geoAttr := func(rng *rand.Rand, cluster int) VertexAttributes {
		c := [][2]float64{{0, 0}, {10, 0}, {5, 9}, {35, 35}}[cluster%4]
		return VertexAttributes{X: c[0] + rng.NormFloat64()*2.5, Y: c[1] + rng.NormFloat64()*2.5}
	}
	kwAttr := func(rng *rand.Rand, cluster int) VertexAttributes {
		topic := int32(cluster%4) * 8
		keys := make([]int32, 0, 4)
		for len(keys) < 4 {
			if rng.Float64() < 0.8 {
				keys = append(keys, topic+int32(rng.Intn(8)))
			} else {
				keys = append(keys, int32(rng.Intn(32)))
			}
		}
		return VertexAttributes{Keys: keys}
	}
	return []diffMetric{
		{
			name: "euclidean",
			presets: []struct {
				k int
				r float64
			}{{2, 5}, {3, 9}, {4, 16}},
			newStore: func() DynamicAttributes { return NewGeoAttributes(0) },
			randAttr: geoAttr,
		},
		{
			name: "jaccard",
			presets: []struct {
				k int
				r float64
			}{{2, 0.5}, {3, 0.3}, {2, 0.2}},
			newStore: func() DynamicAttributes { return NewKeywordAttributes(0) },
			randAttr: kwAttr,
		},
	}
}

// buildDiffInstance seeds the mirror with a clustered random instance.
func buildDiffInstance(cfg diffMetric, rng *rand.Rand) *dynMirror {
	const n = 56
	m := &dynMirror{n: n, edges: map[[2]int32]bool{}, attrs: make([]VertexAttributes, n)}
	for u := 0; u < n; u++ {
		m.attrs[u] = cfg.randAttr(rng, u%diffClusters)
	}
	for i := 0; i < 3*n; i++ {
		u := int32(rng.Intn(n))
		// Bias endpoints toward the same residue class so dense similar
		// clusters (and therefore non-trivial cores) exist.
		v := int32((int(u) + 4*(1+rng.Intn(n/4))) % n)
		if rng.Intn(4) == 0 {
			v = int32(rng.Intn(n))
		}
		if u != v {
			m.edges[normPair(u, v)] = true
		}
	}
	return m
}

// freshEngine builds a from-scratch Engine over the mirror state.
func freshEngine(cfg diffMetric, m *dynMirror) *Engine {
	store := cfg.newStore()
	store.Grow(m.n)
	for u := 0; u < m.n; u++ {
		store.SetAttributes(int32(u), m.attrs[u])
	}
	return NewEngine(m.graph(), store.Metric())
}

// randomBatch draws the next mutation batch for the harness.
func randomBatch(cfg diffMetric, m *dynMirror, rng *rand.Rand) []Update {
	edgeOp := func() Update {
		roll := rng.Intn(100)
		switch {
		case roll < 55: // add a (mostly clustered) edge; duplicates allowed
			u := int32(rng.Intn(m.n))
			v := int32((int(u) + 4*(1+rng.Intn(m.n/4))) % m.n)
			if rng.Intn(4) == 0 {
				v = int32(rng.Intn(m.n))
			}
			if u == v {
				v = (v + 1) % int32(m.n)
			}
			return AddEdgeUpdate(u, v)
		case roll < 90: // remove an existing edge when possible
			if es := m.sortedEdges(); len(es) > 0 {
				e := es[rng.Intn(len(es))]
				return RemoveEdgeUpdate(e[0], e[1])
			}
			fallthrough
		default: // remove a random (often missing) edge: a no-op is legal
			u := int32(rng.Intn(m.n))
			v := (u + 1 + int32(rng.Intn(m.n-1))) % int32(m.n)
			return RemoveEdgeUpdate(u, v)
		}
	}
	churn := func() Update {
		u := rng.Intn(m.n)
		cluster := u % diffClusters
		if rng.Intn(5) == 0 {
			cluster = rng.Intn(diffClusters) // the vertex moves community
		}
		return SetAttributesUpdate(int32(u), cfg.randAttr(rng, cluster))
	}
	switch roll := rng.Intn(100); {
	case roll < 60:
		return []Update{edgeOp()}
	case roll < 75: // attribute churn
		return []Update{churn()}
	case roll < 83 && m.n < 90: // grow: new vertex wired into a cluster
		nv := int32(m.n)
		return []Update{
			AddVertexUpdate(),
			SetAttributesUpdate(nv, cfg.randAttr(rng, int(nv)%diffClusters)),
			AddEdgeUpdate(nv, int32(rng.Intn(m.n))),
			AddEdgeUpdate(nv, int32(rng.Intn(m.n))),
		}
	default: // mixed batch
		ups := []Update{edgeOp(), edgeOp()}
		if rng.Intn(2) == 0 {
			ups = append(ups, churn())
		}
		return ups
	}
}

// assertMaintainedCores asserts that every fully built (k,r) cache
// entry's maintained per-vertex core numbers are bit-identical to a
// fresh linear peeling of its filtered graph — the invariant the
// incremental repair path (kcore.Repair via core.PatchPreparedDelta)
// must preserve across every update.
func assertMaintainedCores(t *testing.T, d *DynamicEngine, label string) {
	t.Helper()
	e := d.engine()
	e.mu.Lock()
	defer e.mu.Unlock()
	checked := 0
	for key, ent := range e.byKR {
		if !ent.ready.Load() || ent.err != nil || ent.pr == nil {
			continue
		}
		re := e.byR[key.r]
		if re == nil || !re.ready.Load() {
			continue
		}
		want := kcore.Decompose32(re.filtered)
		if fmt.Sprint(ent.pr.CoreNumbers()) != fmt.Sprint(want) {
			t.Fatalf("%s: (k=%d, r=%g): maintained core numbers diverged from a fresh peel:\n got %v\nwant %v",
				label, key.k, key.r, ent.pr.CoreNumbers(), want)
		}
		checked++
	}
	if checked == 0 && len(e.byKR) > 0 {
		t.Fatalf("%s: no built (k,r) entry to check", label)
	}
}

// sameResult asserts bit-identical cores and summary statistics.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) {
		t.Fatalf("%s: cores diverged:\ndynamic: %v\nfresh:   %v", label, got.Cores, want.Cores)
	}
	gs, ws := got.Summarize(), want.Summarize()
	if gs.Count != ws.Count || gs.MaxSize != ws.MaxSize || gs.AvgSize != ws.AvgSize {
		t.Fatalf("%s: stats diverged: dynamic %+v, fresh %+v", label, gs, ws)
	}
}

// TestDynamicEngineDifferential is the harness entry point: one
// subtest per metric, >= 500 randomized mutation steps each, full
// result comparison against from-scratch rebuilds after every step.
func TestDynamicEngineDifferential(t *testing.T) {
	for _, cfg := range diffMetrics() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(2026))
			m := buildDiffInstance(cfg, rng)
			store := cfg.newStore()
			store.Grow(m.n)
			for u := 0; u < m.n; u++ {
				store.SetAttributes(int32(u), m.attrs[u])
			}
			eng, err := NewDynamicEngine(m.graph(), store)
			if err != nil {
				t.Fatal(err)
			}
			steps := diffSteps(t)
			for step := 0; step < steps; step++ {
				batch := randomBatch(cfg, m, rng)
				if err := eng.ApplyBatch(batch); err != nil {
					t.Fatalf("step %d: ApplyBatch(%v): %v", step, batch, err)
				}
				m.apply(batch)
				if eng.N() != m.n || eng.M() != len(m.edges) {
					t.Fatalf("step %d: engine N=%d M=%d, mirror N=%d M=%d",
						step, eng.N(), eng.M(), m.n, len(m.edges))
				}
				fresh := freshEngine(cfg, m)
				for _, p := range cfg.presets {
					label := fmt.Sprintf("step %d (k=%d, r=%g)", step, p.k, p.r)
					de, err := eng.Enumerate(p.k, p.r, EnumOptions{})
					if err != nil {
						t.Fatalf("%s: dynamic enum: %v", label, err)
					}
					fe, err := fresh.Enumerate(p.k, p.r, EnumOptions{})
					if err != nil {
						t.Fatalf("%s: fresh enum: %v", label, err)
					}
					sameResult(t, label+" enum", de, fe)
					dm, err := eng.FindMaximum(p.k, p.r, MaxOptions{})
					if err != nil {
						t.Fatalf("%s: dynamic max: %v", label, err)
					}
					fm, err := fresh.FindMaximum(p.k, p.r, MaxOptions{})
					if err != nil {
						t.Fatalf("%s: fresh max: %v", label, err)
					}
					sameResult(t, label+" max", dm, fm)
				}
				assertMaintainedCores(t, eng, fmt.Sprintf("step %d", step))
			}
			ds := eng.DynamicStats()
			if ds.Version == 0 || ds.Updates == 0 {
				t.Fatalf("no updates recorded: %+v", ds)
			}
			if ds.ComponentsReused == 0 || ds.IndexesKept == 0 {
				t.Fatalf("scoped invalidation never reused anything: %+v", ds)
			}
			if ds.PatchesIncremental == 0 {
				t.Fatalf("incremental core maintenance never ran: %+v", ds)
			}
			t.Logf("%s: %d steps, stats %+v", cfg.name, steps, ds)
		})
	}
}

// TestDynamicEngineNewThresholdAfterWrites guards the per-edge key
// table, which belongs to one snapshot: a threshold first queried after
// an attribute write, a growth write or a structure-only write must be
// filtered with the current graph's edges and the current attributes.
// A table carried over from the previous snapshot would keep stale
// scores, or misalign with the new edge order.
func TestDynamicEngineNewThresholdAfterWrites(t *testing.T) {
	for _, cfg := range diffMetrics() {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			m := buildDiffInstance(cfg, rng)
			store := cfg.newStore()
			store.Grow(m.n)
			for u := 0; u < m.n; u++ {
				store.SetAttributes(int32(u), m.attrs[u])
			}
			eng, err := NewDynamicEngine(m.graph(), store)
			if err != nil {
				t.Fatal(err)
			}
			// Score the first snapshot's key table.
			if _, err := eng.Enumerate(cfg.presets[0].k, cfg.presets[0].r, EnumOptions{}); err != nil {
				t.Fatal(err)
			}
			g := m.graph()
			hub := int32(0)
			for u := int32(1); u < int32(g.N()); u++ {
				if g.Degree(u) > g.Degree(hub) {
					hub = u
				}
			}
			first := g.Neighbors(hub)[0]
			nv := int32(m.n)
			writes := []struct {
				name  string
				batch []Update
			}{
				// The hub moves to another cluster: its edges' scores change.
				{"attribute", []Update{SetAttributesUpdate(hub, cfg.randAttr(rng, int(hub+1)%diffClusters))}},
				{"growth", []Update{
					AddVertexUpdate(),
					SetAttributesUpdate(nv, cfg.randAttr(rng, int(hub)%diffClusters)),
					AddEdgeUpdate(nv, hub),
					AddEdgeUpdate(nv, first),
				}},
				// Same edge count, shifted edge order.
				{"structure-only", []Update{RemoveEdgeUpdate(hub, first), AddEdgeUpdate(nv, nv-1)}},
			}
			for i, w := range writes {
				if err := eng.ApplyBatch(w.batch); err != nil {
					t.Fatalf("%s write: %v", w.name, err)
				}
				m.apply(w.batch)
				k, r := cfg.presets[i].k, cfg.presets[i].r*1.15 // a threshold no query used yet
				label := fmt.Sprintf("after the %s write (k=%d, r=%g)", w.name, k, r)
				fresh := freshEngine(cfg, m)
				de, err := eng.Enumerate(k, r, EnumOptions{})
				if err != nil {
					t.Fatalf("%s: dynamic enum: %v", label, err)
				}
				fe, err := fresh.Enumerate(k, r, EnumOptions{})
				if err != nil {
					t.Fatalf("%s: fresh enum: %v", label, err)
				}
				sameResult(t, label+" enum", de, fe)
				dm, err := eng.FindMaximum(k, r, MaxOptions{})
				if err != nil {
					t.Fatalf("%s: dynamic max: %v", label, err)
				}
				fm, err := fresh.FindMaximum(k, r, MaxOptions{})
				if err != nil {
					t.Fatalf("%s: fresh max: %v", label, err)
				}
				sameResult(t, label+" max", dm, fm)
				// The filtered graph itself, against a per-edge oracle
				// filter of the mirror: sensitive even where the cores
				// happen to agree.
				o := NewOracle(fresh.metric, r)
				want := m.graph().FilterEdges(o.Similar)
				got := eng.engine().forR(r).filtered
				for u := int32(0); u < int32(want.N()); u++ {
					if fmt.Sprint(got.Neighbors(u)) != fmt.Sprint(want.Neighbors(u)) {
						t.Fatalf("%s: filtered neighbours of %d = %v, want %v", label, u, got.Neighbors(u), want.Neighbors(u))
					}
				}
			}
		})
	}
}

// TestDynamicEngineValidation covers the mutation error paths: invalid
// updates must be rejected atomically, leaving the snapshot untouched.
func TestDynamicEngineValidation(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	geo := NewGeoAttributes(4)
	eng, err := NewDynamicEngine(b.Build(), geo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDynamicEngine(nil, geo); err == nil {
		t.Fatal("nil graph must be rejected")
	}
	if _, err := NewDynamicEngine(b.Build(), nil); err == nil {
		t.Fatal("nil attribute store must be rejected")
	}
	if err := eng.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop must be rejected")
	}
	if err := eng.AddEdge(0, 9); err == nil {
		t.Fatal("out-of-range endpoint must be rejected")
	}
	if err := eng.RemoveEdge(-1, 0); err == nil {
		t.Fatal("negative endpoint must be rejected")
	}
	if err := eng.SetAttributes(17, VertexAttributes{}); err == nil {
		t.Fatal("out-of-range attribute vertex must be rejected")
	}
	if err := eng.ApplyBatch([]Update{{Op: UpdateOp(99)}}); err == nil {
		t.Fatal("unknown op must be rejected")
	}
	// A batch failing halfway must not apply its earlier updates.
	before := eng.M()
	if err := eng.ApplyBatch([]Update{AddEdgeUpdate(2, 3), AddEdgeUpdate(5, 6)}); err == nil {
		t.Fatal("batch with invalid op must fail")
	}
	if eng.M() != before {
		t.Fatal("failed batch partially applied")
	}
	// Empty batches and no-op updates succeed without a new version.
	if err := eng.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddEdge(0, 1); err != nil { // already present
		t.Fatal(err)
	}
	if err := eng.RemoveEdge(2, 3); err != nil { // already absent
		t.Fatal(err)
	}
	if ds := eng.DynamicStats(); ds.Version != 0 {
		t.Fatalf("no-op updates published a version: %+v", ds)
	}
	// AddVertex returns the fresh id and grows the attribute store.
	id, err := eng.AddVertex()
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 || eng.N() != 5 {
		t.Fatalf("AddVertex: id=%d N=%d", id, eng.N())
	}
	if err := eng.SetAttributes(id, VertexAttributes{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicEngineStatsCoherence is the regression stress for cache
// counter / cache map coherence when invalidation races with concurrent
// queries: 16 reader goroutines fire mixed queries while the writer
// commits mutation batches. Run under -race in CI. Hits+Misses must
// equal the exact number of queries answered, and the prepared-setting
// count must match the queried grid — across however many snapshot
// advances happened.
func TestDynamicEngineStatsCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := diffMetrics()[0]
	m := buildDiffInstance(cfg, rng)
	store := cfg.newStore()
	store.Grow(m.n)
	for u := 0; u < m.n; u++ {
		store.SetAttributes(int32(u), m.attrs[u])
	}
	eng, err := NewDynamicEngine(m.graph(), store)
	if err != nil {
		t.Fatal(err)
	}
	baseN := m.n

	const readers = 16
	const queriesPerReader = 40
	var queries atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for q := 0; q < queriesPerReader; q++ {
				p := cfg.presets[rng.Intn(len(cfg.presets))]
				var err error
				switch rng.Intn(3) {
				case 0:
					_, err = eng.Enumerate(p.k, p.r, EnumOptions{})
				case 1:
					_, err = eng.FindMaximum(p.k, p.r, MaxOptions{Parallelism: 2})
				default:
					_, err = eng.EnumerateContaining(p.k, p.r, int32(rng.Intn(baseN)), EnumOptions{})
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", w, err)
					return
				}
				queries.Add(1)
			}
			errc <- nil
		}(w)
	}
	// Writer: mutation batches racing the readers.
	mutations := 0
	for i := 0; i < 120; i++ {
		batch := randomBatch(cfg, m, rng)
		if err := eng.ApplyBatch(batch); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		m.apply(batch)
		mutations++
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Hits+st.Misses != queries.Load() {
		t.Fatalf("hit/miss counters diverged from query count across invalidation: %+v, queries=%d",
			st, queries.Load())
	}
	if st.Prepared != len(cfg.presets) {
		t.Fatalf("prepared settings = %d, want %d: %+v", st.Prepared, len(cfg.presets), st)
	}
	if st.Thresholds != len(cfg.presets) { // presets use distinct r values
		t.Fatalf("thresholds = %d, want %d: %+v", st.Thresholds, len(cfg.presets), st)
	}
	checkSettingSums(t, st, eng.SettingsStats())
	if ds := eng.DynamicStats(); ds.Batches != int64(mutations) {
		t.Fatalf("batches = %d, want %d", ds.Batches, mutations)
	}
	// Final differential check at the settled state.
	fresh := freshEngine(cfg, m)
	for _, p := range cfg.presets {
		de, err := eng.Enumerate(p.k, p.r, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fe, err := fresh.Enumerate(p.k, p.r, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("final (k=%d, r=%g)", p.k, p.r), de, fe)
	}
}

// TestDynamicEngineAdopt pins the restore contract a re-bootstrapping
// replica relies on: d serves src's state (graph, attributes, caches,
// journal offset and version) while keeping its own journal, commit
// observer and counters, and a query racing the adopt is still counted
// once.
func TestDynamicEngineAdopt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cfg := diffMetrics()[0]
	m := buildDiffInstance(cfg, rng)
	newEngine := func() *DynamicEngine {
		store := cfg.newStore()
		store.Grow(m.n)
		for u := 0; u < m.n; u++ {
			store.SetAttributes(int32(u), m.attrs[u])
		}
		d, err := NewDynamicEngine(m.graph(), store)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d, src := newEngine(), newEngine()
	var journalled, observed int
	d.SetJournal(journalFunc(func(b []Update) error { journalled += len(b); return nil }))
	d.SetCommitObserver(func(CommitInfo) { observed++ })
	shared, own, srcOnly := cfg.presets[0], cfg.presets[1], cfg.presets[2]
	for _, w := range []struct {
		e *DynamicEngine
		k int
		r float64
	}{{d, shared.k, shared.r}, {d, own.k, own.r}, {src, shared.k, shared.r}, {src, srcOnly.k, srcOnly.r}} {
		if err := w.e.Warm(w.k, w.r); err != nil {
			t.Fatal(err)
		}
	}
	// d replays three rounds; src, the leader, runs three more.
	for i := 0; i < 6; i++ {
		batch := randomBatch(cfg, m, rng)
		m.apply(batch)
		if i < 3 {
			if err := d.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	before := d.DynamicStats()
	srcStats, srcSettings := src.Stats(), fmt.Sprint(src.SettingsStats())

	const readers, perReader = 4, 30
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for q := 0; q < perReader; q++ {
				if _, err := d.Enumerate(shared.k, shared.r, EnumOptions{}); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	close(start)
	d.Adopt(src)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Counters: d's own, with every racing query counted once.
	st := d.Stats()
	if want := int64(2 + readers*perReader); st.Hits+st.Misses != want {
		t.Fatalf("hits+misses = %d, want %d (2 warms + every query): %+v", st.Hits+st.Misses, want, st)
	}
	if st.Prepared != srcStats.Prepared || st.Thresholds != srcStats.Thresholds {
		t.Fatalf("cache shape %+v, want src's %+v", st, srcStats)
	}
	// Per setting: d's table is kept whole, so its own setting stays
	// listed though src does not cache it, and the src-only setting d
	// never looked up has no entry.
	settings := d.SettingsStats()
	for _, s := range settings {
		switch {
		case s.K == shared.k && s.R == shared.r:
			if s.Hits+s.Misses != 1+readers*perReader {
				t.Fatalf("shared setting %+v lost d's counts", s)
			}
		case s.K == own.k && s.R == own.r:
			if s.Hits != 0 || s.Misses != 1 {
				t.Fatalf("d's own setting %+v, want its one warm miss", s)
			}
		default:
			t.Fatalf("setting %+v was never looked up on d", s)
		}
	}
	if len(settings) != 2 {
		t.Fatalf("settings = %+v, want the shared and d's own", settings)
	}
	checkSettingSums(t, st, settings)
	after, want := d.DynamicStats(), before
	want.Updates, want.Version = src.DynamicStats().Updates, src.DynamicStats().Version
	if after != want {
		t.Fatalf("dynamic stats %+v, want %+v", after, want)
	}
	if fmt.Sprint(src.SettingsStats()) != srcSettings || src.Stats() != srcStats {
		t.Fatal("Adopt changed src")
	}

	// d serves src's state and keeps committing through its own journal
	// and observer.
	batch := randomBatch(cfg, m, rng)
	m.apply(batch)
	jBefore, oBefore := journalled, observed
	if err := d.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if journalled != jBefore+len(batch) || observed != oBefore+1 {
		t.Fatalf("post-adopt commit: journal %d->%d, observer %d->%d", jBefore, journalled, oBefore, observed)
	}
	fresh := freshEngine(cfg, m)
	for _, p := range cfg.presets {
		got, err := d.Enumerate(p.k, p.r, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := fresh.Enumerate(p.k, p.r, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("adopted (k=%d, r=%g)", p.k, p.r), got, wantRes)
	}
}

// checkSettingSums fails unless the per-setting counts sum to the
// engine-wide ones, which holds while no Oracle call has been counted.
func checkSettingSums(t *testing.T, st EngineStats, settings []SettingStats) {
	t.Helper()
	var hits, misses int64
	for _, s := range settings {
		hits += s.Hits
		misses += s.Misses
	}
	if hits != st.Hits || misses != st.Misses {
		t.Fatalf("per-setting sums (%d,%d) != engine counters (%d,%d): %+v", hits, misses, st.Hits, st.Misses, settings)
	}
}

// journalFunc adapts a function to JournalAppender.
type journalFunc func([]Update) error

func (f journalFunc) AppendBatch(b []Update) error { return f(b) }

// TestDynamicEngineCoreMaintenanceStreams drives skewed update streams
// — insert-heavy and remove-heavy, on both metrics — and asserts after
// every step that the maintained core numbers equal a fresh peeling of
// each filtered graph, and that query results match a from-scratch
// engine. Skewed streams stress the two asymmetric halves of the Li &
// Yu-style repair (insertions can only raise core numbers, removals
// only lower them).
func TestDynamicEngineCoreMaintenanceStreams(t *testing.T) {
	steps := 150
	if testing.Short() {
		steps = 50
	}
	for _, cfg := range diffMetrics() {
		for _, stream := range []struct {
			name    string
			addFrac int // percent of edge ops that are insertions
		}{{"insert-heavy", 85}, {"remove-heavy", 15}} {
			cfg, stream := cfg, stream
			t.Run(cfg.name+"/"+stream.name, func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(77))
				m := buildDiffInstance(cfg, rng)
				store := cfg.newStore()
				store.Grow(m.n)
				for u := 0; u < m.n; u++ {
					store.SetAttributes(int32(u), m.attrs[u])
				}
				eng, err := NewDynamicEngine(m.graph(), store)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range cfg.presets {
					if err := eng.Warm(p.k, p.r); err != nil {
						t.Fatal(err)
					}
				}
				for step := 0; step < steps; step++ {
					var up Update
					if rng.Intn(100) < stream.addFrac {
						u := int32(rng.Intn(m.n))
						v := int32((int(u) + 4*(1+rng.Intn(m.n/4))) % m.n)
						if rng.Intn(4) == 0 {
							v = int32(rng.Intn(m.n))
						}
						if u == v {
							v = (v + 1) % int32(m.n)
						}
						up = AddEdgeUpdate(u, v)
					} else if es := m.sortedEdges(); len(es) > 0 {
						e := es[rng.Intn(len(es))]
						up = RemoveEdgeUpdate(e[0], e[1])
					} else {
						continue
					}
					if err := eng.ApplyBatch([]Update{up}); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					m.apply([]Update{up})
					assertMaintainedCores(t, eng, fmt.Sprintf("step %d", step))
				}
				ds := eng.DynamicStats()
				if ds.PatchesIncremental == 0 {
					t.Fatalf("%s stream never took the incremental path: %+v", stream.name, ds)
				}
				fresh := freshEngine(cfg, m)
				for _, p := range cfg.presets {
					de, err := eng.Enumerate(p.k, p.r, EnumOptions{})
					if err != nil {
						t.Fatal(err)
					}
					fe, err := fresh.Enumerate(p.k, p.r, EnumOptions{})
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("final (k=%d, r=%g)", p.k, p.r), de, fe)
				}
				t.Logf("%s/%s: %d steps, incremental=%d full=%d visited=%d",
					cfg.name, stream.name, steps, ds.PatchesIncremental, ds.PatchesFull, ds.CoreVisited)
			})
		}
	}
}

// scoreGate parks the first Score call made after it is armed until
// release closes; every other call passes straight through.
type scoreGate struct {
	armed   atomic.Bool
	entered chan struct{} // closed when the parked call arrives
	release chan struct{}
}

func newScoreGate() *scoreGate {
	return &scoreGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *scoreGate) pass() {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
}

// parkingMetric is Euclidean distance scored through a gate. As a custom
// metric it has no index fast path: the engine scores every pair it
// classifies through Score.
type parkingMetric struct {
	inner Metric
	gate  *scoreGate
}

func (m parkingMetric) Score(u, v int32) float64 {
	m.gate.pass()
	return m.inner.Score(u, v)
}
func (m parkingMetric) Distance() bool { return true }
func (m parkingMetric) Name() string   { return "parking-euclidean" }

// parkingAttrs is a geo store whose metric scores through a gate.
type parkingAttrs struct {
	geo  *GeoAttributes
	gate *scoreGate
}

func (a *parkingAttrs) Metric() Metric { return parkingMetric{inner: a.geo.Metric(), gate: a.gate} }
func (a *parkingAttrs) Grow(n int)     { a.geo.Grow(n) }
func (a *parkingAttrs) SetAttributes(u int32, v VertexAttributes) {
	a.geo.SetAttributes(u, v)
}
func (a *parkingAttrs) Clone() DynamicAttributes {
	return &parkingAttrs{geo: a.geo.Clone().(*GeoAttributes), gate: a.gate}
}

// parkingInstance builds a dynamic engine over the Euclidean harness
// instance whose metric scores through gate.
func parkingInstance(t *testing.T, rng *rand.Rand, gate *scoreGate) (*DynamicEngine, *dynMirror, diffMetric) {
	t.Helper()
	cfg := diffMetrics()[0]
	m := buildDiffInstance(cfg, rng)
	geo := NewGeoAttributes(m.n)
	for u := 0; u < m.n; u++ {
		geo.SetAttributes(int32(u), m.attrs[u])
	}
	eng, err := NewDynamicEngine(m.graph(), &parkingAttrs{geo: geo, gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	return eng, m, cfg
}

// absentEdge returns a pair that is not an edge of the mirror: adding
// an existing edge is an effective no-op, which rebuilds nothing.
func absentEdge(t *testing.T, m *dynMirror) (int32, int32) {
	t.Helper()
	for u := int32(0); u < int32(m.n); u++ {
		for v := u + 1; v < int32(m.n); v++ {
			if !m.edges[normPair(u, v)] {
				return u, v
			}
		}
	}
	t.Fatal("instance is a complete graph; cannot pick an absent edge")
	return 0, 0
}

// within waits up to 30 s for the outcome of an operation that must not
// block.
func within(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s blocked", what)
	}
}

// TestDynamicEngineReadersNotStarvedByRebuild parks a commit at the
// first pair its rebuild scores, once for a structure-only round and
// once for an attribute round. A query must still complete on the
// current snapshot meanwhile, and the commit must publish only once
// released.
func TestDynamicEngineReadersNotStarvedByRebuild(t *testing.T) {
	for _, round := range []string{"structure-only", "attribute"} {
		t.Run(round, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			gate := newScoreGate()
			eng, m, cfg := parkingInstance(t, rng, gate)
			p := cfg.presets[0]
			if err := eng.Warm(p.k, p.r); err != nil {
				t.Fatal(err)
			}
			versionBefore := eng.DynamicStats().Version

			var write func() error
			if round == "structure-only" {
				u, v := absentEdge(t, m)
				write = func() error { return eng.AddEdge(u, v) }
			} else {
				// Vertex 0 has edges, so the rebuild re-scores them.
				if eng.Graph().Degree(0) == 0 {
					t.Fatal("vertex 0 is isolated")
				}
				a := cfg.randAttr(rng, 1)
				write = func() error { return eng.SetAttributes(0, a) }
			}
			gate.armed.Store(true)
			done := make(chan error, 1)
			go func() { done <- write() }()
			<-gate.entered // the commit is now parked mid-rebuild

			queried := make(chan error, 1)
			go func() {
				_, err := eng.Enumerate(p.k, p.r, EnumOptions{})
				queried <- err
			}()
			within(t, "query during an in-flight snapshot rebuild", queried)
			if v := eng.DynamicStats().Version; v != versionBefore {
				t.Fatalf("snapshot published before the rebuild finished: version %d -> %d", versionBefore, v)
			}
			close(gate.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if v := eng.DynamicStats().Version; v != versionBefore+1 {
				t.Fatalf("commit did not publish: version %d -> %d", versionBefore, v)
			}
		})
	}
}

// TestDynamicEngineParkedSearchBlocksNothing parks a cold query inside
// its preparation. A commit and a read at a warmed setting must both
// complete meanwhile, and the parked query must finish once released.
func TestDynamicEngineParkedSearchBlocksNothing(t *testing.T) {
	gate := newScoreGate()
	eng, m, cfg := parkingInstance(t, rand.New(rand.NewSource(8)), gate)
	hot, cold := cfg.presets[0], cfg.presets[1]
	if err := eng.Warm(hot.k, hot.r); err != nil {
		t.Fatal(err)
	}

	gate.armed.Store(true)
	searched := make(chan error, 1)
	go func() {
		_, err := eng.Enumerate(cold.k, cold.r, EnumOptions{})
		searched <- err
	}()
	select {
	case <-gate.entered: // the cold query is parked mid-prepare
	case err := <-searched:
		t.Fatalf("cold query finished without scoring a pair (err %v)", err)
	}

	u, v := absentEdge(t, m)
	committed := make(chan error, 1)
	go func() { committed <- eng.AddEdge(u, v) }()
	within(t, "commit during a parked search", committed)
	m.apply([]Update{AddEdgeUpdate(u, v)})

	read := make(chan error, 1)
	go func() {
		_, err := eng.Enumerate(hot.k, hot.r, EnumOptions{})
		read <- err
	}()
	within(t, "warm read during a parked search", read)

	close(gate.release)
	within(t, "parked search after release", searched)

	// The commit did not carry the cold setting, so one more cold query
	// rebuilds it: both lookups are misses on the setting's one pair.
	if _, err := eng.Enumerate(cold.k, cold.r, EnumOptions{}); err != nil {
		t.Fatal(err)
	}
	settings := eng.SettingsStats()
	var coldStats SettingStats
	for _, s := range settings {
		if s.K == cold.k && s.R == cold.r {
			coldStats = s
		}
	}
	if coldStats.Hits != 0 || coldStats.Misses != 2 {
		t.Fatalf("cold setting %+v, want 2 misses: %+v", coldStats, settings)
	}
	checkSettingSums(t, eng.Stats(), settings)

	// The engine still agrees with a from-scratch one over its state.
	fresh := NewEngine(eng.Graph(), eng.Metric())
	for _, p := range []struct {
		k int
		r float64
	}{hot, cold} {
		de, err := eng.Enumerate(p.k, p.r, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fe, err := fresh.Enumerate(p.k, p.r, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("(k=%d, r=%g)", p.k, p.r), de, fe)
	}
}

// TestDynamicEngineCopiesStoreOnWrite pins the store contract: the
// store passed to NewDynamicEngine keeps its construction-time
// attributes after attribute and growth writes, and an Oracle taken
// before an attribute write keeps answering for the attributes it was
// taken under.
func TestDynamicEngineCopiesStoreOnWrite(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	geo := NewGeoAttributes(3)
	geo.Set(1, 1, 0)
	geo.Set(2, 50, 0)
	eng, err := NewDynamicEngine(b.Build(), geo)
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.Oracle(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetAttributes(1, VertexAttributes{X: 49}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddVertex(); err != nil {
		t.Fatal(err)
	}
	if n, p := geo.store.N(), geo.store.Vertex(1); n != 3 || p.X != 1 || p.Y != 0 {
		t.Fatalf("caller's store written: %d vertices, vertex 1 at %+v", n, p)
	}
	if !before.Similar(0, 1) {
		t.Fatal("an oracle taken before the write answers for the written attributes")
	}
	after, err := eng.Oracle(5)
	if err != nil {
		t.Fatal(err)
	}
	if after.Similar(0, 1) || !after.Similar(1, 2) {
		t.Fatal("the current oracle does not answer for the written attributes")
	}
	if eng.N() != 4 {
		t.Fatalf("N = %d after AddVertex, want 4", eng.N())
	}
}

// TestDynamicEngineGroupCommitStress hammers the write path with 16
// concurrent writers over disjoint edge slots (so per-writer program
// order fully determines the final graph) while readers query — the
// race-detector target for the group-commit machinery. Afterwards the
// per-batch counters must be exact, and the settled state must match
// the mirror and a from-scratch engine.
func TestDynamicEngineGroupCommitStress(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	cfg := diffMetrics()[0]
	m := buildDiffInstance(cfg, rng)
	store := cfg.newStore()
	store.Grow(m.n)
	for u := 0; u < m.n; u++ {
		store.SetAttributes(int32(u), m.attrs[u])
	}
	eng, err := NewDynamicEngine(m.graph(), store)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.presets[0]
	if err := eng.Warm(p.k, p.r); err != nil {
		t.Fatal(err)
	}
	// Slow each round down slightly, as an fsynced journal would, so
	// followers pile up behind the leader and rounds genuinely coalesce;
	// on a bare 56-vertex instance commits otherwise finish faster than
	// writers can collide.
	eng.SetJournal(slowJournal{500 * time.Microsecond})

	// Writer w owns the edge slots {(w, w+16+i)}: all writers' update
	// sets commute, so the final edge set is each writer's last word on
	// each slot, whatever the commit interleaving.
	const writers = 16
	batchesPer := 12
	if testing.Short() {
		batchesPer = 6
	}
	type slotOp struct {
		up  Update
		add bool
	}
	plans := make([][][]slotOp, writers)
	seedRng := rand.New(rand.NewSource(99))
	for w := 0; w < writers; w++ {
		plans[w] = make([][]slotOp, batchesPer)
		for b := 0; b < batchesPer; b++ {
			ops := make([]slotOp, 1+seedRng.Intn(3))
			for i := range ops {
				u := int32(w)
				v := int32((w + 17 + seedRng.Intn(8)) % m.n)
				if u == v {
					v = (v + 1) % int32(m.n)
				}
				if seedRng.Intn(2) == 0 {
					ops[i] = slotOp{up: AddEdgeUpdate(u, v), add: true}
				} else {
					ops[i] = slotOp{up: RemoveEdgeUpdate(u, v)}
				}
			}
			plans[w][b] = ops
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+4)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, ops := range plans[w] {
				batch := make([]Update, len(ops))
				for i, op := range ops {
					batch[i] = op.up
				}
				if err := eng.ApplyBatch(batch); err != nil {
					errc <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for q := 0; q < 25; q++ {
				if _, err := eng.Enumerate(p.k, p.r, EnumOptions{}); err != nil {
					errc <- fmt.Errorf("reader %d: %v", rdr, err)
					return
				}
			}
			errc <- nil
		}(rdr)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Replay every writer's plan into the mirror (disjoint slots, so
	// order across writers is irrelevant).
	var totalBatches, totalOps int64
	for w := 0; w < writers; w++ {
		for _, ops := range plans[w] {
			totalBatches++
			for _, op := range ops {
				totalOps++
				m.apply([]Update{op.up})
			}
		}
	}
	ds := eng.DynamicStats()
	if ds.Batches != totalBatches || ds.Updates != totalOps {
		t.Fatalf("batches=%d updates=%d, want %d/%d: %+v", ds.Batches, ds.Updates, totalBatches, totalOps, ds)
	}
	if ds.GroupCommits == 0 || ds.GroupCommits > ds.Batches {
		t.Fatalf("implausible group-commit count: %+v", ds)
	}
	if ds.GroupCommits == ds.Batches {
		t.Errorf("no coalescing observed: every batch committed in its own round (%d rounds)", ds.GroupCommits)
	}
	if ds.Version > ds.GroupCommits {
		t.Fatalf("more published versions than commit rounds: %+v", ds)
	}
	if eng.N() != m.n || eng.M() != len(m.edges) {
		t.Fatalf("engine N=%d M=%d, mirror N=%d M=%d", eng.N(), eng.M(), m.n, len(m.edges))
	}
	assertMaintainedCores(t, eng, "settled")
	fresh := freshEngine(cfg, m)
	de, err := eng.Enumerate(p.k, p.r, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := fresh.Enumerate(p.k, p.r, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "settled", de, fe)
	t.Logf("batches=%d rounds=%d coalesce=%.2f", ds.Batches, ds.GroupCommits,
		float64(ds.Batches)/float64(ds.GroupCommits))
}

// slowJournal stands in for an fsynced journal: each append sleeps.
type slowJournal struct{ d time.Duration }

func (j slowJournal) AppendBatch([]Update) error {
	time.Sleep(j.d)
	return nil
}

// TestDynamicEngineGroupCommitAtomicity drives mixed valid/invalid
// batches through concurrent writers: each invalid batch must be
// rejected with its own *BatchError while every valid batch commits,
// including valid batches that race invalid ones into the same round.
func TestDynamicEngineGroupCommitAtomicity(t *testing.T) {
	g := NewGraphBuilder(8)
	g.AddEdge(0, 1)
	eng, err := NewDynamicEngine(g.Build(), NewGeoAttributes(8))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const rounds = 20
	var wg sync.WaitGroup
	var rejected, committed atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w%2 == 0 {
					// Invalid: out-of-range endpoint; always rejected.
					err := eng.ApplyBatch([]Update{AddEdgeUpdate(0, 1), AddEdgeUpdate(3, 127)})
					var be *BatchError
					if err == nil || !errors.As(err, &be) || be.Index != 1 {
						panic(fmt.Sprintf("writer %d: invalid batch: got %v", w, err))
					}
					rejected.Add(1)
				} else {
					u := int32(w)
					v := int32((w + 1 + i) % 8)
					if u == v {
						v = (v + 1) % 8
					}
					if err := eng.ApplyBatch([]Update{AddEdgeUpdate(u, v)}); err != nil {
						panic(fmt.Sprintf("writer %d: valid batch rejected: %v", w, err))
					}
					committed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	ds := eng.DynamicStats()
	if ds.Batches != committed.Load() {
		t.Fatalf("batches=%d, want %d accepted", ds.Batches, committed.Load())
	}
	if rejected.Load() != writers/2*rounds {
		t.Fatalf("rejected=%d, want %d", rejected.Load(), writers/2*rounds)
	}
}

// TestDynamicEngineRejectsBadWeights checks that a weighted engine
// refuses, as a *BatchError and before anything applies, an update
// whose weights the store cannot hold: negative, NaN, infinite, or
// overflowing once a repeated key's weights add up. A batch carrying
// one such update is discarded whole. The checkpoint taken afterwards
// loads and re-encodes byte-identically, and a valid zero weight still
// commits. The engine is checked over the store itself and over an
// adapter that delegates to it, which the engine knows by its metric
// alone.
func TestDynamicEngineRejectsBadWeights(t *testing.T) {
	for _, adapt := range []bool{false, true} {
		t.Run(fmt.Sprintf("adapter=%v", adapt), func(t *testing.T) {
			checkRejectsBadWeights(t, adapt)
		})
	}
}

// delegatingAttrs is a caller's adapter that forwards every call to the
// store it wraps.
type delegatingAttrs struct{ DynamicAttributes }

func (a delegatingAttrs) Clone() DynamicAttributes {
	return delegatingAttrs{a.DynamicAttributes.Clone()}
}

func checkRejectsBadWeights(t *testing.T, adapt bool) {
	b := NewGraphBuilder(4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		b.AddEdge(e[0], e[1])
	}
	ws := NewWeightedKeywordAttributes(4)
	for u := int32(0); u < 4; u++ {
		ws.Set(u, []int32{1, 2}, []float64{1, float64(u + 1)})
	}
	var attrs DynamicAttributes = ws
	if adapt {
		attrs = delegatingAttrs{ws}
	}
	d, err := NewDynamicEngine(b.Build(), attrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Warm(2, 0.3); err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		var buf bytes.Buffer
		if err := d.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := snapshot()
	inf := math.Inf(1)
	for _, a := range []VertexAttributes{
		{Keys: []int32{1}, Weights: []float64{-3}},
		{Keys: []int32{1}, Weights: []float64{math.NaN()}},
		{Keys: []int32{1, 2}, Weights: []float64{1, inf}},
		{Keys: []int32{1, 1}, Weights: []float64{math.MaxFloat64, math.MaxFloat64}},
	} {
		batch := []Update{SetAttributesUpdate(1, VertexAttributes{Keys: []int32{7}}), SetAttributesUpdate(2, a)}
		err := d.ApplyBatch(batch)
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 1 || be.Op != OpSetAttributes {
			t.Fatalf("weights %v: ApplyBatch = %v, want a *BatchError at update 1", a.Weights, err)
		}
	}
	if !bytes.Equal(snapshot(), before) {
		t.Fatal("a rejected batch changed the engine")
	}
	if err := d.SetAttributes(2, VertexAttributes{Keys: []int32{1}, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	raw := snapshot()
	loaded, err := LoadDynamicEngine(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("checkpoint does not load: %v", err)
	}
	var re bytes.Buffer
	if err := loaded.SaveSnapshot(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), raw) {
		t.Fatal("a loaded checkpoint re-encodes differently")
	}
}

// panickyAttrs is a caller's adapter that forwards every call to the
// store it wraps, except that SetAttributes panics on attributes
// holding panicKey.
type panickyAttrs struct{ DynamicAttributes }

const panicKey = 99

func (a panickyAttrs) Clone() DynamicAttributes {
	return panickyAttrs{a.DynamicAttributes.Clone()}
}

func (a panickyAttrs) SetAttributes(u int32, v VertexAttributes) {
	if slices.Contains(v.Keys, panicKey) {
		panic("the store refuses the marker key")
	}
	a.DynamicAttributes.SetAttributes(u, v)
}

// memJournal keeps the appended batches in memory. Its first append
// closes entered and waits for release to close.
type memJournal struct {
	batches          [][]Update
	entered, release chan struct{}
}

func (j *memJournal) AppendBatch(b []Update) error {
	if len(j.batches) == 0 {
		close(j.entered)
		<-j.release
	}
	j.batches = append(j.batches, slices.Clone(b))
	return nil
}

// TestDynamicEnginePanickingStore checks a commit round whose leader
// panics in the caller's attribute store: the leader's caller gets the
// panic, the round's other writer an error rather than a wait that
// never ends, a later write commits, the journal holds no trace of the
// round, and the checkpoint taken before it plus the journal reload to
// the live engine's state.
func TestDynamicEnginePanickingStore(t *testing.T) {
	b := NewGraphBuilder(4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		b.AddEdge(e[0], e[1])
	}
	ws := NewWeightedKeywordAttributes(4)
	for u := int32(0); u < 4; u++ {
		ws.Set(u, []int32{1, 2}, []float64{1, float64(u + 1)})
	}
	d, err := NewDynamicEngine(b.Build(), panickyAttrs{ws})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Warm(2, 0.3); err != nil {
		t.Fatal(err)
	}
	var checkpoint bytes.Buffer
	if err := d.SaveSnapshot(&checkpoint); err != nil {
		t.Fatal(err)
	}
	j := &memJournal{entered: make(chan struct{}), release: make(chan struct{})}
	d.SetJournal(j)

	type outcome struct {
		err      error
		panicked bool
	}
	write := func(batch ...Update) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					out <- outcome{panicked: true}
				}
			}()
			out <- outcome{err: d.ApplyBatch(batch)}
		}()
		return out
	}
	first := write(RemoveEdgeUpdate(0, 2))
	<-j.entered // the first round's leader holds the commit lock
	marked := write(SetAttributesUpdate(1, VertexAttributes{Keys: []int32{panicKey}, Weights: []float64{1}}))
	other := write(SetAttributesUpdate(2, VertexAttributes{Keys: []int32{1}, Weights: []float64{3}}))
	for queued := 0; queued < 2; runtime.Gosched() {
		d.pendMu.Lock()
		queued = len(d.pending)
		d.pendMu.Unlock()
	}
	close(j.release)
	if o := <-first; o.err != nil || o.panicked {
		t.Fatalf("the first write: %+v", o)
	}
	panics, errs := 0, 0
	for _, ch := range []<-chan outcome{marked, other} {
		select {
		case o := <-ch:
			if o.panicked {
				panics++
			} else if errors.Is(o.err, errLeaderPanicked) {
				errs++
			} else {
				t.Fatalf("a writer of the panicking round returned %v", o.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a writer of the panicking round is still waiting")
		}
	}
	if panics != 1 || errs != 1 {
		t.Fatalf("the panicking round gave %d panics and %d errors, want one of each", panics, errs)
	}
	later := []Update{AddEdgeUpdate(1, 3), SetAttributesUpdate(3, VertexAttributes{Keys: []int32{2}, Weights: []float64{5}})}
	if err := d.ApplyBatch(later); err != nil {
		t.Fatalf("a write after the panic: %v", err)
	}
	if want := [][]Update{{RemoveEdgeUpdate(0, 2)}, later}; fmt.Sprint(j.batches) != fmt.Sprint(want) {
		t.Fatalf("journal holds %v, want %v", j.batches, want)
	}

	reloaded, err := LoadDynamicEngine(bytes.NewReader(checkpoint.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range j.batches {
		if err := reloaded.ApplyBatch(batch); err != nil {
			t.Fatalf("replaying the journal: %v", err)
		}
	}
	var live, replayed bytes.Buffer
	if err := d.SaveSnapshot(&live); err != nil {
		t.Fatal(err)
	}
	if err := reloaded.SaveSnapshot(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatal("checkpoint plus journal does not reload to the live engine's state")
	}
}
