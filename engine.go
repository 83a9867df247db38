package krcore

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"krcore/internal/core"
	"krcore/internal/graph"
	"krcore/internal/simgraph"
)

// Engine is the build-once/serve-many layer for answering many (k,r)
// queries over one attributed graph — the serving pattern behind the
// paper's evaluation, which sweeps k and r over the same networks, and
// the natural shape of a community-search service.
//
// The engine caches every level of shared state a (k,r) query needs:
//
//   - per engine: the similarity key of every edge (the r-independent
//     value the oracle compares with its threshold), scored once when
//     the first threshold is filtered, so the dissimilar-edge filter at
//     any later new r is one compare pass with no metric call;
//   - per threshold r: the similarity oracle, its bulk similarity
//     index (see BuildIndex) and the dissimilar-edge-filtered graph,
//     which depend on r but not on k;
//   - per pair (k,r): the prepared candidate components (the filtered
//     graph's k-core split into connected components with their
//     adjacency and dissimilarity rows), reused by every query at that setting.
//
// All methods are safe for concurrent use. Concurrent queries for the
// same uncached (k,r) prepare it exactly once (the others wait);
// queries for a cached (k,r) run immediately with zero re-preparation
// and proceed fully in parallel, each with its own search state and
// budget. Cancellation and node/time limits apply per query through
// Limits; parallelism within one query through the options'
// Parallelism field.
type Engine struct {
	g       *Graph
	metric  Metric
	traffic *traffic // the lineage's hit/miss table

	// keys[i] is the similarity key of the i-th edge of g in Edges
	// order (see simgraph.EdgeKeys), 8 bytes per edge, scored by the
	// first threshold whose filtered graph is built.
	keysOnce sync.Once
	keys     []float64

	mu   sync.Mutex
	byR  map[float64]*rEntry
	byKR map[krKey]*krEntry
}

// traffic is the hit/miss table of one engine lineage: the
// engine-wide pair and one pair per (k,r) setting looked up since the
// lineage began. NewEngine creates it, and every engine advance and
// fork build shares it by pointer, so a query counted on a retiring
// snapshot still counts on its successor, and a setting's counts never
// fall, whatever the cache holds later.
type traffic struct {
	mu      sync.Mutex
	all     hitMiss
	setting map[krKey]*hitMiss
}

// hitMiss is one hit/miss pair.
type hitMiss struct{ hits, misses int64 }

func (c *hitMiss) add(hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// count records one lookup of setting key, on its pair and the
// engine-wide one.
func (t *traffic) count(key krKey, hit bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.all.add(hit)
	c := t.setting[key]
	if c == nil {
		c = &hitMiss{}
		t.setting[key] = c
	}
	c.add(hit)
}

type krKey struct {
	k int
	r float64
}

// rEntry is the r-dependent, k-independent shared state. The oracle
// (with its bulk similarity index) and the dissimilar-edge-filtered
// graph build under separate onces, so Engine.Oracle can serve the
// similarity oracle alone without paying for the full-graph edge
// filter a (k,r) query needs. ready is set once BOTH halves completed;
// advance only carries fully-ready entries (oracle-only entries are
// rebuilt lazily on the mutated graph).
type rEntry struct {
	oracleOnce  sync.Once
	oracle      *Oracle
	oracleReady atomic.Bool

	filterOnce sync.Once
	filtered   *graph.Graph
	ready      atomic.Bool
}

// krEntry is the prepared problem of one (k,r) setting. ready flips
// after the once body completed, so concurrent queries can tell a
// served entry (cache hit) from one still being built (miss: they
// block on the once alongside the builder).
type krEntry struct {
	once  sync.Once
	pr    *core.Prepared
	err   error
	ready atomic.Bool
}

// readyREntry wraps already-built per-r state so later queries treat it
// as constructed (the onces are pre-fired).
func readyREntry(o *Oracle, filtered *graph.Graph) *rEntry {
	ent := &rEntry{oracle: o, filtered: filtered}
	ent.oracleOnce.Do(func() {})
	ent.filterOnce.Do(func() {})
	ent.oracleReady.Store(true)
	ent.ready.Store(true)
	return ent
}

// readyKREntry wraps an already-prepared (k,r) problem.
func readyKREntry(pr *core.Prepared) *krEntry {
	ent := &krEntry{pr: pr}
	ent.once.Do(func() {})
	ent.ready.Store(true)
	return ent
}

// fork returns an engine not yet published that serves e's graph and
// metric from every cache entry e holds and counts its traffic on t.
// The entries are shared, not copied: both engines build them over the
// same graph and metric, and no entry holds counts, so e is left
// unchanged.
func (e *Engine) fork(t *traffic) *Engine {
	ne := newEngine(e.g, e.metric, t)
	e.mu.Lock()
	defer e.mu.Unlock()
	maps.Copy(ne.byR, e.byR)
	maps.Copy(ne.byKR, e.byKR)
	return ne
}

// NewEngine returns a serving engine for the graph and similarity
// metric. The metric's attribute store must be final: per-r indexes
// snapshot it when a threshold is first queried.
func NewEngine(g *Graph, m Metric) *Engine {
	return newEngine(g, m, &traffic{setting: map[krKey]*hitMiss{}})
}

// newEngine returns an engine with empty caches that counts on t.
func newEngine(g *Graph, m Metric, t *traffic) *Engine {
	return &Engine{
		g:       g,
		metric:  m,
		traffic: t,
		byR:     map[float64]*rEntry{},
		byKR:    map[krKey]*krEntry{},
	}
}

// EngineStats reports the engine's cache behaviour.
type EngineStats struct {
	// Hits counts queries that found their (k,r) setting fully
	// prepared and served it with zero preparation work, plus Oracle
	// calls that found their threshold's oracle already built. A query
	// that arrives while another query is still building the same
	// setting is NOT a hit: it blocks until the build completes, so it
	// pays the preparation latency and is counted as a miss.
	Hits int64
	// Misses counts queries that had to prepare their (k,r) setting or
	// wait for a concurrent preparation of it, plus Oracle calls that
	// had to build the oracle.
	Misses int64
	// Thresholds is the number of distinct r values with at least a
	// cached oracle and similarity index. Entries created by Oracle
	// alone defer the filtered-graph build until the first (k,r) query
	// at that threshold.
	Thresholds int
	// Prepared is the number of distinct (k,r) settings with cached
	// candidate components.
	Prepared int
}

// Stats returns a snapshot of the engine's cache counters.
func (e *Engine) Stats() EngineStats {
	e.traffic.mu.Lock()
	all := e.traffic.all
	e.traffic.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		Hits:       all.hits,
		Misses:     all.misses,
		Thresholds: len(e.byR),
		Prepared:   len(e.byKR),
	}
}

// SettingStats is the per-(k,r) split of the engine's cache traffic:
// one entry per setting looked up since the engine lineage began, the
// series the serving layer exports on /metrics so an operator can see
// which settings are hot and which keep missing.
type SettingStats struct {
	K            int
	R            float64
	Hits, Misses int64
}

// SettingsStats reports hit/miss counts per (k,r) setting, sorted by k
// then r: one entry per setting looked up since the engine lineage
// began (NewEngine, LoadEngine or LoadDynamicEngine; the engines a
// DynamicEngine publishes carry it on), including settings still being
// built and settings no longer cached. A setting's counts start at its
// first lookup and never fall. A setting restored from a snapshot but
// never looked up has no entry.
func (e *Engine) SettingsStats() []SettingStats {
	e.traffic.mu.Lock()
	out := make([]SettingStats, 0, len(e.traffic.setting))
	for key, c := range e.traffic.setting {
		out = append(out, SettingStats{K: key.k, R: key.r, Hits: c.hits, Misses: c.misses})
	}
	e.traffic.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].K != out[j].K {
			return out[i].K < out[j].K
		}
		return out[i].R < out[j].R
	})
	return out
}

// Oracle returns the engine's cached similarity oracle for threshold r
// (with its bulk index attached), building it on first use. Only the
// oracle and its index are built: the dissimilar-edge filter over the
// whole graph — which a (k,r) query needs but an oracle caller does
// not — stays lazy until the first query at this threshold. The call
// counts as a hit or a miss in Stats, under no SettingsStats entry.
func (e *Engine) Oracle(r float64) (*Oracle, error) {
	if e.metric == nil {
		return nil, errors.New("krcore: engine has no similarity metric")
	}
	if math.IsNaN(r) {
		return nil, errors.New("krcore: similarity threshold r must not be NaN")
	}
	ent := e.rEntryFor(r)
	e.traffic.mu.Lock()
	e.traffic.all.add(ent.oracleReady.Load())
	e.traffic.mu.Unlock()
	e.buildOracle(ent, r)
	return ent.oracle, nil
}

// Graph returns the immutable graph the engine serves.
func (e *Engine) Graph() *Graph { return e.g }

// Warm prepares the (k,r) setting ahead of traffic, so the first real
// query at that setting is a cache hit.
func (e *Engine) Warm(k int, r float64) error {
	_, err := e.prepared(k, r)
	return err
}

// Enumerate returns all maximal (k,r)-cores at the given setting (see
// EnumerateMaximal). Result.Elapsed covers the search only; on a cache
// hit no preparation happens at all.
func (e *Engine) Enumerate(k int, r float64, opt EnumOptions) (*Result, error) {
	pr, err := e.prepared(k, r)
	if err != nil {
		return nil, err
	}
	return pr.Enumerate(opt)
}

// EnumerateContaining returns the maximal (k,r)-cores containing the
// query vertex v at the given setting — the community-search flavour.
func (e *Engine) EnumerateContaining(k int, r float64, v int32, opt EnumOptions) (*Result, error) {
	pr, err := e.prepared(k, r)
	if err != nil {
		return nil, err
	}
	return pr.EnumerateContaining(v, opt)
}

// FindMaximum returns the maximum (k,r)-core at the given setting (see
// the package-level FindMaximum).
func (e *Engine) FindMaximum(k int, r float64, opt MaxOptions) (*Result, error) {
	pr, err := e.prepared(k, r)
	if err != nil {
		return nil, err
	}
	return pr.FindMaximum(opt)
}

// limitsWithContext binds ctx to the limits: the search aborts when ctx
// is done, in addition to any context, deadline or node cap already in
// l. When both contexts are set the returned limits hold a derived
// context cancelled as soon as either parent is; the caller must invoke
// the returned release func once the search ends, so no per-query
// bookkeeping stays registered on long-lived parent contexts.
func limitsWithContext(ctx context.Context, l Limits) (Limits, func()) {
	if ctx == nil {
		return l, func() {}
	}
	if l.Context == nil {
		l.Context = ctx
		return l, func() {}
	}
	merged, cancel := context.WithCancel(ctx)
	if l.Context.Err() != nil {
		cancel() // already done: propagate synchronously, not via AfterFunc's goroutine
		return withCtx(l, merged), func() {}
	}
	stop := context.AfterFunc(l.Context, cancel)
	return withCtx(l, merged), func() {
		stop()
		cancel()
	}
}

// withCtx returns l with its context replaced.
func withCtx(l Limits, ctx context.Context) Limits {
	l.Context = ctx
	return l
}

// EnumerateContext is Enumerate bound to a request context: the search
// aborts (Result.TimedOut) when ctx is cancelled or its deadline
// passes, on top of any limits in opt. This is the query surface the
// HTTP serving layer maps per-request deadlines onto.
func (e *Engine) EnumerateContext(ctx context.Context, k int, r float64, opt EnumOptions) (*Result, error) {
	limits, release := limitsWithContext(ctx, opt.Limits)
	defer release()
	opt.Limits = limits
	return e.Enumerate(k, r, opt)
}

// EnumerateContainingContext is EnumerateContaining bound to a request
// context (see EnumerateContext).
func (e *Engine) EnumerateContainingContext(ctx context.Context, k int, r float64, v int32, opt EnumOptions) (*Result, error) {
	limits, release := limitsWithContext(ctx, opt.Limits)
	defer release()
	opt.Limits = limits
	return e.EnumerateContaining(k, r, v, opt)
}

// FindMaximumContext is FindMaximum bound to a request context (see
// EnumerateContext).
func (e *Engine) FindMaximumContext(ctx context.Context, k int, r float64, opt MaxOptions) (*Result, error) {
	limits, release := limitsWithContext(ctx, opt.Limits)
	defer release()
	opt.Limits = limits
	return e.FindMaximum(k, r, opt)
}

// prepared returns the cached candidate components for (k,r), building
// them exactly once. The engine mutex is held only for the map lookup;
// construction runs under the entry's sync.Once so concurrent queries
// for other settings are not blocked.
func (e *Engine) prepared(k int, r float64) (*core.Prepared, error) {
	if e.metric == nil {
		return nil, errors.New("krcore: engine has no similarity metric")
	}
	if k < 1 {
		return nil, fmt.Errorf("krcore: k must be >= 1, got %d", k)
	}
	if math.IsNaN(r) {
		// NaN never equals itself, so it would miss (and grow) the
		// float64-keyed caches on every query.
		return nil, errors.New("krcore: similarity threshold r must not be NaN")
	}
	key := krKey{k: k, r: r}
	e.mu.Lock()
	ent, ok := e.byKR[key]
	if !ok {
		ent = &krEntry{}
		e.byKR[key] = ent
	}
	e.mu.Unlock()
	// A hit is an entry that is already fully built AND usable; a
	// caller that merely finds the map slot while another query is
	// still inside the once below blocks with the builder and pays the
	// same latency, so it counts as a miss — as does a cached build
	// error, which serves no prepared state. (Reading ent.err here is
	// safe: it is written before the ready flag's atomic store.)
	e.traffic.count(key, ok && ent.ready.Load() && ent.err == nil)
	ent.once.Do(func() {
		re := e.forR(r)
		ent.pr, ent.err = core.PrepareFiltered(re.filtered, core.Params{K: k, Oracle: re.oracle})
		ent.ready.Store(true)
	})
	return ent.pr, ent.err
}

// rEntryFor returns the map slot of threshold r, inserting an empty
// entry under the engine mutex; the entry's halves build lazily.
func (e *Engine) rEntryFor(r float64) *rEntry {
	e.mu.Lock()
	ent, ok := e.byR[r]
	if !ok {
		ent = &rEntry{}
		e.byR[r] = ent
	}
	e.mu.Unlock()
	return ent
}

// buildOracle builds the oracle half of an rEntry exactly once: the
// similarity oracle plus its bulk index, but not the filtered graph.
func (e *Engine) buildOracle(ent *rEntry, r float64) {
	ent.oracleOnce.Do(func() {
		ent.oracle = NewOracle(e.metric, r)
		BuildIndex(ent.oracle)
		ent.oracleReady.Store(true)
	})
}

// forR returns the fully-built r-dependent shared state (oracle, index,
// filtered graph), building each half exactly once per threshold.
func (e *Engine) forR(r float64) *rEntry {
	ent := e.rEntryFor(r)
	e.buildOracle(ent, r)
	ent.filterOnce.Do(func() {
		ent.filtered = simgraph.FilterByKeys(e.g, e.edgeKeys(ent.oracle), ent.oracle)
		ent.ready.Store(true)
	})
	return ent
}

// edgeKeys returns the engine's per-edge key table, scoring every edge
// through o on first use. Keys do not depend on the threshold, so any
// oracle over the engine's metric builds the table every r shares.
func (e *Engine) edgeKeys(o *Oracle) []float64 {
	e.keysOnce.Do(func() { e.keys = simgraph.EdgeKeys(e.g, o) })
	return e.keys
}

// advanceDelta describes one committed mutation batch to the engine's
// scoped invalidation: the post-mutation graph, the metric over the
// post-mutation attributes, the effective edge diff (normalized u < v),
// the vertices with changed attributes, whether the vertex set grew,
// and the touched mask (endpoints of every changed pair plus every
// attribute-changed vertex, length g2.N()).
type advanceDelta struct {
	g2        *graph.Graph
	metric    Metric
	addPairs  [][2]int32
	delPairs  [][2]int32
	attrVerts []int32
	grown     bool
	touched   []bool
}

// advanceStats reports what one advance carried over versus rebuilt,
// and which core-maintenance path each cached (k,r) setting took.
type advanceStats struct {
	indexesKept, indexesRebuilt         int
	componentsReused, componentsRebuilt int
	patchesIncremental, patchesFull     int
	coreVisited                         int
}

// advance returns a new engine serving the mutated graph, carrying over
// every cache entry the delta provably left intact:
//
//   - per-r oracles and bulk similarity indexes survive structure-only
//     changes (they depend on attributes alone); attribute changes and
//     vertex growth rebuild them, because indexes snapshot per-vertex
//     state at construction;
//   - per-r filtered graphs are patched incrementally — only the new
//     pairs and the edges of attribute-changed vertices are classified
//     by the oracle (see simgraph.PatchFiltered), never all m edges;
//   - per-(k,r) prepared candidate components are maintained
//     incrementally: the per-vertex core numbers are repaired around the
//     changed edges and only the affected components are rediscovered
//     and rebuilt (see core.PatchPreparedDelta); batches touching a
//     region larger than the patch budget fall back to the O(n+m) full
//     recompute, and either way every component untouched by the delta
//     keeps its existing problem, including its dissimilarity rows.
//
// The per-edge key table is not carried: the new engine scores its
// graph's edges again on its first new threshold.
//
// The new engine shares the receiver's traffic table, so a query the
// receiver still serves while advance runs is counted on the published
// engine too. The new engine and the oracles it rebuilds read
// d.metric; carried oracles keep reading the receiver's store, which
// an attribute or growth round must therefore leave unchanged
// (DynamicEngine edits a copy). The receiver is left unchanged and
// keeps serving its own snapshot. Entries still being built when
// advance copies the cache maps are not carried; the new engine
// rebuilds them on demand.
func (e *Engine) advance(d advanceDelta) (*Engine, advanceStats) {
	var st advanceStats
	ne := newEngine(d.g2, d.metric, e.traffic)
	e.mu.Lock()
	rs := make(map[float64]*rEntry, len(e.byR))
	for r, ent := range e.byR {
		rs[r] = ent
	}
	krs := make(map[krKey]*krEntry, len(e.byKR))
	for key, ent := range e.byKR {
		krs[key] = ent
	}
	e.mu.Unlock()
	attrsChanged := len(d.attrVerts) > 0 || d.grown
	type filteredDiff struct{ add, del [][2]int32 }
	diffs := make(map[float64]filteredDiff, len(rs))
	for r, old := range rs {
		if !old.ready.Load() {
			// Never finished building (this includes oracle-only
			// entries, whose filtered graph cannot be patched);
			// rebuilt lazily on demand.
			continue
		}
		oracle := old.oracle
		if attrsChanged {
			oracle = NewOracle(d.metric, r)
			BuildIndex(oracle)
			st.indexesRebuilt++
		} else {
			st.indexesKept++
		}
		filtered, addF, delF := simgraph.PatchFiltered(old.filtered, oracle, d.g2,
			d.addPairs, d.delPairs, d.attrVerts)
		diffs[r] = filteredDiff{add: addF, del: delF}
		ne.byR[r] = readyREntry(oracle, filtered)
	}
	for key, old := range krs {
		if !old.ready.Load() || old.err != nil {
			continue
		}
		re := ne.byR[key.r]
		if re == nil {
			continue
		}
		fd := diffs[key.r]
		pr, pst, err := core.PatchPreparedDelta(old.pr, re.filtered,
			core.Params{K: key.k, Oracle: re.oracle}, core.PatchDelta{
				AddFiltered: fd.add,
				DelFiltered: fd.del,
				AttrVerts:   d.attrVerts,
				Touched:     d.touched,
			})
		if err != nil {
			continue // impossible for a cached entry; rebuild lazily
		}
		st.componentsReused += pst.Reused
		st.componentsRebuilt += pst.Rebuilt
		if pst.Incremental {
			st.patchesIncremental++
		} else {
			st.patchesFull++
		}
		st.coreVisited += pst.CoreVisited
		ne.byKR[key] = readyKREntry(pr)
	}
	return ne, st
}
