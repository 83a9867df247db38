package krcore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"krcore/internal/attr"
	"krcore/internal/graph"
	"krcore/internal/similarity"
)

// UpdateOp identifies one mutation kind in an Update.
type UpdateOp uint8

const (
	// OpAddEdge inserts the undirected edge (U,V); inserting an existing
	// edge is a no-op.
	OpAddEdge UpdateOp = iota
	// OpRemoveEdge deletes the undirected edge (U,V); deleting a missing
	// edge is a no-op.
	OpRemoveEdge
	// OpAddVertex appends one isolated vertex with zero-valued
	// attributes; edges to it may follow in the same batch.
	OpAddVertex
	// OpSetAttributes replaces the attributes of vertex U with Attrs.
	OpSetAttributes
)

// String returns the update-stream mnemonic of the operation.
func (op UpdateOp) String() string {
	switch op {
	case OpAddEdge:
		return "add-edge"
	case OpRemoveEdge:
		return "remove-edge"
	case OpAddVertex:
		return "add-vertex"
	case OpSetAttributes:
		return "set-attributes"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// VertexAttributes carries one vertex's new attributes for whichever
// attribute kind the engine serves: X/Y for geo stores, Keys for
// keyword stores, Keys+Weights for weighted keyword stores. Fields
// irrelevant to the store's kind are ignored.
type VertexAttributes struct {
	X, Y    float64
	Keys    []int32
	Weights []float64
}

// Update is one mutation of a DynamicEngine's graph or attributes.
// Within a batch, updates validate and take effect in order, so an
// OpAddVertex may be followed by edges to the new vertex.
type Update struct {
	Op    UpdateOp
	U, V  int32
	Attrs VertexAttributes
}

// AddEdgeUpdate returns an OpAddEdge update.
func AddEdgeUpdate(u, v int32) Update { return Update{Op: OpAddEdge, U: u, V: v} }

// RemoveEdgeUpdate returns an OpRemoveEdge update.
func RemoveEdgeUpdate(u, v int32) Update { return Update{Op: OpRemoveEdge, U: u, V: v} }

// AddVertexUpdate returns an OpAddVertex update.
func AddVertexUpdate() Update { return Update{Op: OpAddVertex} }

// SetAttributesUpdate returns an OpSetAttributes update for vertex u.
func SetAttributesUpdate(u int32, a VertexAttributes) Update {
	return Update{Op: OpSetAttributes, U: u, Attrs: a}
}

// DynamicAttributes is the mutable attribute store a DynamicEngine
// maintains alongside its graph. GeoAttributes, KeywordAttributes and
// WeightedKeywordAttributes implement it; adapters over custom metrics
// only need these four methods.
type DynamicAttributes interface {
	// Metric exposes the similarity metric reading the store.
	Metric() Metric
	// Grow extends the store to n vertices with zero-valued attributes
	// (no-op when already at least that large).
	Grow(n int)
	// SetAttributes replaces the attributes of vertex u with the
	// kind-relevant fields of a.
	SetAttributes(u int32, a VertexAttributes)
	// Clone returns a deep copy whose writes the original never sees.
	// An attribute or growth round edits a clone, so the store an
	// earlier snapshot serves from stays unchanged.
	Clone() DynamicAttributes
}

// DynamicStats counts a DynamicEngine's update activity and how much
// cached state its scoped invalidation preserved.
type DynamicStats struct {
	// Updates is the number of individual operations accepted.
	Updates int64
	// Batches is the number of ApplyBatch commits (no-op batches
	// included).
	Batches int64
	// Version counts the commits that changed the graph or the
	// attributes; a no-op batch does not bump it.
	Version int64
	// IndexesKept / IndexesRebuilt count per-threshold similarity
	// indexes carried across updates versus rebuilt (structure-only
	// changes keep them; attribute changes and vertex growth rebuild).
	IndexesKept, IndexesRebuilt int64
	// ComponentsReused / ComponentsRebuilt count prepared (k,r)
	// candidate components carried across updates versus rebuilt.
	ComponentsReused, ComponentsRebuilt int64
	// GroupCommits counts commit rounds. Concurrent ApplyBatch calls
	// coalesce into one round — one lock acquisition, one journal
	// append, one snapshot advance — so Batches/GroupCommits is the
	// write path's achieved coalescing factor (1.0 when writers never
	// overlap).
	GroupCommits int64
	// PatchesIncremental / PatchesFull count cached (k,r) settings
	// maintained by incremental core repair versus by the O(n+m) full
	// recompute fallback.
	PatchesIncremental, PatchesFull int64
	// CoreVisited totals the vertices whose neighbourhoods incremental
	// maintenance scanned (core repair plus affected-region discovery),
	// the direct measure of how local the update stream's effects are.
	CoreVisited int64
}

// CommitInfo describes one committed group-commit round to a commit
// observer: how many ApplyBatch calls coalesced into the round and how
// many update operations they carried. Batches/1 is a round that found
// no concurrent writers; larger values are the write path's amortised
// fan-in, the distribution the serving layer exports as a histogram.
type CommitInfo struct {
	// Batches is the number of accepted ApplyBatch calls in the round.
	Batches int
	// Ops is the total accepted update operations across those batches.
	Ops int
}

// JournalAppender receives every committed update before its snapshot
// is published, the hook a durable write-ahead journal implements (see
// updates.Journal). A commit group's operations arrive as one call —
// group commit amortises journal I/O the same way it amortises
// snapshot advances. An append error fails the whole group: no state
// changes, every waiting ApplyBatch call gets the error.
type JournalAppender interface {
	AppendBatch(batch []Update) error
}

// DynamicEngine is the mutable serving layer: an Engine that accepts
// live graph and attribute updates — AddEdge, RemoveEdge, AddVertex,
// SetAttributes, batched through ApplyBatch — while staying answerable
// for (k,r) queries. Social networks are never static; this layer makes
// a mutation cost incremental work instead of discarding every cached
// oracle, similarity index, filtered graph and prepared component.
//
// Every committed batch publishes a fresh immutable snapshot (attribute
// store, graph and engine) built by scoped invalidation: structure-only
// changes keep the per-r similarity indexes; the per-r filtered graphs
// are patched by classifying only the new or changed pairs; and
// prepared (k,r) components untouched by the delta are reused verbatim.
// Results are always bit-identical to a from-scratch Engine over the
// mutated graph — the differential test harness enforces exactly that.
//
// Concurrency: each query loads the current snapshot with one atomic
// read and runs on it to completion, so queries never wait for a
// writer and writers never wait for a query. Mutations go through a
// group-commit write path: concurrent ApplyBatch calls enqueue their
// batches and the first caller through becomes the round's leader,
// validating and merging every queued batch into one delta, one journal
// append and one snapshot advance. The leader builds the next snapshot
// beside the current one — an attribute or growth round edits a copy
// of the attribute store — and publishes it with one atomic store. All
// methods are safe for concurrent use.
type DynamicEngine struct {
	// cur is the published snapshot. Nothing reachable from it is
	// written after publication.
	cur atomic.Pointer[dynSnapshot]

	// commitMu serialises commit rounds; the holder is the round's
	// leader and the only writer of cur. journal is guarded by it, and
	// the leader's journal append (one fsync per group commit)
	// deliberately runs under it — that ordering is the durability
	// contract. krlint:iolock
	commitMu  sync.Mutex
	journal   JournalAppender
	commitObs func(CommitInfo)

	// pendMu guards the queue of batches awaiting a leader.
	pendMu  sync.Mutex
	pending []*commitReq
}

// dynSnapshot is one published state of a DynamicEngine: the attribute
// store, the engine serving the graph (eng.g) over that store, and the
// update counters up to this state.
type dynSnapshot struct {
	attrs DynamicAttributes
	eng   *Engine
	stats DynamicStats
}

// commitReq is one ApplyBatch call waiting in the commit queue.
type commitReq struct {
	batch []Update
	// done receives the batch's outcome exactly once; buffered so the
	// leader never blocks on a waiter.
	done chan error
	// newN is the graph's vertex count right after this batch's updates,
	// recorded during validation so AddVertex can name its vertex even
	// when later batches in the same round add more.
	newN int
}

// NewDynamicEngine returns a mutable serving engine over the graph and
// attribute store. The store is grown to cover the graph's vertices;
// the engine reads it until its first attribute or growth write, which
// copies it, and never writes it after construction. The caller must
// not modify the store while the engine may still read it.
func NewDynamicEngine(g *Graph, attrs DynamicAttributes) (*DynamicEngine, error) {
	if g == nil {
		return nil, errors.New("krcore: dynamic engine needs a graph")
	}
	if attrs == nil {
		return nil, errors.New("krcore: dynamic engine needs a dynamic attribute store")
	}
	attrs.Grow(g.N())
	d := &DynamicEngine{}
	d.cur.Store(&dynSnapshot{attrs: attrs, eng: NewEngine(g, attrs.Metric())})
	return d, nil
}

// AddEdge inserts the undirected edge (u,v). Inserting an existing edge
// is a no-op; self-loops and out-of-range endpoints are errors.
func (d *DynamicEngine) AddEdge(u, v int32) error {
	return d.ApplyBatch([]Update{AddEdgeUpdate(u, v)})
}

// RemoveEdge deletes the undirected edge (u,v). Deleting a missing edge
// is a no-op; self-loops and out-of-range endpoints are errors.
func (d *DynamicEngine) RemoveEdge(u, v int32) error {
	return d.ApplyBatch([]Update{RemoveEdgeUpdate(u, v)})
}

// AddVertex appends one isolated vertex with zero-valued attributes and
// returns its id.
func (d *DynamicEngine) AddVertex() (int32, error) {
	newN, err := d.commit([]Update{AddVertexUpdate()})
	if err != nil {
		return 0, err
	}
	return int32(newN - 1), nil
}

// SetAttributes replaces the attributes of vertex u.
func (d *DynamicEngine) SetAttributes(u int32, a VertexAttributes) error {
	return d.ApplyBatch([]Update{SetAttributesUpdate(u, a)})
}

// BatchError is the error a rejected ApplyBatch returns: it names the
// offending update by its index within the batch, so stream-replay
// tooling can map the rejection back to a source position. The whole
// batch is discarded — Index records where validation stopped, not a
// partial-commit boundary.
type BatchError struct {
	// Index is the position of the invalid update within the batch.
	Index int
	// Op is the operation kind of the invalid update.
	Op UpdateOp
	// Err is the underlying validation error.
	Err error
}

// Error implements the error interface.
func (e *BatchError) Error() string {
	return fmt.Sprintf("krcore: update %d (%s): %v", e.Index, e.Op, e.Err)
}

// Unwrap returns the underlying validation error.
func (e *BatchError) Unwrap() error { return e.Err }

// ApplyBatch validates and commits a batch of updates atomically: on
// the first invalid update nothing is applied (the returned error is a
// *BatchError naming the offender), otherwise the whole batch becomes
// part of one new snapshot. An empty batch is a no-op.
//
// Concurrent calls group-commit: batches queued while a commit is in
// flight are validated, journalled and advanced together in the next
// round, one snapshot for the whole group. Atomicity stays per batch —
// a batch that fails validation is excluded from its round without
// affecting the others — and the happens-before order of returns
// matches commit order.
func (d *DynamicEngine) ApplyBatch(batch []Update) error {
	_, err := d.commit(batch)
	return err
}

// SetJournal attaches (or with nil detaches) a durable journal. Every
// committed round appends its accepted updates — in commit order — to
// the journal before publishing the new snapshot, so a crash after the
// append can always be replayed past it. Attach before accepting
// writes; swapping mid-stream leaves the journal with a gap.
func (d *DynamicEngine) SetJournal(j JournalAppender) {
	d.commitMu.Lock()
	d.journal = j
	d.commitMu.Unlock()
}

// SetCommitObserver registers fn (nil to detach), called by each
// commit round's leader after the round is accepted — journalled and
// published — with the round's coalescing shape. The serving
// layer uses it to feed group-commit batch-size histograms. fn runs
// under the commit lock: it must be fast and must not block on I/O or
// call back into the engine.
func (d *DynamicEngine) SetCommitObserver(fn func(CommitInfo)) {
	d.commitMu.Lock()
	d.commitObs = fn
	d.commitMu.Unlock()
}

// Adopt publishes src's current state as d's next snapshot, in one
// atomic store: the restore path of a replica that re-bootstraps from
// its leader's snapshot (see LoadDynamicEngine). d takes src's graph,
// attributes, every cached similarity index, filtered graph and
// prepared setting, and src's Updates (the journal offset) and Version.
// d keeps its journal and commit observer, its whole traffic table
// (the engine-wide hit/miss pair and every setting's pair, src's
// counts not added) and its other DynamicStats counters, so none of
// them falls. Queries already running on d finish on the state they
// loaded; src is left unchanged. A caller that journals d aligns the
// journal to src.JournalOffset() before adopting.
func (d *DynamicEngine) Adopt(src *DynamicEngine) {
	in := src.cur.Load()
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	cur := d.cur.Load()
	next := &dynSnapshot{attrs: in.attrs, eng: in.eng.fork(cur.eng.traffic), stats: cur.stats}
	next.stats.Updates = in.stats.Updates
	next.stats.Version = in.stats.Version
	d.cur.Store(next)
}

// AttributeKind names the engine's attribute family — "geo",
// "keywords", "weighted-keywords", or "custom" for user-supplied
// metrics. An update journal stores attribute payloads in the
// kind-specific text format, so a journal opened for this engine must
// use the same kind (see updates.OpenJournal).
func (d *DynamicEngine) AttributeKind() string {
	switch d.Metric().(type) {
	case similarity.Euclidean:
		return "geo"
	case similarity.Jaccard:
		return "keywords"
	case similarity.WeightedJaccard:
		return "weighted-keywords"
	default:
		return "custom"
	}
}

// commit enqueues one batch and returns its outcome and the vertex
// count right after it (for AddVertex). The first caller to take
// commitMu leads the round and commits every queued batch at once;
// the rest find their result already delivered.
func (d *DynamicEngine) commit(batch []Update) (int, error) {
	req := &commitReq{batch: batch, done: make(chan error, 1)}
	d.pendMu.Lock()
	d.pending = append(d.pending, req)
	d.pendMu.Unlock()

	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	// A previous leader may have committed this request already; its
	// send on done happened before it released commitMu, so the result
	// is guaranteed visible here.
	select {
	case err := <-req.done:
		return req.newN, err
	default:
	}
	d.pendMu.Lock()
	group := d.pending
	d.pending = nil
	d.pendMu.Unlock()
	d.commitGroup(group) // delivers every request's outcome, ours included
	return req.newN, <-req.done
}

// errLeaderPanicked is the outcome of every request of a round whose
// leader panicked before publishing it.
var errLeaderPanicked = errors.New("krcore: the commit round was abandoned: its leader panicked")

// applyToDelta validates one batch against the staged delta and the
// attribute store, recording attribute updates aside. On error the
// delta is dirty: the round must restart from a fresh one.
func applyToDelta(delta *graph.Delta, attrs DynamicAttributes, batch []Update, attrUps *[]Update) error {
	for i, up := range batch {
		var err error
		switch up.Op {
		case OpAddVertex:
			delta.AddVertex()
		case OpAddEdge:
			err = delta.AddEdge(up.U, up.V)
		case OpRemoveEdge:
			err = delta.RemoveEdge(up.U, up.V)
		case OpSetAttributes:
			if up.U < 0 || int(up.U) >= delta.N() {
				err = fmt.Errorf("krcore: vertex %d out of range [0,%d)", up.U, delta.N())
			} else if err = checkAttributes(attrs, up.Attrs); err == nil {
				*attrUps = append(*attrUps, up)
			}
		default:
			err = fmt.Errorf("krcore: unknown update op %d", up.Op)
		}
		if err != nil {
			return &BatchError{Index: i, Op: up.Op, Err: err}
		}
	}
	return nil
}

// checkAttributes rejects attributes the store would refuse: a weighted
// keyword store holds only finite, non-negative weights (see
// WeightedKeywordAttributes.Set), which the metrics and the snapshot
// decoder rely on. The store is recognised by its metric, so an
// adapter that delegates to a weighted store is checked too.
func checkAttributes(attrs DynamicAttributes, a VertexAttributes) error {
	if _, ok := attrs.Metric().(similarity.WeightedJaccard); ok {
		if err := attr.CheckWeights(weightedEntries(a.Keys, a.Weights)); err != nil {
			return fmt.Errorf("krcore: %w", err)
		}
	}
	return nil
}

// commitGroup commits one round: validate and merge every queued batch
// into a single delta, build the round's attribute store, append the
// accepted updates to the journal, build the next snapshot beside the
// current one and publish it. Caller holds commitMu, so cur cannot
// change under the leader. Every request receives its outcome, even
// when the leader panics: then each gets errLeaderPanicked, and the
// panic goes on to the leader's caller.
func (d *DynamicEngine) commitGroup(group []*commitReq) {
	cur := d.cur.Load()
	errs := make([]error, len(group))
	settled := false
	defer func() {
		if !settled {
			for gi := range errs {
				errs[gi] = errLeaderPanicked
			}
		}
		deliver(group, errs)
	}()
	var delta *graph.Delta
	var attrUps []Update
	// Merge with per-batch atomicity: a batch failing validation is
	// excluded and the merge restarts, because later batches may
	// reference vertices the excluded one would have added. Each restart
	// excludes at least one batch, so the loop terminates.
restart:
	delta = graph.NewDelta(cur.eng.g)
	attrUps = attrUps[:0]
	for gi, req := range group {
		if errs[gi] != nil {
			continue
		}
		if err := applyToDelta(delta, cur.attrs, req.batch, &attrUps); err != nil {
			errs[gi] = err
			goto restart
		}
		req.newN = delta.N()
	}

	// The round's store copy is built before the journal append, so a
	// caller's store that panics on an update leaves nothing journalled
	// to panic again on replay.
	attrs := cur.attrs
	if delta.N() > cur.eng.g.N() || len(attrUps) > 0 {
		attrs = attrs.Clone()
		attrs.Grow(delta.N())
		for _, up := range attrUps {
			attrs.SetAttributes(up.U, up.Attrs)
		}
	}

	// One journal append for the round, before any state changes: the
	// accepted updates in commit order. Covers effective no-ops too —
	// the journal offset equals the accepted-update count.
	var ops []Update
	accepted := 0
	for gi, req := range group {
		if errs[gi] == nil {
			accepted++
			ops = append(ops, req.batch...)
		}
	}
	if d.journal != nil && len(ops) > 0 {
		if err := d.journal.AppendBatch(ops); err != nil {
			jerr := fmt.Errorf("krcore: journal append failed, batch not applied: %w", err)
			for gi := range group {
				if errs[gi] == nil {
					errs[gi] = jerr
				}
			}
			settled = true
			return
		}
	}

	next := *cur
	if accepted > 0 {
		next.stats.GroupCommits++
	}
	next.stats.Batches += int64(accepted)
	next.stats.Updates += int64(len(ops))
	if !delta.Empty() || len(attrUps) > 0 {
		next.advance(delta, attrUps, attrs)
	}
	d.cur.Store(&next)
	settled = true
	if d.commitObs != nil && accepted > 0 {
		d.commitObs(CommitInfo{Batches: accepted, Ops: len(ops)})
	}
}

// advance moves the snapshot s past one round's merged delta and
// attribute updates, with attrs the round's store: the current one, or
// for an attribute or growth round an edited copy. The engine carries
// over every cache entry the round left intact (see Engine.advance).
func (s *dynSnapshot) advance(delta *graph.Delta, attrUps []Update, attrs DynamicAttributes) {
	g := s.eng.g
	g2 := g.Apply(delta)
	grown := g2.N() > g.N()
	s.attrs = attrs
	attrVerts := make([]int32, 0, len(attrUps))
	attrSeen := map[int32]bool{}
	for _, up := range attrUps {
		if !attrSeen[up.U] {
			attrSeen[up.U] = true
			attrVerts = append(attrVerts, up.U)
		}
	}
	touched := make([]bool, g2.N())
	for _, v := range delta.Touched() {
		touched[v] = true
	}
	for _, u := range attrVerts {
		touched[u] = true
	}
	add, del := delta.Diff()
	ne, ast := s.eng.advance(advanceDelta{
		g2:        g2,
		metric:    s.attrs.Metric(),
		addPairs:  add,
		delPairs:  del,
		attrVerts: attrVerts,
		grown:     grown,
		touched:   touched,
	})
	s.eng = ne
	s.stats.Version++
	s.stats.IndexesKept += int64(ast.indexesKept)
	s.stats.IndexesRebuilt += int64(ast.indexesRebuilt)
	s.stats.ComponentsReused += int64(ast.componentsReused)
	s.stats.ComponentsRebuilt += int64(ast.componentsRebuilt)
	s.stats.PatchesIncremental += int64(ast.patchesIncremental)
	s.stats.PatchesFull += int64(ast.patchesFull)
	s.stats.CoreVisited += int64(ast.coreVisited)
}

// deliver sends each request its outcome. Channels are buffered, so
// the leader never blocks; sends complete before commitMu is released,
// which is what makes the fast path in commit race-free.
func deliver(group []*commitReq, errs []error) {
	for gi, req := range group {
		req.done <- errs[gi]
	}
}

// engine returns the engine of the current snapshot.
func (d *DynamicEngine) engine() *Engine { return d.cur.Load().eng }

// Graph returns the current immutable graph snapshot. It stays valid
// (and unchanged) however many updates follow.
func (d *DynamicEngine) Graph() *Graph { return d.engine().g }

// Metric returns the similarity metric over the current snapshot's
// attributes. Like Graph, it stays valid and unchanged after later
// updates, so NewEngine(d.Graph(), d.Metric()) between writes is a
// from-scratch engine over the same state.
func (d *DynamicEngine) Metric() Metric { return d.engine().metric }

// N returns the current vertex count.
func (d *DynamicEngine) N() int { return d.Graph().N() }

// M returns the current undirected edge count.
func (d *DynamicEngine) M() int { return d.Graph().M() }

// Enumerate returns all maximal (k,r)-cores of the current snapshot
// (see Engine.Enumerate).
func (d *DynamicEngine) Enumerate(k int, r float64, opt EnumOptions) (*Result, error) {
	return d.engine().Enumerate(k, r, opt)
}

// EnumerateContaining returns the maximal (k,r)-cores containing v in
// the current snapshot (see Engine.EnumerateContaining).
func (d *DynamicEngine) EnumerateContaining(k int, r float64, v int32, opt EnumOptions) (*Result, error) {
	return d.engine().EnumerateContaining(k, r, v, opt)
}

// FindMaximum returns the maximum (k,r)-core of the current snapshot
// (see Engine.FindMaximum).
func (d *DynamicEngine) FindMaximum(k int, r float64, opt MaxOptions) (*Result, error) {
	return d.engine().FindMaximum(k, r, opt)
}

// EnumerateContext is Enumerate bound to a request context (see
// Engine.EnumerateContext).
func (d *DynamicEngine) EnumerateContext(ctx context.Context, k int, r float64, opt EnumOptions) (*Result, error) {
	return d.engine().EnumerateContext(ctx, k, r, opt)
}

// EnumerateContainingContext is EnumerateContaining bound to a request
// context (see Engine.EnumerateContext).
func (d *DynamicEngine) EnumerateContainingContext(ctx context.Context, k int, r float64, v int32, opt EnumOptions) (*Result, error) {
	return d.engine().EnumerateContainingContext(ctx, k, r, v, opt)
}

// FindMaximumContext is FindMaximum bound to a request context (see
// Engine.EnumerateContext).
func (d *DynamicEngine) FindMaximumContext(ctx context.Context, k int, r float64, opt MaxOptions) (*Result, error) {
	return d.engine().FindMaximumContext(ctx, k, r, opt)
}

// Warm prepares the (k,r) setting ahead of traffic; subsequent updates
// keep it prepared through scoped invalidation. A commit carries only
// settings already built when it copies the cache: a build still
// running then is not carried into the next snapshot, and the next
// query there rebuilds it.
func (d *DynamicEngine) Warm(k int, r float64) error {
	return d.engine().Warm(k, r)
}

// Oracle returns the current snapshot's similarity oracle at threshold
// r (see Engine.Oracle). It keeps answering for the attributes of that
// snapshot after later updates.
func (d *DynamicEngine) Oracle(r float64) (*Oracle, error) {
	return d.engine().Oracle(r)
}

// Stats reports the serving cache counters. Hit and miss counts carry
// across updates, so Hits+Misses always equals the number of queries
// answered since construction.
func (d *DynamicEngine) Stats() EngineStats { return d.engine().Stats() }

// SettingsStats reports the per-(k,r) cache traffic since construction
// (see Engine.SettingsStats): one entry per setting looked up, whether
// or not the current snapshot still caches it. Updates and Adopt never
// lower a setting's counts.
func (d *DynamicEngine) SettingsStats() []SettingStats { return d.engine().SettingsStats() }

// DynamicStats reports update activity and invalidation reuse counters.
func (d *DynamicEngine) DynamicStats() DynamicStats { return d.cur.Load().stats }
