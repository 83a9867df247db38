package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"krcore"
)

// The traced runs record spans from this package only, around calls
// into each layer's public surface: the server.Backend and
// server.Updater calls the HTTP layer makes, the journal appends the
// dynamic engine makes, and (in the cold sweep) the cold-path stages
// called one by one. Nothing inside the program is changed.

// tagBase marks a traced request. The client sends max_nodes =
// tagBase+id; the backend decorator recovers id and clears the field
// before the engine sees it, so a tagged request searches exactly like
// an untagged one. It lets a server-side span be matched to the
// client-side request that caused it.
const tagBase = int64(1) << 40

// spanTable holds the backend-call duration of each tagged request,
// indexed by its id.
type spanTable struct {
	ns []atomic.Int64
}

func newSpanTable(n int) *spanTable { return &spanTable{ns: make([]atomic.Int64, n)} }

func (t *spanTable) get(id int) time.Duration { return time.Duration(t.ns[id].Load()) }

// untag strips a request tag from the limits, returning the id (-1 for
// an untagged request).
func (t *spanTable) untag(l krcore.Limits) (int, krcore.Limits) {
	id := l.MaxNodes - tagBase
	if l.MaxNodes < tagBase || id >= int64(len(t.ns)) {
		return -1, l
	}
	l.MaxNodes = 0
	return int(id), l
}

func (t *spanTable) record(id int, d time.Duration) {
	if id >= 0 {
		t.ns[id].Store(int64(d))
	}
}

// durations is an append-only list of span durations.
type durations struct {
	mu sync.Mutex
	ds []time.Duration
}

func (d *durations) add(x time.Duration) {
	d.mu.Lock()
	d.ds = append(d.ds, x)
	d.mu.Unlock()
}

func (d *durations) snapshot() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Duration(nil), d.ds...)
}

// tracedEngine decorates the dynamic engine a server fronts: each
// query call is timed into spans under its request tag, and each
// ApplyBatch is timed as one commit span. Every other method — Warm,
// Stats, Graph, DynamicStats, SettingsStats — is the engine's own, so
// the server sees the same surface as with the bare engine.
type tracedEngine struct {
	*krcore.DynamicEngine
	spans   *spanTable
	commits durations
}

func (t *tracedEngine) EnumerateContext(ctx context.Context, k int, r float64, opt krcore.EnumOptions) (*krcore.Result, error) {
	id, lim := t.spans.untag(opt.Limits)
	opt.Limits = lim
	t0 := time.Now()
	res, err := t.DynamicEngine.EnumerateContext(ctx, k, r, opt)
	t.spans.record(id, time.Since(t0))
	return res, err
}

func (t *tracedEngine) EnumerateContainingContext(ctx context.Context, k int, r float64, v int32, opt krcore.EnumOptions) (*krcore.Result, error) {
	id, lim := t.spans.untag(opt.Limits)
	opt.Limits = lim
	t0 := time.Now()
	res, err := t.DynamicEngine.EnumerateContainingContext(ctx, k, r, v, opt)
	t.spans.record(id, time.Since(t0))
	return res, err
}

func (t *tracedEngine) FindMaximumContext(ctx context.Context, k int, r float64, opt krcore.MaxOptions) (*krcore.Result, error) {
	id, lim := t.spans.untag(opt.Limits)
	opt.Limits = lim
	t0 := time.Now()
	res, err := t.DynamicEngine.FindMaximumContext(ctx, k, r, opt)
	t.spans.record(id, time.Since(t0))
	return res, err
}

func (t *tracedEngine) ApplyBatch(batch []krcore.Update) error {
	t0 := time.Now()
	err := t.DynamicEngine.ApplyBatch(batch)
	t.commits.add(time.Since(t0))
	return err
}

// tracedJournal decorates the engine's journal, timing each append
// (write plus fsync) as one span.
type tracedJournal struct {
	j       krcore.JournalAppender
	appends durations
}

func (t *tracedJournal) AppendBatch(batch []krcore.Update) error {
	t0 := time.Now()
	err := t.j.AppendBatch(batch)
	t.appends.add(time.Since(t0))
	return err
}
