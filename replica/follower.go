// Package replica turns single krcored processes into a replicated
// serving fleet: a Follower bootstraps from a leader's snapshot and
// tails its journal stream into a local DynamicEngine, and a Router
// spreads reads across replicas with (k,r)-affinity while forwarding
// writes to the leader and promoting the freshest follower when the
// leader dies.
//
// The replication contract is offset-based and idempotent: every
// committed operation has one absolute journal offset, a follower
// always polls from its own engine's JournalOffset, and the leader
// serves the identical operations for the same offset — so a follower
// resumes after any failure (dropped connection, truncated body,
// follower restart) without duplicating or skipping operations.
// Because snapshot load plus replay is bit-identical to applying the
// same operations on a fresh engine, every follower answers queries
// bit-identical to the leader at the same offset.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"krcore"
	"krcore/client"
	"krcore/internal/metrics"
	"krcore/internal/updates"
)

// FollowerConfig parameterises a Follower.
type FollowerConfig struct {
	// Leader is the leader daemon's base URL (required).
	Leader string
	// Client overrides the leader client (timeouts, transports, test
	// doubles); nil builds one from Leader.
	Client *client.Client
	// Journal, when set, is the follower's own write-ahead journal:
	// reset to the snapshot's offset at bootstrap and attached to the
	// engine, so every replicated operation is locally durable and a
	// promoted follower leads from a journal aligned with its state.
	Journal *updates.Journal
	// PollWait is the long-poll duration of each tail request.
	// Default 2s.
	PollWait time.Duration
	// PollMax caps operations per tail response (0 = server maximum).
	PollMax int
	// ReplayBatch is the ApplyBatch group size during replay.
	// Default 256.
	ReplayBatch int
	// Backoff is the pause after a failed poll or bootstrap.
	// Default 250ms.
	Backoff time.Duration
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.Client == nil {
		c.Client = client.New(c.Leader)
	}
	if c.PollWait <= 0 {
		c.PollWait = 2 * time.Second
	}
	if c.ReplayBatch <= 0 {
		c.ReplayBatch = 256
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	return c
}

// Follower replicates one leader. It implements the query and update
// surfaces of krcore/server (Backend and Updater), delegating to its
// current engine — so a Follower is mounted directly as a read-only
// server backend, and keeps serving across a re-bootstrap (the engine
// swap is atomic). Create with NewFollower, call Bootstrap, then run
// the tail loop with Run; the serving surface is valid only after a
// successful Bootstrap.
type Follower struct {
	cfg FollowerConfig
	cl  *client.Client

	engine     atomic.Pointer[krcore.DynamicEngine]
	lag        atomic.Int64
	applied    atomic.Int64 // ops applied through the tail loop
	bootstraps atomic.Int64
	lastErr    atomic.Pointer[error]

	started atomic.Bool
	stop    chan struct{}
	stopped atomic.Bool
	runDone chan struct{}
}

// NewFollower returns an unbootstrapped follower of the leader.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Leader == "" && cfg.Client == nil {
		return nil, errors.New("replica: follower needs a leader URL")
	}
	cfg = cfg.withDefaults()
	return &Follower{
		cfg:     cfg,
		cl:      cfg.Client,
		stop:    make(chan struct{}),
		runDone: make(chan struct{}),
	}, nil
}

// Bootstrap downloads the leader's current snapshot, loads it into a
// fresh engine, aligns the local journal (when configured) to the
// snapshot's offset and atomically installs the engine as the serving
// state. Safe to call again later — ErrTailCompacted recovery does —
// without disturbing concurrent readers of the previous engine.
func (f *Follower) Bootstrap(ctx context.Context) error {
	rc, _, err := f.cl.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	eng, lerr := krcore.LoadDynamicEngine(rc)
	cerr := rc.Close()
	if lerr != nil {
		return fmt.Errorf("replica: bootstrap: %w", lerr)
	}
	if cerr != nil {
		return fmt.Errorf("replica: bootstrap: %w", cerr)
	}
	off := eng.JournalOffset()
	if f.cfg.Journal != nil {
		// The local tail (from any previous life) is discarded: the
		// leader serves everything past the snapshot's offset anyway,
		// and restarting the journal exactly at the snapshot keeps the
		// absolute numbering aligned with the engine.
		if err := f.cfg.Journal.ResetTo(off); err != nil {
			return fmt.Errorf("replica: bootstrap: %w", err)
		}
		eng.SetJournal(f.cfg.Journal)
	}
	f.engine.Store(eng)
	f.bootstraps.Add(1)
	return nil
}

// Run tails the leader until ctx is cancelled or Stop is called,
// applying streamed operations through the engine's group-commit
// path. Transient failures (leader down, dropped or truncated
// responses) back off and resume from the engine's own offset; a 410
// (the leader compacted past us) re-bootstraps from the snapshot.
// Run returns nil on Stop and ctx.Err() on cancellation.
func (f *Follower) Run(ctx context.Context) error {
	if !f.started.CompareAndSwap(false, true) {
		return errors.New("replica: follower already running")
	}
	defer close(f.runDone)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-f.stop:
			return nil
		default:
		}
		eng := f.engine.Load()
		if eng == nil {
			if err := f.Bootstrap(ctx); err != nil {
				f.setErr(err)
				if !f.sleep(ctx) {
					return ctx.Err()
				}
			}
			continue
		}
		from := eng.JournalOffset()
		t, err := f.cl.JournalTail(ctx, from, client.TailOptions{Wait: f.cfg.PollWait, Max: f.cfg.PollMax})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			f.setErr(err)
			if errors.Is(err, client.ErrTailCompacted) {
				// The leader compacted past our offset: the journal
				// alone can no longer catch us up. Start over from the
				// snapshot; readers keep the old engine until the swap.
				if berr := f.Bootstrap(ctx); berr != nil {
					f.setErr(berr)
					if !f.sleep(ctx) {
						return ctx.Err()
					}
				}
				continue
			}
			if !f.sleep(ctx) {
				return ctx.Err()
			}
			continue
		}
		if len(t.Ops) > 0 {
			if _, err := updates.Replay(eng, t.Ops, f.cfg.ReplayBatch); err != nil {
				// A rejected replicated operation means this replica
				// diverged from the leader; the snapshot is the
				// authority, so rebuild from it rather than retrying
				// the same doomed tail forever.
				f.setErr(fmt.Errorf("replica: replay diverged, re-bootstrapping: %w", err))
				if berr := f.Bootstrap(ctx); berr != nil {
					f.setErr(berr)
					if !f.sleep(ctx) {
						return ctx.Err()
					}
				}
				continue
			}
			f.applied.Add(int64(len(t.Ops)))
		}
		if lag := t.End - eng.JournalOffset(); lag > 0 {
			f.lag.Store(lag)
		} else {
			f.lag.Store(0)
		}
	}
}

// Stop ends the tail loop and waits for it to exit (bounded by ctx) —
// wire it as the server's OnPromote hook so no replicated operation
// can land after the node starts accepting writes. Idempotent; a nil
// return means the loop is no longer applying operations.
func (f *Follower) Stop(ctx context.Context) error {
	if f.stopped.CompareAndSwap(false, true) {
		close(f.stop)
	}
	if !f.started.Load() {
		return nil
	}
	select {
	case <-f.runDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("replica: tail loop still draining: %w", ctx.Err())
	}
}

// sleep pauses for the backoff; false means ctx expired.
func (f *Follower) sleep(ctx context.Context) bool {
	t := time.NewTimer(f.cfg.Backoff)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.stop:
		return true
	case <-ctx.Done():
		return false
	}
}

func (f *Follower) setErr(err error) { f.lastErr.Store(&err) }

// LastError returns the most recent tail or bootstrap failure, nil
// when replication has been clean.
func (f *Follower) LastError() error {
	if p := f.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Lag is the follower's last observed distance behind the leader in
// operations — wire it as the server's Lag hook.
func (f *Follower) Lag() int64 { return f.lag.Load() }

// Bootstraps counts snapshot bootstraps (1 after a clean start; more
// after ErrTailCompacted or divergence recoveries).
func (f *Follower) Bootstraps() int64 { return f.bootstraps.Load() }

// Applied counts operations applied through the tail loop.
func (f *Follower) Applied() int64 { return f.applied.Load() }

// Engine returns the current serving engine (nil before Bootstrap).
// The engine may be swapped by a re-bootstrap; callers should grab it
// once per operation rather than caching it.
func (f *Follower) Engine() *krcore.DynamicEngine { return f.engine.Load() }

// RegisterMetrics adds the follower's replication series to a metric
// registry (typically the serving server's, so they export on
// /metrics alongside the lag gauge wired via the server's Lag hook).
func (f *Follower) RegisterMetrics(reg *metrics.Registry) {
	sampled := func(name, help string, kind metrics.Kind, get func() int64) {
		reg.SampleFunc(name, help, kind, nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(get())}}
		})
	}
	sampled("krcored_follower_bootstraps_total", "snapshot bootstraps (re-bootstraps mean the leader compacted past this follower)", metrics.KindCounter, f.Bootstraps)
	sampled("krcored_follower_applied_ops_total", "operations applied from the leader's journal stream", metrics.KindCounter, f.Applied)
	sampled("krcored_follower_healthy", "1 while the tail loop has an engine and no sticky error state", metrics.KindGauge, func() int64 {
		if f.engine.Load() != nil {
			return 1
		}
		return 0
	})
}

// cur returns the serving engine, panicking before Bootstrap — the
// server surface below is documented as valid only after one.
func (f *Follower) cur() *krcore.DynamicEngine {
	eng := f.engine.Load()
	if eng == nil {
		panic("replica: follower used as a backend before Bootstrap")
	}
	return eng
}

// --- krcore/server Backend + Updater surface, delegating to the
// current engine so the server keeps working across engine swaps. ---

// EnumerateContext implements server.Backend.
func (f *Follower) EnumerateContext(ctx context.Context, k int, r float64, opt krcore.EnumOptions) (*krcore.Result, error) {
	return f.cur().EnumerateContext(ctx, k, r, opt)
}

// EnumerateContainingContext implements server.Backend.
func (f *Follower) EnumerateContainingContext(ctx context.Context, k int, r float64, v int32, opt krcore.EnumOptions) (*krcore.Result, error) {
	return f.cur().EnumerateContainingContext(ctx, k, r, v, opt)
}

// FindMaximumContext implements server.Backend.
func (f *Follower) FindMaximumContext(ctx context.Context, k int, r float64, opt krcore.MaxOptions) (*krcore.Result, error) {
	return f.cur().FindMaximumContext(ctx, k, r, opt)
}

// Warm implements server.Backend.
func (f *Follower) Warm(k int, r float64) error { return f.cur().Warm(k, r) }

// Stats implements server.Backend.
func (f *Follower) Stats() krcore.EngineStats { return f.cur().Stats() }

// Graph implements server.Backend.
func (f *Follower) Graph() *krcore.Graph { return f.cur().Graph() }

// SettingsStats implements server.Backend.
func (f *Follower) SettingsStats() []krcore.SettingStats { return f.cur().SettingsStats() }

// ApplyBatch implements server.Updater. It reaches the engine only
// after promotion — while the node follows, the server's read-only
// gate answers 503 before this is called.
func (f *Follower) ApplyBatch(batch []krcore.Update) error { return f.cur().ApplyBatch(batch) }

// DynamicStats implements server.Updater.
func (f *Follower) DynamicStats() krcore.DynamicStats { return f.cur().DynamicStats() }

// JournalOffset reports the operations folded into the serving state
// (the applied offset exported on /metrics and PathReplication).
func (f *Follower) JournalOffset() int64 {
	if eng := f.engine.Load(); eng != nil {
		return eng.JournalOffset()
	}
	return 0
}

// AttributeKind names the engine's attribute-store kind.
func (f *Follower) AttributeKind() string { return f.cur().AttributeKind() }

// SaveSnapshot streams the current engine's snapshot — wire it as the
// server's Snapshot hook so this follower can itself bootstrap others
// (and lead after a promotion).
func (f *Follower) SaveSnapshot(w io.Writer) error { return f.cur().SaveSnapshot(w) }
