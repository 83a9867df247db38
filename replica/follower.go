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

// Follower replicates one leader into one DynamicEngine, which it
// keeps for its whole life: NewFollower bootstraps the engine from the
// leader's snapshot, Run tails the leader's journal into it, and a
// re-bootstrap restores a fresh snapshot into the same engine (see
// krcore.DynamicEngine.Adopt). Mount Engine() directly as the server
// backend and snapshot hook; its counters never fall across a
// re-bootstrap.
type Follower struct {
	cfg FollowerConfig
	cl  *client.Client
	eng *krcore.DynamicEngine

	lag        atomic.Int64
	applied    atomic.Int64 // ops applied through the tail loop
	bootstraps atomic.Int64
	lastErr    atomic.Pointer[error]

	started atomic.Bool
	stop    chan struct{}
	stopped atomic.Bool
	runDone chan struct{}
}

// NewFollower bootstraps a follower of the leader: it downloads the
// leader's current snapshot into the follower's engine and aligns the
// local journal (when configured) to the snapshot's offset before
// attaching it. Call Run to tail the leader from there.
func NewFollower(ctx context.Context, cfg FollowerConfig) (*Follower, error) {
	if cfg.Leader == "" && cfg.Client == nil {
		return nil, errors.New("replica: follower needs a leader URL")
	}
	cfg = cfg.withDefaults()
	f := &Follower{
		cfg:     cfg,
		cl:      cfg.Client,
		stop:    make(chan struct{}),
		runDone: make(chan struct{}),
	}
	eng, err := f.load(ctx)
	if err != nil {
		return nil, err
	}
	if cfg.Journal != nil {
		eng.SetJournal(cfg.Journal)
	}
	f.eng = eng
	f.bootstraps.Store(1)
	return f, nil
}

// load downloads the leader's current snapshot into a fresh engine and
// aligns the local journal (when configured) to the snapshot's offset.
func (f *Follower) load(ctx context.Context) (*krcore.DynamicEngine, error) {
	rc, _, err := f.cl.Snapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("replica: bootstrap: %w", err)
	}
	eng, lerr := krcore.LoadDynamicEngine(rc)
	cerr := rc.Close()
	if lerr != nil {
		return nil, fmt.Errorf("replica: bootstrap: %w", lerr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("replica: bootstrap: %w", cerr)
	}
	if f.cfg.Journal != nil {
		// The local tail (from any previous life) is discarded: the
		// leader serves everything past the snapshot's offset anyway,
		// and restarting the journal exactly at the snapshot keeps the
		// absolute numbering aligned with the engine.
		if err := f.cfg.Journal.ResetTo(eng.JournalOffset()); err != nil {
			return nil, fmt.Errorf("replica: bootstrap: %w", err)
		}
	}
	return eng, nil
}

// rebootstrap restores the leader's current snapshot into the serving
// engine. Readers keep the previous state until the one atomic store
// in Adopt; the journal is aligned before it. A failure is recorded
// and backed off from; false means ctx expired.
func (f *Follower) rebootstrap(ctx context.Context) bool {
	src, err := f.load(ctx)
	if err != nil {
		f.setErr(err)
		return f.sleep(ctx)
	}
	f.bootstraps.Add(1)
	f.eng.Adopt(src)
	return true
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
		from := f.eng.JournalOffset()
		t, err := f.cl.JournalTail(ctx, from, client.TailOptions{Wait: f.cfg.PollWait, Max: f.cfg.PollMax})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			f.setErr(err)
			if errors.Is(err, client.ErrTailCompacted) {
				// The leader compacted past our offset: the journal
				// alone can no longer catch us up. Start over from the
				// snapshot.
				if !f.rebootstrap(ctx) {
					return ctx.Err()
				}
				continue
			}
			if !f.sleep(ctx) {
				return ctx.Err()
			}
			continue
		}
		if len(t.Ops) > 0 {
			if _, err := updates.Replay(f.eng, t.Ops, f.cfg.ReplayBatch); err != nil {
				// A rejected replicated operation means this replica
				// diverged from the leader; the snapshot is the
				// authority, so rebuild from it rather than retrying
				// the same doomed tail forever.
				f.setErr(fmt.Errorf("replica: replay diverged, re-bootstrapping: %w", err))
				if !f.rebootstrap(ctx) {
					return ctx.Err()
				}
				continue
			}
			f.applied.Add(int64(len(t.Ops)))
		}
		if lag := t.End - f.eng.JournalOffset(); lag > 0 {
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

// Engine returns the follower's serving engine: the same engine for
// the follower's whole life, which a re-bootstrap restores into rather
// than replaces.
func (f *Follower) Engine() *krcore.DynamicEngine { return f.eng }

// RegisterMetrics adds the follower's replication series to a metric
// registry (typically the serving server's, so they export on
// /metrics alongside the lag gauge wired via the server's Lag hook).
func (f *Follower) RegisterMetrics(reg *metrics.Registry) {
	sampled := func(name, help string, get func() int64) {
		reg.SampleFunc(name, help, metrics.KindCounter, nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(get())}}
		})
	}
	sampled("krcored_follower_bootstraps_total", "snapshot bootstraps (re-bootstraps mean the leader compacted past this follower)", f.Bootstraps)
	sampled("krcored_follower_applied_ops_total", "operations applied from the leader's journal stream", f.Applied)
}
