package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krcore"
	"krcore/api"
	"krcore/client"
	"krcore/internal/dataset"
	"krcore/internal/updates"
	"krcore/replica"
)

// ---------------------------------------------------------------------------
// Fleet fixtures: a leader daemon (dynamic engine + write-ahead journal
// + replication endpoints) and follower daemons (a replica.Follower's
// engine mounted as a read-only server backend), all over real HTTP.
// ---------------------------------------------------------------------------

type leaderNode struct {
	deng *krcore.DynamicEngine
	j    *updates.Journal
	srv  *Server
	hs   *httptest.Server
	c    *client.Client
}

// startLeaderOn wires a dynamic engine into a full leader daemon:
// write-ahead journal, snapshot and journal-streaming endpoints.
func startLeaderOn(t *testing.T, deng *krcore.DynamicEngine) *leaderNode {
	t.Helper()
	j := attachJournal(t, deng)
	s, err := New(deng, Config{
		Snapshot:   deng.SaveSnapshot,
		Tail:       j,
		JournalLen: j.TailOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return &leaderNode{deng: deng, j: j, srv: s, hs: hs, c: client.New(hs.URL)}
}

type followerNode struct {
	fol    *replica.Follower
	j      *updates.Journal
	srv    *Server
	hs     *httptest.Server
	c      *client.Client
	cancel context.CancelFunc
	done   chan struct{}
}

// startFollowerNode bootstraps a follower from the leader at the given
// URL, starts its tail loop, and serves it as a read-only daemon with
// the leader redirect, lag hook and promotion hook wired exactly as
// cmd/krcored does.
func startFollowerNode(t *testing.T, leaderURL string, pollMax int) *followerNode {
	t.Helper()
	// The follower learns the leader's kind before opening its journal,
	// like krcored's -follow path.
	st, err := client.New(leaderURL).Replication(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	kind, err := updates.ParseKind(st.Kind)
	if err != nil {
		t.Fatal(err)
	}
	j, err := updates.OpenJournal(filepath.Join(t.TempDir(), "follower.journal"), kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	fol, err := replica.NewFollower(ctx, replica.FollowerConfig{
		Leader:   leaderURL,
		Journal:  j,
		PollWait: 100 * time.Millisecond,
		PollMax:  pollMax,
		Backoff:  15 * time.Millisecond,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fol.Run(ctx)
	}()

	s, err := New(fol.Engine(), Config{
		LeaderURL:  leaderURL,
		Lag:        fol.Lag,
		OnPromote:  fol.Stop,
		Snapshot:   fol.Engine().SaveSnapshot,
		Tail:       j,
		JournalLen: j.TailOps,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("follower tail loop did not exit")
		}
		hs.Close()
	})
	return &followerNode{fol: fol, j: j, srv: s, hs: hs, c: client.New(hs.URL), cancel: cancel, done: done}
}

// waitOffset polls until get() reaches want — how the harness
// checkpoints "every acked operation arrived".
func waitOffset(t *testing.T, what string, get func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for get() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at offset %d, want %d", what, get(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Deterministic concurrent write plans. Each writer owns a disjoint
// vertex range of the seed graph, so its operations stay valid no
// matter how the engine's group commit interleaves the writers — every
// batch must be accepted, which lets the harness assert zero
// rejections while still exercising genuinely concurrent ApplyBatch.
// ---------------------------------------------------------------------------

type writerPlan struct {
	edges   [][2]int32
	removed []int // indices into edges currently absent from the graph
}

// newWriterPlan harvests up to max seed-graph edges with both
// endpoints in [lo, hi).
func newWriterPlan(g *krcore.Graph, lo, hi int32, max int) *writerPlan {
	p := &writerPlan{}
	for u := lo; u < hi && len(p.edges) < max; u++ {
		for _, v := range g.Neighbors(u) {
			if v > u && v < hi {
				p.edges = append(p.edges, [2]int32{u, v})
				if len(p.edges) == max {
					break
				}
			}
		}
	}
	return p
}

// phaseOps emits the writer's operations for one phase: re-add
// everything left removed by the previous phase, then churn every
// owned edge (remove, and re-add all but every third), nudge vertex
// attributes, and grow the graph by a vertex. Sequentially valid by
// construction; concurrently valid because ranges are disjoint.
func (p *writerPlan) phaseOps(phase int) []krcore.Update {
	var ops []krcore.Update
	for _, i := range p.removed {
		ops = append(ops, krcore.AddEdgeUpdate(p.edges[i][0], p.edges[i][1]))
	}
	p.removed = p.removed[:0]
	for i, e := range p.edges {
		ops = append(ops, krcore.RemoveEdgeUpdate(e[0], e[1]))
		if i%3 == phase%3 {
			p.removed = append(p.removed, i)
		} else {
			ops = append(ops, krcore.AddEdgeUpdate(e[0], e[1]))
		}
		if i%2 == 0 {
			ops = append(ops, krcore.SetAttributesUpdate(e[0], krcore.VertexAttributes{
				X: float64(phase*10 + i),
				Y: float64(e[1] % 50),
			}))
		}
	}
	return append(ops, krcore.AddVertexUpdate())
}

// ---------------------------------------------------------------------------
// Satellite 1: the differential replica harness. A leader and two
// followers over real HTTP; concurrent writers interleaved with
// follower reads; at every checkpoint each follower must be
// bit-identical — cores AND node counts — to one in-process
// DynamicEngine that replays the leader's journal in commit order.
// Run under -race in CI.
// ---------------------------------------------------------------------------

func TestReplicaDifferentialHarness(t *testing.T) {
	const name = "brightkite"
	d, err := dataset.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := updates.Attrs(d)
	if err != nil {
		t.Fatal(err)
	}
	deng, err := krcore.NewDynamicEngine(d.Graph, attrs)
	if err != nil {
		t.Fatal(err)
	}
	leader := startLeaderOn(t, deng)

	// The in-process reference: a second engine over the same seed that
	// replays the leader's journal in the exact order commits happened.
	// Concurrent batches commit in a nondeterministic order, so the
	// journal — not the writers' plans — is the ground truth.
	dref, err := dataset.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	refAttrs, err := updates.Attrs(dref)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := krcore.NewDynamicEngine(dref.Graph, refAttrs)
	if err != nil {
		t.Fatal(err)
	}
	var refApplied int64

	f1 := startFollowerNode(t, leader.hs.URL, 0)
	f2 := startFollowerNode(t, leader.hs.URL, 11) // tiny poll cap: many polls per phase

	const writers = 3
	plans := make([]*writerPlan, writers)
	for w := range plans {
		lo := int32(w * 400)
		plans[w] = newWriterPlan(leader.deng.Graph(), lo, lo+400, 8)
		if len(plans[w].edges) < 4 {
			t.Fatalf("writer %d harvested only %d edges", w, len(plans[w].edges))
		}
	}

	for phase := 0; phase < 3; phase++ {
		var wg sync.WaitGroup
		for w, plan := range plans {
			ops := plan.phaseOps(phase)
			wg.Add(1)
			go func(w int, ops []krcore.Update) {
				defer wg.Done()
				ctx := context.Background()
				for off := 0; off < len(ops); off += 7 {
					end := min(off+7, len(ops))
					// Disjoint ranges make every batch valid regardless of
					// interleaving: any rejection is a replication bug.
					if _, err := leader.c.ApplyBatch(ctx, ops[off:end]); err != nil {
						t.Errorf("writer %d phase %d batch at %d rejected: %v", w, phase, off, err)
						return
					}
				}
			}(w, ops)
		}
		// Reads interleave with the writes: followers must keep serving
		// (possibly stale, never failing) while replication streams.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 8; i++ {
				for _, fc := range []*client.Client{f1.c, f2.c} {
					if _, err := fc.Enumerate(ctx, diffGrid[0].k, diffGrid[0].r, client.Options{}); err != nil {
						t.Errorf("read during replication failed: %v", err)
						return
					}
				}
			}
		}()
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		// Checkpoint: all acked operations are on every follower...
		end := leader.j.End()
		waitOffset(t, "follower 1", f1.fol.Engine().JournalOffset, end)
		waitOffset(t, "follower 2", f2.fol.Engine().JournalOffset, end)

		// ...the reference replays the journal in commit order...
		ops, newEnd, err := leader.j.ReadFrom(refApplied, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := updates.Replay(ref, ops, 64); err != nil {
			t.Fatalf("reference replay at offset %d: %v", refApplied, err)
		}
		refApplied = newEnd

		// ...and every serving surface is bit-identical to it. The full
		// grid sweep is expensive under -race, so intermediate
		// checkpoints verify graph shape plus two grid cells and the
		// final checkpoint sweeps the whole grid on every node.
		final := phase == 2
		if leader.deng.N() != ref.N() || leader.deng.M() != ref.M() {
			t.Fatalf("phase %d: leader graph %d/%d, reference %d/%d",
				phase, leader.deng.N(), leader.deng.M(), ref.N(), ref.M())
		}
		for i, node := range []*followerNode{f1, f2} {
			eng := node.fol.Engine()
			if eng.N() != ref.N() || eng.M() != ref.M() {
				t.Fatalf("phase %d: follower %d graph %d/%d, reference %d/%d",
					phase, i+1, eng.N(), eng.M(), ref.N(), ref.M())
			}
			if final {
				assertGridIdentical(t, node.c, ref)
			} else {
				assertCellIdentical(t, node.c, ref, 4, 10)
				assertCellIdentical(t, node.c, ref, 5, 25)
			}
		}
		if final {
			assertGridIdentical(t, leader.c, ref)
		} else {
			assertCellIdentical(t, leader.c, ref, 4, 10)
		}

		// Mid-test the leader compacts everything already replicated:
		// absolute offsets keep the stream seamless across it (phase 2
		// polls start exactly at the new base).
		if phase == 1 {
			if _, err := leader.j.CompactTo(end); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Exactly-once accounting: each follower applied every operation
	// through the tail loop (it bootstrapped at offset 0) and never
	// needed a divergence re-bootstrap.
	end := leader.j.End()
	for i, node := range []*followerNode{f1, f2} {
		if node.fol.Applied() != end || node.fol.Bootstraps() != 1 {
			t.Fatalf("follower %d applied %d of %d ops across %d bootstraps",
				i+1, node.fol.Applied(), end, node.fol.Bootstraps())
		}
		if node.fol.LastError() != nil {
			t.Fatalf("follower %d saw a replication error: %v", i+1, node.fol.LastError())
		}
	}
}

// ---------------------------------------------------------------------------
// Satellite 2: fault injection. Every journal poll is hit by a
// rotating fault — connection dropped before the response, response
// cut mid-entry after the 200, or delayed — and the follower must
// still converge to the exact leader state with every operation
// applied exactly once.
// ---------------------------------------------------------------------------

// flakyJournal injects faults into PathJournal responses and passes
// everything else (snapshot bootstrap, replication probes) through.
type flakyJournal struct {
	inner               http.Handler
	polls               atomic.Int64
	drops, cuts, delays atomic.Int64
}

func (f *flakyJournal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != api.PathJournal {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch f.polls.Add(1) % 4 {
	case 1:
		// The connection dies before any response byte.
		f.drops.Add(1)
		panic(http.ErrAbortHandler)
	case 2:
		// The 200 commits, then the body is cut mid-entry: the follower
		// must apply the complete prefix and resume — never the torn line.
		rec := httptest.NewRecorder()
		f.inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		if len(body) > 3 {
			f.cuts.Add(1)
			w.Write(body[:len(body)-3])
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		w.Write(body)
	case 3:
		f.delays.Add(1)
		time.Sleep(25 * time.Millisecond)
		f.inner.ServeHTTP(w, r)
	default:
		f.inner.ServeHTTP(w, r)
	}
}

func TestFollowerResumesThroughFaults(t *testing.T) {
	leader := startLeaderOn(t, testDynamicEngine(t))
	flaky := &flakyJournal{inner: leader.srv.Handler()}
	fhs := httptest.NewServer(flaky)
	t.Cleanup(fhs.Close)

	// Small poll cap so convergence needs many polls — each fault mode
	// fires repeatedly while the write stream is still in flight.
	fol := startFollowerNode(t, fhs.URL, 5)

	plan := newWriterPlan(leader.deng.Graph(), 0, 40, 10)
	ctx := context.Background()
	for phase := 0; phase < 4; phase++ {
		ops := plan.phaseOps(phase)
		for off := 0; off < len(ops); off += 5 {
			end := min(off+5, len(ops))
			if _, err := leader.c.ApplyBatch(ctx, ops[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}

	end := leader.j.End()
	waitOffset(t, "faulted follower", fol.fol.Engine().JournalOffset, end)

	// Exactly once: the applied count equals the journal end (the
	// follower bootstrapped at offset 0), with no re-bootstrap — a
	// duplicated or skipped operation would either desync the count or
	// reject replay and force one.
	if fol.fol.Applied() != end || fol.fol.Bootstraps() != 1 {
		t.Fatalf("follower applied %d of %d ops across %d bootstraps",
			fol.fol.Applied(), end, fol.fol.Bootstraps())
	}
	// Bit-identical to the leader's own engine, over HTTP.
	if eng := fol.fol.Engine(); eng.N() != leader.deng.N() || eng.M() != leader.deng.M() {
		t.Fatalf("follower graph %d/%d, leader %d/%d", eng.N(), eng.M(), leader.deng.N(), leader.deng.M())
	}
	assertGridIdentical(t, fol.c, leader.deng)

	// The test is vacuous unless every fault mode actually fired. (No
	// error needs to surface on the follower itself: pre-response drops
	// are retried by the HTTP transport, and cut bodies are consumed as
	// truncated prefixes — that transparency is the point.)
	if flaky.drops.Load() == 0 || flaky.cuts.Load() == 0 || flaky.delays.Load() == 0 {
		t.Fatalf("fault rotation incomplete: drops=%d cuts=%d delays=%d",
			flaky.drops.Load(), flaky.cuts.Load(), flaky.delays.Load())
	}
}

// TestJournalTailTruncatedMidEntry pins the client-side contract the
// fault harness relies on: a response cut mid-entry (the connection
// died after the 200) yields the complete prefix with Truncated set —
// not an error, and never the torn final operation.
func TestJournalTailTruncatedMidEntry(t *testing.T) {
	leader := startLeaderOn(t, testDynamicEngine(t))
	if err := leader.deng.ApplyBatch(toggleOps(6)); err != nil {
		t.Fatal(err)
	}
	cut := &flakyJournal{inner: leader.srv.Handler()}
	cut.polls.Store(1) // next poll is mode 2: cut mid-entry
	hs := httptest.NewServer(cut)
	t.Cleanup(hs.Close)

	tl, err := client.New(hs.URL).JournalTail(context.Background(), 0, client.TailOptions{})
	if err != nil {
		t.Fatalf("cut response surfaced as an error: %v", err)
	}
	if !tl.Truncated {
		t.Fatal("cut response not reported truncated")
	}
	if len(tl.Ops) == 0 || len(tl.Ops) >= 6 {
		t.Fatalf("cut response carried %d ops, want a strict non-empty prefix of 6", len(tl.Ops))
	}
	if tl.Next != int64(len(tl.Ops)) {
		t.Fatalf("Next=%d after %d ops from offset 0", tl.Next, len(tl.Ops))
	}
}

// assertCellIdentical compares one (k, r) grid cell between an HTTP
// node and the in-process reference — the cheap checkpoint check.
func assertCellIdentical(t *testing.T, c *client.Client, ref *krcore.DynamicEngine, k int, r float64) {
	t.Helper()
	want, err := ref.Enumerate(k, r, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Enumerate(context.Background(), k, r, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
		t.Fatalf("(k=%d, r=%g): HTTP answer diverged from the reference replay", k, r)
	}
}
