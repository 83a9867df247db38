package replica_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"krcore"
	"krcore/api"
	"krcore/client"
	"krcore/internal/metrics"
	"krcore/internal/updates"
	"krcore/replica"
	"krcore/server"
)

// ---------------------------------------------------------------------------
// Fixtures: a small dynamic leader daemon and followers wired exactly
// as cmd/krcored wires them.
// ---------------------------------------------------------------------------

// newTestEngine builds a small two-cluster geo instance on a dynamic
// engine.
func newTestEngine(t *testing.T) *krcore.DynamicEngine {
	t.Helper()
	const n = 40
	b := krcore.NewGraphBuilder(n)
	for c := 0; c < 2; c++ {
		base := int32(c * 20)
		for i := int32(0); i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				if (i+j)%3 != 0 {
					b.AddEdge(base+i, base+j)
				}
			}
		}
	}
	b.AddEdge(19, 20)
	geo := krcore.NewGeoAttributes(n)
	for u := int32(0); u < n; u++ {
		geo.Set(u, float64(u/20)*100, float64(u%20))
	}
	deng, err := krcore.NewDynamicEngine(b.Build(), geo)
	if err != nil {
		t.Fatal(err)
	}
	return deng
}

type leaderFixture struct {
	deng *krcore.DynamicEngine
	j    *updates.Journal
	hs   *httptest.Server
	c    *client.Client
}

func startLeader(t *testing.T) *leaderFixture {
	t.Helper()
	deng := newTestEngine(t)
	kind, err := updates.ParseKind(deng.AttributeKind())
	if err != nil {
		t.Fatal(err)
	}
	j, err := updates.OpenJournal(filepath.Join(t.TempDir(), "leader.journal"), kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	deng.SetJournal(j)
	s, err := server.New(deng, server.Config{
		Snapshot:   deng.SaveSnapshot,
		Tail:       j,
		JournalLen: j.TailOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return &leaderFixture{deng: deng, j: j, hs: hs, c: client.New(hs.URL)}
}

type followerFixture struct {
	fol    *replica.Follower
	j      *updates.Journal
	hs     *httptest.Server
	c      *client.Client
	cancel context.CancelFunc
	done   chan struct{}
}

func startFollower(t *testing.T, leaderURL string) *followerFixture {
	t.Helper()
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
	s, err := server.New(fol.Engine(), server.Config{
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
	return &followerFixture{fol: fol, j: j, hs: hs, c: client.New(hs.URL), cancel: cancel, done: done}
}

// waitOffset polls until get() reaches want.
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

// churnOps emits a phase of operations valid against the fixture
// engine when applied sequentially: toggle known cluster edges, nudge
// attributes, grow the graph. The (1,3) edge exists in the seed graph
// ((1+3)%3 != 0) and each remove is immediately undone.
func churnOps(phase int) []krcore.Update {
	var ops []krcore.Update
	for i := int32(0); i < 12; i++ {
		u, v := i, i+3
		if (u+v)%3 == 0 || v >= 20 {
			ops = append(ops, krcore.AddVertexUpdate())
			continue
		}
		ops = append(ops,
			krcore.RemoveEdgeUpdate(u, v),
			krcore.AddEdgeUpdate(u, v),
			krcore.SetAttributesUpdate(u, krcore.VertexAttributes{X: float64(phase*20) + float64(i), Y: float64(v)}),
		)
	}
	return ops
}

// ---------------------------------------------------------------------------
// Follower lifecycle.
// ---------------------------------------------------------------------------

// TestFollowerTailConvergence drives the full follower lifecycle:
// bootstrap, journal tailing, the follower's serving engine, metrics,
// and a clean stop.
func TestFollowerTailConvergence(t *testing.T) {
	leader := startLeader(t)
	f := startFollower(t, leader.hs.URL)
	eng := f.fol.Engine()
	ctx := context.Background()

	for phase := 0; phase < 3; phase++ {
		if _, err := leader.c.ApplyBatch(ctx, churnOps(phase)); err != nil {
			t.Fatal(err)
		}
	}
	end := leader.j.End()
	waitOffset(t, "follower", eng.JournalOffset, end)

	if f.fol.Applied() != end || f.fol.Bootstraps() != 1 {
		t.Fatalf("applied %d of %d across %d bootstraps", f.fol.Applied(), end, f.fol.Bootstraps())
	}
	if f.fol.LastError() != nil {
		t.Fatalf("clean replication surfaced an error: %v", f.fol.LastError())
	}
	// The follower's own journal holds the replicated tail durably.
	if f.j.End() != end {
		t.Fatalf("follower journal end %d, want %d", f.j.End(), end)
	}

	// The follower's engine answers identically to the leader's.
	want, err := leader.deng.Enumerate(4, 10, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.EnumerateContext(ctx, 4, 10, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
		t.Fatal("follower enumerate diverged from leader")
	}
	wantMax, err := leader.deng.FindMaximum(4, 10, krcore.MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotMax, err := eng.FindMaximumContext(ctx, 4, 10, krcore.MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotMax.Cores) != fmt.Sprint(wantMax.Cores) {
		t.Fatal("follower maximum diverged from leader")
	}
	if len(want.Cores) > 0 {
		v := want.Cores[0][0]
		gotV, err := eng.EnumerateContainingContext(ctx, 4, 10, v, krcore.EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantV, err := leader.deng.EnumerateContaining(4, 10, v, krcore.EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gotV.Cores) != fmt.Sprint(wantV.Cores) {
			t.Fatal("follower containing diverged from leader")
		}
	}
	if err := eng.Warm(5, 25); err != nil {
		t.Fatal(err)
	}
	if g := eng.Graph(); g.N() != leader.deng.N() || g.M() != leader.deng.M() {
		t.Fatalf("follower graph %d/%d, leader %d/%d", g.N(), g.M(), leader.deng.N(), leader.deng.M())
	}
	if eng.AttributeKind() != leader.deng.AttributeKind() {
		t.Fatal("attribute kind diverged")
	}
	if st := eng.Stats(); st.Prepared == 0 {
		t.Fatalf("follower stats empty: %+v", st)
	}
	if len(eng.SettingsStats()) == 0 {
		t.Fatal("follower settings stats empty")
	}
	if ds := eng.DynamicStats(); ds.Version == 0 {
		t.Fatalf("follower dynamic stats empty: %+v", ds)
	}

	// A chained bootstrap: the follower's own snapshot endpoint serves
	// an image another replica could start from.
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	chained, err := krcore.LoadDynamicEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if chained.JournalOffset() != end {
		t.Fatalf("chained snapshot at offset %d, want %d", chained.JournalOffset(), end)
	}

	// Replication metrics export through a registry.
	reg := metrics.NewRegistry()
	f.fol.RegisterMetrics(reg)
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"krcored_follower_bootstraps_total 1",
		fmt.Sprintf("krcored_follower_applied_ops_total %d", end),
	} {
		if !strings.Contains(text.String(), series) {
			t.Fatalf("metrics missing %q:\n%s", series, text.String())
		}
	}

	// Stop drains the loop; afterwards direct writes succeed (the
	// promoted path) and land in the follower's own journal.
	if err := f.fol.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyBatch(churnOps(3)); err != nil {
		t.Fatal(err)
	}
	if eng.JournalOffset() <= end || f.j.End() != eng.JournalOffset() {
		t.Fatalf("post-stop write: engine %d, journal %d", eng.JournalOffset(), f.j.End())
	}
}

// TestFollowerRebootstrapAfterCompaction pins the 410 path: a follower
// that fell behind a leader compaction cannot be caught up by the
// journal and must re-bootstrap from the snapshot, transparently,
// through the same Run loop. The snapshot is restored into the engine
// the follower's server already serves, so no counter on its /metrics
// falls or vanishes: not the traffic counters of a setting the leader
// also holds, not those of the follower's own warms, and not the
// write-path counters of the rounds it replayed itself.
func TestFollowerRebootstrapAfterCompaction(t *testing.T) {
	leader := startLeader(t)
	ctx := context.Background()
	if err := leader.deng.Warm(4, 10); err != nil {
		t.Fatal(err)
	}
	if err := leader.deng.ApplyBatch(churnOps(0)); err != nil {
		t.Fatal(err)
	}
	mid := leader.j.End()

	// The follower reaches the leader through a proxy that can hold its
	// journal polls back (503) while the leader compacts.
	target, err := url.Parse(leader.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	var held atomic.Bool
	var refused atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if held.Load() && r.URL.Path == api.PathJournal {
			refused.Add(1)
			http.Error(w, "held back", http.StatusServiceUnavailable)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)

	kind, err := updates.ParseKind(leader.deng.AttributeKind())
	if err != nil {
		t.Fatal(err)
	}
	fj, err := updates.OpenJournal(filepath.Join(t.TempDir(), "late.journal"), kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fj.Close() })
	fol, err := replica.NewFollower(ctx, replica.FollowerConfig{
		Leader:   proxy.URL,
		Journal:  fj,
		PollWait: 50 * time.Millisecond,
		Backoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := fol.Engine()
	if eng.JournalOffset() != mid {
		t.Fatalf("bootstrapped at %d, want %d", eng.JournalOffset(), mid)
	}

	// Serve the engine wired as cmd/krcored wires a follower.
	s, err := server.New(eng, server.Config{
		LeaderURL:  leader.hs.URL,
		Lag:        fol.Lag,
		OnPromote:  fol.Stop,
		Snapshot:   eng.SaveSnapshot,
		Tail:       fj,
		JournalLen: fj.TailOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetCommitObserver(s.ObserveGroupCommit)
	fj.SetAppendObserver(s.ObserveJournalAppend)
	fol.RegisterMetrics(s.Metrics())
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	fc := client.New(hs.URL)

	// Traffic on the setting the leader warmed, plus two thresholds of
	// the follower's own.
	for i := 0; i < 3; i++ {
		if _, err := fc.Enumerate(ctx, 4, 10, client.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fc.FindMaximum(ctx, 4, 10, client.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{8, 15} {
		if err := fc.Warm(ctx, 4, r); err != nil {
			t.Fatal(err)
		}
	}

	rctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		fol.Run(rctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	// One replayed round maintains every setting the follower caches.
	if err := leader.deng.ApplyBatch(churnOps(1)); err != nil {
		t.Fatal(err)
	}
	caught := leader.j.End()
	waitOffset(t, "follower", eng.JournalOffset, caught)

	// Hold the follower back. Its polls are sequential, so once one is
	// refused none is in flight to carry the next round.
	held.Store(true)
	waitOffset(t, "refused polls", func() int64 { return min(refused.Load(), 1) }, 1)
	before := scrapeMetrics(t, fc)
	for _, series := range []string{
		"krcored_engine_cache_hits_total",
		`krcored_engine_setting_hits_total{k="4",r="10"}`,
		"krcored_dynamic_core_visited_total",
	} {
		if before[series] <= 0 {
			t.Fatalf("%s is %v before the re-bootstrap; the check below would be vacuous", series, before[series])
		}
	}

	// The leader moves on and compacts past the follower's offset.
	if err := leader.deng.ApplyBatch(churnOps(2)); err != nil {
		t.Fatal(err)
	}
	end := leader.j.End()
	if _, err := leader.j.CompactTo(end); err != nil {
		t.Fatal(err)
	}
	if leader.j.Base() <= caught {
		t.Fatalf("compaction left base %d, need > %d to exercise the 410", leader.j.Base(), caught)
	}
	held.Store(false)

	waitOffset(t, "late follower", eng.JournalOffset, end)
	if fol.Bootstraps() != 2 {
		t.Fatalf("follower recovered via %d bootstraps, want 2 (initial + post-410)", fol.Bootstraps())
	}
	if fol.Engine() != eng {
		t.Fatal("re-bootstrap replaced the follower's engine")
	}
	// The local journal restarted at the new snapshot's offset.
	if fj.Base() != end {
		t.Fatalf("follower journal base %d after re-bootstrap, want %d", fj.Base(), end)
	}
	if eng.N() != leader.deng.N() || eng.M() != leader.deng.M() {
		t.Fatalf("recovered follower graph %d/%d, leader %d/%d",
			eng.N(), eng.M(), leader.deng.N(), leader.deng.M())
	}

	after := scrapeMetrics(t, fc)
	for series, old := range before {
		name, _, _ := strings.Cut(series, "{")
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		if v, ok := after[series]; !ok {
			t.Errorf("%s (%v before) vanished across the re-bootstrap", series, old)
		} else if v < old {
			t.Errorf("%s fell from %v to %v across the re-bootstrap", series, old, v)
		}
	}

	want, err := leader.deng.Enumerate(4, 10, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Enumerate(4, 10, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
		t.Fatal("recovered follower enumerate diverged from leader")
	}
	wantMax, err := leader.deng.FindMaximum(4, 10, krcore.MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotMax, err := eng.FindMaximum(4, 10, krcore.MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotMax.Cores) != fmt.Sprint(wantMax.Cores) {
		t.Fatal("recovered follower maximum diverged from leader")
	}
}

// ---------------------------------------------------------------------------
// Failover: the leader dies; the router must promote the follower with
// the highest applied offset, no acked write may be lost, and the
// promoted journal must compact cleanly and accept new writes.
// ---------------------------------------------------------------------------

func TestFailoverPromoteFreshest(t *testing.T) {
	leader := startLeader(t)
	a := startFollower(t, leader.hs.URL)
	b := startFollower(t, leader.hs.URL)
	ctx := context.Background()

	// Phase 1 reaches both followers.
	if err := leader.deng.ApplyBatch(churnOps(0)); err != nil {
		t.Fatal(err)
	}
	mid := leader.j.End()
	waitOffset(t, "follower A", a.fol.Engine().JournalOffset, mid)
	waitOffset(t, "follower B", b.fol.Engine().JournalOffset, mid)

	// B stops tailing — it will be the stale candidate at failover.
	if err := b.fol.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	rt, err := replica.NewRouter(replica.RouterConfig{
		Leader:    leader.hs.URL,
		Followers: []string{a.hs.URL, b.hs.URL},
		Probe:     150 * time.Millisecond,
		FailAfter: 2,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rhs := httptest.NewServer(rt.Handler())
	t.Cleanup(rhs.Close)
	rctx, rcancel := context.WithCancel(ctx)
	t.Cleanup(rcancel)
	go rt.Run(rctx)
	rc := client.New(rhs.URL)

	// Phase 2 goes through the router and is ACKED — these writes must
	// survive the failover. Only A sees them.
	if _, err := rc.ApplyBatch(ctx, churnOps(1)); err != nil {
		t.Fatal(err)
	}
	acked := leader.j.End()
	waitOffset(t, "follower A", a.fol.Engine().JournalOffset, acked)
	if b.fol.Engine().JournalOffset() != mid {
		t.Fatalf("stale follower advanced to %d, should be frozen at %d", b.fol.Engine().JournalOffset(), mid)
	}

	// The leader dies hard: in-flight connections cut, listener closed.
	leader.hs.CloseClientConnections()
	leader.hs.Close()

	// The router must promote A — the freshest follower — not B.
	deadline := time.Now().Add(15 * time.Second)
	for rt.Leader() != a.hs.URL {
		if time.Now().After(deadline) {
			t.Fatalf("router leader is %q, want %q (A at offset %d, B at %d)",
				rt.Leader(), a.hs.URL, a.fol.Engine().JournalOffset(), b.fol.Engine().JournalOffset())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := a.c.Replication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != api.RoleLeader {
		t.Fatalf("promoted node reports role %q", st.Role)
	}

	// No acked write lost: A holds every operation the old leader ever
	// acknowledged, and serves bit-identically to its final state (the
	// old engine object is still queryable in-process).
	if a.fol.Engine().JournalOffset() != acked {
		t.Fatalf("promoted follower at offset %d, want %d", a.fol.Engine().JournalOffset(), acked)
	}
	want, err := leader.deng.Enumerate(4, 10, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.c.Enumerate(ctx, 4, 10, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
		t.Fatal("promoted follower diverged from the dead leader's final state")
	}

	// Writes through the router now land on A (its journal advances;
	// the dead leader's cannot).
	if _, err := rc.ApplyBatch(ctx, churnOps(2)); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	grown := a.j.End()
	if grown <= acked {
		t.Fatalf("promoted journal did not advance past %d", acked)
	}
	if a.fol.Engine().JournalOffset() != grown {
		t.Fatalf("promoted engine at %d, journal at %d", a.fol.Engine().JournalOffset(), grown)
	}

	// The new leader's journal re-compacts cleanly against its own
	// snapshot, and keeps accepting writes afterwards.
	if _, err := updates.Compact(a.fol.Engine(), a.j, filepath.Join(t.TempDir(), "promoted.krsnap")); err != nil {
		t.Fatalf("promoted journal compaction: %v", err)
	}
	if a.j.Base() != grown {
		t.Fatalf("compacted journal base %d, want %d", a.j.Base(), grown)
	}
	if _, err := rc.ApplyBatch(ctx, churnOps(3)); err != nil {
		t.Fatalf("write after promoted compaction: %v", err)
	}
	if a.j.End() <= grown {
		t.Fatal("journal did not advance after promoted compaction")
	}
}

// ---------------------------------------------------------------------------
// Router read and write planes.
// ---------------------------------------------------------------------------

// TestRouterAffinityReads pins the read plane: queries go to followers
// (never the leader while any follower is healthy) and the same (k,r)
// setting always lands on the same follower, keeping its per-setting
// cache hot.
func TestRouterAffinityReads(t *testing.T) {
	leader := startLeader(t)
	a := startFollower(t, leader.hs.URL)
	b := startFollower(t, leader.hs.URL)
	rt, err := replica.NewRouter(replica.RouterConfig{
		Leader:    leader.hs.URL,
		Followers: []string{a.hs.URL, b.hs.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	rhs := httptest.NewServer(rt.Handler())
	t.Cleanup(rhs.Close)
	rc := client.New(rhs.URL)
	ctx := context.Background()

	if err := rc.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := rc.Replication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "router" || st.Leader != leader.hs.URL {
		t.Fatalf("router replication status: %+v", st)
	}

	const perSetting = 4
	want, err := leader.deng.Enumerate(4, 10, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perSetting; i++ {
		got, err := rc.Enumerate(ctx, 4, 10, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) {
			t.Fatal("routed read diverged from leader state")
		}
		if _, err := rc.Enumerate(ctx, 5, 25, client.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	// Control-plane reads forward to the leader; there is no JSON stats
	// endpoint to forward.
	snap, info, err := rc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	if info.Kind != leader.deng.AttributeKind() {
		t.Fatalf("snapshot through the router has kind %q, want the leader's %q", info.Kind, leader.deng.AttributeKind())
	}
	resp, err := http.Get(rhs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("router GET /v1/stats got %d, want 404", resp.StatusCode)
	}

	// All queries landed on followers, and each setting stuck to one:
	// per-node totals must be {0, 8} or {4, 4}, never an odd split.
	ql := scrapeQueries(t, leader.c)
	qa, qb := scrapeQueries(t, a.c), scrapeQueries(t, b.c)
	if ql != 0 {
		t.Fatalf("leader answered %d queries; reads must offload to followers", ql)
	}
	if qa+qb != 2*perSetting {
		t.Fatalf("followers answered %d+%d queries, want %d total", qa, qb, 2*perSetting)
	}
	if !(qa == 0 || qb == 0 || (qa == perSetting && qb == perSetting)) {
		t.Fatalf("affinity broken: follower query split %d/%d", qa, qb)
	}
}

// TestRouterAdoptsRedirectedLeader pins the write plane's redirect
// handling: a router whose configured leader is actually a read-only
// follower must follow the 503 redirect, adopt the real leader, and
// complete the write.
func TestRouterAdoptsRedirectedLeader(t *testing.T) {
	leader := startLeader(t)
	f := startFollower(t, leader.hs.URL)

	// Misconfigured on purpose: the follower is named as the leader.
	rt, err := replica.NewRouter(replica.RouterConfig{Leader: f.hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	rhs := httptest.NewServer(rt.Handler())
	t.Cleanup(rhs.Close)
	rc := client.New(rhs.URL)
	ctx := context.Background()

	before := leader.j.End()
	if _, err := rc.ApplyBatch(ctx, churnOps(0)); err != nil {
		t.Fatalf("redirected write failed: %v", err)
	}
	if leader.j.End() <= before {
		t.Fatal("write never reached the real leader")
	}
	if rt.Leader() != leader.hs.URL {
		t.Fatalf("router still routes writes to %q, want adopted leader %q", rt.Leader(), leader.hs.URL)
	}
}

// scrapeMetrics reads a node's /metrics as series -> value.
func scrapeMetrics(t *testing.T, c *client.Client) map[string]float64 {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return client.ParseMetrics(text)
}

// scrapeQueries reads a node's served-query counter from its /metrics
// export.
func scrapeQueries(t *testing.T, c *client.Client) int64 {
	t.Helper()
	return int64(scrapeMetrics(t, c)["krcored_queries_total"])
}

// routerProxyErrors reads the router's proxy-error counter from its
// metric registry.
func routerProxyErrors(t *testing.T, rt *replica.Router) string {
	t.Helper()
	var text bytes.Buffer
	if err := rt.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, "krcored_router_proxy_errors_total ") {
			return strings.TrimPrefix(line, "krcored_router_proxy_errors_total ")
		}
	}
	t.Fatal("proxy-error counter not exported")
	return ""
}

// TestRouterClientAbortNotProxyError separates the two ways a forward
// can die: the caller hanging up (its own deadline or disconnect) is
// not a fleet problem and must not move the proxy-error counter — a
// backend the router itself cannot reach is, and answers 502.
func TestRouterClientAbortNotProxyError(t *testing.T) {
	leader := startLeader(t)
	rt, err := replica.NewRouter(replica.RouterConfig{Leader: leader.hs.URL})
	if err != nil {
		t.Fatal(err)
	}

	// The caller is already gone when the forward starts: the abort
	// propagates into the proxied request, which fails without the
	// backend ever being at fault.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", api.PathEnumerate, strings.NewReader(`{"k":4,"r":10}`)).WithContext(ctx)
	rw := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rw, req)
	if got := routerProxyErrors(t, rt); got != "0" {
		t.Fatalf("client abort counted as proxy error (counter %s)", got)
	}

	// A genuinely unreachable backend still counts and surfaces a 502.
	leader.hs.CloseClientConnections()
	leader.hs.Close()
	req = httptest.NewRequest("POST", api.PathEnumerate, strings.NewReader(`{"k":4,"r":10}`))
	rw = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rw, req)
	if rw.Code != 502 {
		t.Fatalf("dead backend answered %d, want 502", rw.Code)
	}
	if got := routerProxyErrors(t, rt); got != "1" {
		t.Fatalf("dead backend moved proxy errors to %s, want 1", got)
	}
}
