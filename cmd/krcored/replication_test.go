package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"krcore"
	"krcore/api"
	"krcore/client"
	"krcore/internal/attr"
	"krcore/internal/dataset"
	"krcore/internal/updates"
)

// startNode is startDaemon for replication topologies: it also returns
// the daemon's base URL (a follower or router needs the leader's
// address on its command line) and the captured log, and its shutdown
// asserts only the universal clean-exit marker — a router drains
// differently from an engine node.
func startNode(t *testing.T, args ...string) (string, *client.Client, *syncBuffer, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	// Every node picks an ephemeral port: topologies start several
	// daemons in one process.
	args = append(args, "-addr", "127.0.0.1:0")
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out, out) }()

	deadline := time.Now().Add(60 * time.Second)
	var addr string
	for addr == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never listened:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	url := "http://" + addr
	shutdown := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon shutdown: %v\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon did not drain:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "bye") {
			t.Fatalf("no clean exit logged:\n%s", out.String())
		}
	}
	return url, client.New(url), out, shutdown
}

// writeSmallDataset generates a small geo dataset file the daemons can
// -load in milliseconds.
func writeSmallDataset(t *testing.T, dir string) string {
	t.Helper()
	cfg, err := dataset.Preset("gowalla")
	if err != nil {
		t.Fatal(err)
	}
	cfg.N = 150
	cfg.NumCommunities = 5
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitReplication polls a node's replication status until cond accepts
// it.
func waitReplication(t *testing.T, c *client.Client, what string, cond func(*api.ReplicationStatus) bool) *api.ReplicationStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Replication(context.Background())
		if err == nil && cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: timed out (last status %+v, err %v)", what, st, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonFollowerMode wires a real leader and follower daemon pair
// over TCP: the follower bootstraps from the leader's snapshot, tails
// its journal to convergence, serves bit-identical reads, gates writes
// with a leader redirect, and flips writable on promotion.
func TestDaemonFollowerMode(t *testing.T) {
	dir := t.TempDir()
	dataPath := writeSmallDataset(t, dir)
	ctx := context.Background()

	leaderURL, lc, _, stopLeader := startNode(t,
		"-load", dataPath, "-dynamic", "-journal", filepath.Join(dir, "leader.journal"))
	defer stopLeader()

	// Updates committed before the follower exists arrive via the
	// bootstrap snapshot; updates committed after it arrive via the
	// journal tail.
	if _, err := lc.ApplyBatch(ctx, []krcore.Update{
		krcore.AddEdgeUpdate(0, 7), krcore.AddEdgeUpdate(0, 9),
	}); err != nil {
		t.Fatal(err)
	}

	_, fc, fout, stopFollower := startNode(t,
		"-follow", leaderURL, "-journal", filepath.Join(dir, "follower.journal"), "-poll-wait", "100ms")
	defer stopFollower()
	if !strings.Contains(fout.String(), "bootstrapped from "+leaderURL) {
		t.Fatalf("follower never logged its bootstrap:\n%s", fout.String())
	}

	if _, err := lc.ApplyBatch(ctx, []krcore.Update{
		krcore.AddEdgeUpdate(1, 8), krcore.SetAttributesUpdate(3, krcore.VertexAttributes{X: 1, Y: 2}),
	}); err != nil {
		t.Fatal(err)
	}
	lst, err := lc.Replication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Role != api.RoleLeader || lst.JournalEnd != 4 {
		t.Fatalf("leader status %+v, want leader at journal end 4", lst)
	}

	fst := waitReplication(t, fc, "follower convergence", func(st *api.ReplicationStatus) bool {
		return st.AppliedOffset == lst.JournalEnd
	})
	if fst.Role != api.RoleFollower || fst.Leader != leaderURL || fst.Kind != "geo" {
		t.Fatalf("follower status %+v, want follower of %s serving geo", fst, leaderURL)
	}

	// Bit-identical reads at the converged offset.
	want, err := lc.Enumerate(ctx, 4, 25, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.Enumerate(ctx, 4, 25, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
		t.Fatal("follower enumerate differs from leader")
	}

	// The write gate redirects to the leader — and stays countable on
	// its own metric series, not the error one.
	_, err = fc.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(2, 9)})
	if leader, ok := client.IsReadOnly(err); !ok || leader != leaderURL {
		t.Fatalf("gated write returned %v (leader=%q ok=%v)", err, leader, ok)
	}
	metricsText, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"krcored_write_redirects_total 1",
		"krcored_server_errors_total 0",
		"krcored_replication_writable 0",
		"krcored_follower_bootstraps_total 1",
	} {
		if !strings.Contains(metricsText, line) {
			t.Fatalf("follower /metrics missing %q:\n%s", line, metricsText)
		}
	}

	// Promotion stops the tail loop and opens the gate: the daemon is
	// now a writable leader with its own journal.
	pr, err := fc.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Role != api.RoleLeader || pr.AppliedOffset != lst.JournalEnd {
		t.Fatalf("promote response %+v, want leader at offset %d", pr, lst.JournalEnd)
	}
	if _, err := fc.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(2, 9)}); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	fst, err = fc.Replication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fst.Role != api.RoleLeader || fst.JournalEnd != lst.JournalEnd+1 {
		t.Fatalf("promoted status %+v, want leader journal end %d", fst, lst.JournalEnd+1)
	}
	// The follower's engine reports its commit rounds to the server's
	// group-commit histograms, as a leader's does.
	metricsText, err = fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := client.ParseMetrics(metricsText)["krcored_group_commit_batches_count"]; n < 1 {
		t.Fatalf("promoted follower counted %v group-commit rounds, want >= 1", n)
	}
}

// TestDaemonRouterMode runs a three-daemon fleet — leader, follower,
// router — and drives both halves of the routing contract through the
// router's own port: reads answer from the fleet, writes land on the
// leader and replicate back out to the follower.
func TestDaemonRouterMode(t *testing.T) {
	dir := t.TempDir()
	dataPath := writeSmallDataset(t, dir)
	ctx := context.Background()

	leaderURL, lc, _, stopLeader := startNode(t,
		"-load", dataPath, "-dynamic", "-journal", filepath.Join(dir, "leader.journal"))
	defer stopLeader()
	folURL, fc, _, stopFollower := startNode(t,
		"-follow", leaderURL, "-journal", filepath.Join(dir, "follower.journal"), "-poll-wait", "100ms")
	defer stopFollower()
	_, rc, rout, stopRouter := startNode(t,
		"-route", "-leader", leaderURL, "-followers", folURL, "-probe", "250ms")
	defer stopRouter()
	if !strings.Contains(rout.String(), "routing for leader "+leaderURL+" and 1 followers") {
		t.Fatalf("router banner missing:\n%s", rout.String())
	}

	if err := rc.Health(ctx); err != nil {
		t.Fatal(err)
	}
	rst, err := rc.Replication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Role != "router" || rst.Leader != leaderURL {
		t.Fatalf("router status %+v, want router fronting %s", rst, leaderURL)
	}

	// A write through the router lands on the leader's journal and the
	// follower tails it back.
	if _, err := rc.ApplyBatch(ctx, []krcore.Update{
		krcore.AddEdgeUpdate(0, 7), krcore.AddEdgeUpdate(1, 8),
	}); err != nil {
		t.Fatal(err)
	}
	lst, err := lc.Replication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lst.JournalEnd != 2 {
		t.Fatalf("leader journal end %d after routed write, want 2", lst.JournalEnd)
	}
	waitReplication(t, fc, "follower tails routed write", func(st *api.ReplicationStatus) bool {
		return st.AppliedOffset == 2
	})

	// Routed reads agree with the leader wherever they land.
	want, err := lc.Enumerate(ctx, 4, 25, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := rc.Enumerate(ctx, 4, 25, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
			t.Fatalf("routed read %d differs from leader", i)
		}
	}
}

// TestDaemonJournalAlignedToSnapshot pins the lost-journal restart: an
// engine restored from a checkpoint taken at offset N, paired with a
// fresh (empty) journal, must realign the journal to base N — or every
// subsequent commit would be recorded under wrong absolute offsets and
// silently corrupt crash recovery and follower streams.
func TestDaemonJournalAlignedToSnapshot(t *testing.T) {
	dir := t.TempDir()
	dataPath := writeSmallDataset(t, dir)
	ckpt := filepath.Join(dir, "checkpoint.snap")
	ctx := context.Background()

	// Lifetime 1: commit three ops; the shutdown checkpoint lands at
	// offset 3.
	c, shutdown := startDaemon(t, "-load", dataPath, "-dynamic",
		"-journal", filepath.Join(dir, "first.journal"), "-snapshot-save", ckpt)
	for _, e := range [][2]int32{{0, 5}, {0, 10}, {1, 6}} {
		if _, err := c.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(e[0], e[1])}); err != nil {
			t.Fatal(err)
		}
	}
	shutdown()

	// Lifetime 2: the snapshot survives but the journal file is gone
	// (a new path stands in for the lost file).
	freshJournal := filepath.Join(dir, "fresh.journal")
	_, c2, out2, shutdown2 := startNode(t, "-snapshot", ckpt, "-dynamic", "-journal", freshJournal)
	if !strings.Contains(out2.String(), "journal aligned to engine offset 3") {
		t.Fatalf("no realignment logged:\n%s", out2.String())
	}
	st, err := c2.Replication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.AppliedOffset != 3 || st.JournalBase != 3 || st.JournalEnd != 3 {
		t.Fatalf("post-restart status %+v, want base=end=offset=3", st)
	}
	if _, err := c2.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(2, 9)}); err != nil {
		t.Fatal(err)
	}
	shutdown2()

	// The realigned journal carries the new commit at absolute offset
	// 3 — the file itself, not just the serving status.
	j, err := updates.OpenJournal(freshJournal, attr.KindGeo)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Base() != 3 || j.End() != 4 {
		t.Fatalf("realigned journal spans [%d,%d), want [3,4)", j.Base(), j.End())
	}
}

// TestDaemonReplicationFlagConflicts pins the fast-fail paths: the
// flag combinations that cannot describe a working node are rejected
// before any engine work starts.
func TestDaemonReplicationFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-route"}, "-route requires -leader"},
		{[]string{"-follow", "http://127.0.0.1:1", "-data", "brightkite"}, "drop -data/-load/-snapshot"},
		{[]string{"-follow", "http://127.0.0.1:1", "-snapshot", "x.snap"}, "drop -data/-load/-snapshot"},
	} {
		var out syncBuffer
		err := run(context.Background(), tc.args, &out, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
