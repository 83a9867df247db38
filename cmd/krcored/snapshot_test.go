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
	"krcore/client"
)

// TestDaemonShutdownCheckpointRestart is the daemon-level warm-start
// cycle: a daemon with -snapshot-save writes its checkpoint after the
// shutdown drain, and a second daemon started from that checkpoint
// serves the warmed setting as a pure cache hit with identical
// results.
func TestDaemonShutdownCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.snap")
	ctx := context.Background()

	c, shutdown := startDaemon(t,
		"-data", "brightkite", "-addr", "127.0.0.1:0", "-warm", "4:25", "-snapshot-save", ck)
	want, err := c.Enumerate(ctx, 4, 25, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shutdown() // drains, then writes the checkpoint
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("shutdown left no checkpoint: %v", err)
	}

	c2, shutdown2 := startDaemon(t, "-snapshot", ck, "-addr", "127.0.0.1:0")
	defer shutdown2()
	st := scrape(t, c2)
	if st[`krcored_dataset_info{dataset="ck.snap"}`] != 1 || st["krcored_engine_prepared"] != 1 || st["krcored_engine_thresholds"] != 1 {
		t.Fatalf("restarted metrics: dataset_info %v, prepared %v, thresholds %v",
			st[`krcored_dataset_info{dataset="ck.snap"}`], st["krcored_engine_prepared"], st["krcored_engine_thresholds"])
	}
	got, err := c2.Enumerate(ctx, 4, 25, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
		t.Fatal("restarted daemon answers differently from the original")
	}
	st = scrape(t, c2)
	if hits, misses := st["krcored_engine_cache_hits_total"], st["krcored_engine_cache_misses_total"]; hits != 1 || misses != 0 {
		t.Fatalf("restored setting was not a pure cache hit: %v hits, %v misses", hits, misses)
	}
}

// TestDaemonDynamicCheckpointRestart checks a dynamic daemon's
// checkpoint carries committed updates and the journal offset across a
// restart.
func TestDaemonDynamicCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.snap")
	ctx := context.Background()

	c, shutdown := startDaemon(t,
		"-data", "brightkite", "-dynamic", "-addr", "127.0.0.1:0", "-warm", "4:25", "-snapshot-save", ck)
	n := int32(scrape(t, c)["krcored_graph_vertices"])
	if _, err := c.ApplyBatch(ctx, []krcore.Update{
		krcore.AddVertexUpdate(),
		krcore.AddEdgeUpdate(n, 0),
		krcore.AddEdgeUpdate(n, 1),
	}); err != nil {
		t.Fatal(err)
	}
	shutdown()

	// The restarted daemon resumes from the checkpoint's journal
	// offset and serves the mutated graph.
	c2, shutdown2 := startDaemon(t, "-snapshot", ck, "-dynamic", "-addr", "127.0.0.1:0")
	defer shutdown2()
	st := scrape(t, c2)
	if _, dynamic := st["krcored_dynamic_version"]; st["krcored_graph_vertices"] != float64(n+1) || !dynamic {
		t.Fatalf("restart lost committed updates: n=%v want %d, dynamic=%v", st["krcored_graph_vertices"], n+1, dynamic)
	}
	if st["krcored_dynamic_updates_total"] != 3 {
		t.Fatalf("journal offset lost: %v updates", st["krcored_dynamic_updates_total"])
	}
}

// TestDaemonSnapshotFlagErrors covers startup validation of the
// snapshot flags.
func TestDaemonSnapshotFlagErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-snapshot", filepath.Join(dir, "none.snap")},                           // missing file
		{"-snapshot", filepath.Join(dir, "none.snap"), "-data", "brightkite"},    // two sources
		{"-data", "brightkite", "-snapshot-save", filepath.Join(dir, "no", "x")}, // missing checkpoint dir
		{"-snapshot", filepath.Join(dir, "none.snap"), "-load", "x.txt"},         // two sources
	}
	for _, args := range cases {
		var out syncBuffer
		if err := run(context.Background(), args, &out, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}

	// A dataset file is not a snapshot: -snapshot must reject it with a
	// format error.
	data := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(data, []byte("d tiny 2 2\nv 0 0 0\nv 1 1 1\ne 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	err := run(context.Background(), []string{"-snapshot", data}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("dataset file accepted as snapshot: %v", err)
	}
}

// TestDaemonShutdownCheckpointFailureExitsNonZero checks the audited
// shutdown path: when the final checkpoint cannot be written (its
// directory vanished mid-run), the daemon exits with an error instead
// of silently dropping the state.
func TestDaemonShutdownCheckpointFailureExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ckdir")
	if err := os.Mkdir(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(ckDir, "ck.snap")
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-data", "brightkite", "-addr", "127.0.0.1:0", "-snapshot-save", ck}, &out, &out)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for addrRe.FindStringSubmatch(out.String()) == nil {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never listened:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := os.RemoveAll(ckDir); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "shutdown checkpoint") {
			t.Fatalf("checkpoint write failure not surfaced: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}
}
