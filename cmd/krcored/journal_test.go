package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"krcore"
	"krcore/internal/dataset"
)

// TestDaemonJournalRecoveryAndCompaction walks the full journal
// lifecycle across three daemon lifetimes: write-ahead logging, crash
// recovery by tail replay, and checkpoint compaction.
func TestDaemonJournalRecoveryAndCompaction(t *testing.T) {
	dir := t.TempDir()
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
	dataPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	jPath := filepath.Join(dir, "updates.journal")
	ckpt := filepath.Join(dir, "checkpoint.snap")
	ctx := context.Background()

	// Lifetime 1: journaled daemon, no checkpoint — the journal is the
	// only durable record of the updates.
	c, shutdown := startDaemon(t, "-load", dataPath, "-dynamic", "-journal", jPath)
	for _, e := range [][2]int32{{0, 5}, {0, 10}, {1, 6}} {
		if _, err := c.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(e[0], e[1])}); err != nil {
			t.Fatal(err)
		}
	}
	st := scrape(t, c)
	if st["krcored_journal_tail_ops"] != 3 || st["krcored_dynamic_group_commits_total"] < 1 {
		t.Fatalf("journal not reflected in metrics: tail %v ops, %v group commits",
			st["krcored_journal_tail_ops"], st["krcored_dynamic_group_commits_total"])
	}
	mAfter := st["krcored_graph_edges"]
	shutdown()

	// Lifetime 2: same dataset + journal — the 3 logged ops replay on
	// start (crash recovery), then a checkpoint compacts the journal.
	c, shutdown = startDaemon(t, "-load", dataPath, "-dynamic",
		"-journal", jPath, "-snapshot-save", ckpt, "-warm", "4:12")
	st = scrape(t, c)
	if st["krcored_dynamic_updates_total"] != 3 || st["krcored_graph_edges"] != mAfter {
		t.Fatalf("journal replay lost updates: %v updates (M=%v, want %v)",
			st["krcored_dynamic_updates_total"], st["krcored_graph_edges"], mAfter)
	}
	if _, err := c.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(2, 7)}); err != nil {
		t.Fatal(err)
	}
	st = scrape(t, c)
	if st["krcored_journal_tail_ops"] != 4 {
		t.Fatalf("journal tail = %v ops, want 4", st["krcored_journal_tail_ops"])
	}
	if st["krcored_dynamic_patches_incremental_total"]+st["krcored_dynamic_patches_full_total"] < 1 {
		t.Fatalf("no core-maintenance patches counted after a warmed update: %v incremental, %v full",
			st["krcored_dynamic_patches_incremental_total"], st["krcored_dynamic_patches_full_total"])
	}
	shutdown() // shutdown checkpoint compacts the journal

	// Lifetime 3: restart from the checkpoint + compacted journal — no
	// replay needed, empty tail, nothing lost.
	c, shutdown = startDaemon(t, "-snapshot", ckpt, "-dynamic", "-journal", jPath)
	st = scrape(t, c)
	if tail, ok := st["krcored_journal_tail_ops"]; st["krcored_dynamic_updates_total"] != 4 || !ok || tail != 0 {
		t.Fatalf("post-compaction restart: %v updates, tail %v ops (exported: %v)", st["krcored_dynamic_updates_total"], tail, ok)
	}
	shutdown()
}

// TestDaemonJournalFlagErrors rejects invalid journal configurations.
func TestDaemonJournalFlagErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-data", "brightkite", "-journal", filepath.Join(dir, "j")}, // without -dynamic
		{"-data", "brightkite", "-dynamic", "-journal", filepath.Join(dir, "nosuchdir", "sub", "j")},
	}
	for _, args := range cases {
		var out bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := run(ctx, args, &out, &out)
		cancel()
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
