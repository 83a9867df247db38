package krcore

import (
	"testing"
)

// TestEngineSettingsStats pins the per-(k,r) traffic split: warms are
// misses, repeat queries are hits, output is sorted by (k,r), and
// settings never looked up never appear.
func TestEngineSettingsStats(t *testing.T) {
	g, geo := buildServingInstance()
	eng := NewEngine(g, geo.Metric())
	if got := eng.SettingsStats(); len(got) != 0 {
		t.Fatalf("fresh engine reports %d settings", len(got))
	}

	if err := eng.Warm(3, 8); err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(2, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Enumerate(3, 8, EnumOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.FindMaximum(2, 4, MaxOptions{}); err != nil {
		t.Fatal(err)
	}

	got := eng.SettingsStats()
	if len(got) != 2 {
		t.Fatalf("settings = %+v, want 2 entries", got)
	}
	if got[0].K != 2 || got[0].R != 4 || got[1].K != 3 || got[1].R != 8 {
		t.Fatalf("settings not sorted by (k,r): %+v", got)
	}
	if got[0].Hits != 1 || got[0].Misses != 1 {
		t.Fatalf("(2,4) = %+v, want 1 hit (query) / 1 miss (warm)", got[0])
	}
	if got[1].Hits != 3 || got[1].Misses != 1 {
		t.Fatalf("(3,8) = %+v, want 3 hits / 1 miss", got[1])
	}

	// The per-setting split must sum to the engine-wide counters.
	st := eng.Stats()
	var hits, misses int64
	for _, s := range got {
		hits += s.Hits
		misses += s.Misses
	}
	if hits != st.Hits || misses != st.Misses {
		t.Fatalf("per-setting sums (%d,%d) != engine counters (%d,%d)", hits, misses, st.Hits, st.Misses)
	}
}

// TestDynamicSettingsStatsCarry checks per-setting counters survive a
// structure-only update alongside the carried prepared state.
func TestDynamicSettingsStatsCarry(t *testing.T) {
	g, geo := buildServingInstance()
	d, err := NewDynamicEngine(g, geo)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Warm(3, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Enumerate(3, 8, EnumOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 1); err != nil {
		if err := d.RemoveEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := d.SettingsStats()
	if len(got) != 1 || got[0].Hits != 1 || got[0].Misses != 1 {
		t.Fatalf("post-update settings = %+v, want the carried (3,8) with 1 hit / 1 miss", got)
	}
	if _, err := d.Enumerate(3, 8, EnumOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := d.SettingsStats(); got[0].Hits != 2 {
		t.Fatalf("carried setting did not keep counting: %+v", got)
	}
}

// TestDynamicCommitObserver checks the group-commit observer sees every
// accepted round with its batch and op counts.
func TestDynamicCommitObserver(t *testing.T) {
	g, geo := buildServingInstance()
	d, err := NewDynamicEngine(g, geo)
	if err != nil {
		t.Fatal(err)
	}
	var infos []CommitInfo
	d.SetCommitObserver(func(ci CommitInfo) { infos = append(infos, ci) })

	if err := d.ApplyBatch([]Update{AddEdgeUpdate(0, 1), AddEdgeUpdate(0, 2)}); err != nil {
		if err := d.ApplyBatch([]Update{RemoveEdgeUpdate(0, 1), RemoveEdgeUpdate(0, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(infos) != 1 {
		t.Fatalf("observer saw %d rounds, want 1", len(infos))
	}
	if infos[0].Batches != 1 || infos[0].Ops != 2 {
		t.Fatalf("round = %+v, want {Batches:1 Ops:2}", infos[0])
	}

	// A rejected batch must not reach the observer.
	infos = nil
	if err := d.ApplyBatch([]Update{AddEdgeUpdate(0, 99999)}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if len(infos) != 0 {
		t.Fatalf("observer saw rejected round: %+v", infos)
	}

	// Detach: no further callbacks.
	d.SetCommitObserver(nil)
	if _, err := d.AddVertex(); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatal("detached observer still called")
	}
}
