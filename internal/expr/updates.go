package expr

import (
	"fmt"
	"time"

	"krcore"
	"krcore/internal/dataset"
	"krcore/internal/updates"
)

// DynamicUpdates measures the dynamic serving layer (PR 3): the latency
// of keeping a warm engine current through incremental updates versus
// discarding it and rebuilding from scratch — the cost the
// (k,r)-core model pays per mutation on a live social network.
//
// For every preset the experiment warms a DynamicEngine at the default
// (k, r) setting, then measures:
//
//   - rebuild: NewEngine + Warm on the same graph (what every update
//     would cost without incremental maintenance);
//   - single update: one-edge ApplyBatch commits (add / remove
//     alternating, so the graph stays near its original shape), each of
//     which re-validates the warm setting through scoped invalidation;
//   - batched update: 64-op commits, amortising one invalidation across
//     the batch.
//
// The updates experiment loads private dataset copies, apart from the
// runner's cache shared by the other experiments.
func DynamicUpdates(r *Runner) *Report {
	rep := &Report{
		ID:     "updates",
		Title:  "Dynamic updates: incremental maintenance vs full rebuild (default r, k=5)",
		XLabel: "dataset",
		Xs:     dataset.PresetNames(),
	}
	const (
		singleOps = 200
		batchOps  = 64
	)
	var rebuilds, singles, batched, speedups []string
	for _, name := range rep.Xs {
		thr := presetThreshold(r, name)
		d, err := dataset.Load(name) // private copy; see doc comment
		if err != nil {
			panic(err)
		}
		attrs, err := updates.Attrs(d)
		if err != nil {
			panic(err)
		}
		eng, err := krcore.NewDynamicEngine(d.Graph, attrs)
		if err != nil {
			panic(err)
		}
		if err := eng.Warm(servingK, thr); err != nil {
			panic(err)
		}

		// Full rebuild baseline: fresh engine, index + filter + prepare.
		const rebuildRepeats = 3
		var rebuildT time.Duration
		for i := 0; i < rebuildRepeats; i++ {
			t0 := time.Now()
			fresh := krcore.NewEngine(eng.Graph(), attrs.Metric())
			if err := fresh.Warm(servingK, thr); err != nil {
				panic(err)
			}
			rebuildT += time.Since(t0)
		}
		rebuildT /= rebuildRepeats
		rebuilds = append(rebuilds, fmtDuration(rebuildT, false))

		// Single-edge updates: alternately add and remove one edge
		// between community members, timing each commit.
		ups := updates.Random(d, singleOps, 17)
		t0 := time.Now()
		if _, err := updates.Replay(eng, ups, 1); err != nil {
			panic(err)
		}
		singleT := time.Since(t0) / singleOps
		singles = append(singles, fmtDuration(singleT, false))

		// Batched updates: one commit per 64 operations.
		ups = updates.Random(d, batchOps, 23)
		t0 = time.Now()
		if _, err := updates.Replay(eng, ups, batchOps); err != nil {
			panic(err)
		}
		batchT := time.Since(t0)
		batched = append(batched, fmtDuration(batchT, false))

		if singleT > 0 {
			speedups = append(speedups, fmt.Sprintf("%.1fx", float64(rebuildT)/float64(singleT)))
		} else {
			speedups = append(speedups, "-")
		}
		// The warm setting must have survived every commit: a query now
		// is a pure cache hit.
		before := eng.Stats()
		if _, err := eng.FindMaximum(servingK, thr, krcore.MaxOptions{Limits: r.limits()}); err != nil {
			panic(err)
		}
		if after := eng.Stats(); after.Hits != before.Hits+1 {
			panic(fmt.Sprintf("%s: query after replay was not a cache hit: %+v -> %+v", name, before, after))
		}
	}
	rep.AddSeries("full rebuild (NewEngine+Warm)", rebuilds)
	rep.AddSeries("single-op update", singles)
	rep.AddSeries(fmt.Sprintf("%d-op batch", batchOps), batched)
	rep.AddSeries("rebuild / single-op", speedups)
	rep.Notes = append(rep.Notes,
		"rebuild = mean of 3 cold NewEngine+Warm builds (similarity index + edge filter + k-core components)",
		fmt.Sprintf("single-op update = mean commit latency over %d one-operation batches on a warm engine", singleOps),
		"updates keep the warm (k,r) setting prepared: structure-only commits reuse the similarity index,",
		"and only candidate components touched by an update are rebuilt (see DynamicStats)")
	return rep
}
