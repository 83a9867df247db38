package krcore

import (
	"fmt"
	"io"
	"sort"

	"krcore/internal/attr"
	"krcore/internal/similarity"
	"krcore/internal/snapshot"
)

// SaveSnapshot serialises the engine — graph, attribute store, every
// cached similarity index and filtered graph, every prepared (k,r)
// setting — into the versioned snapshot format, so a later LoadEngine
// warm starts in milliseconds instead of rebuilding all of it. Only
// engines over the built-in attribute metrics (Euclidean, Jaccard,
// weighted Jaccard) serialise; custom metrics return an error.
//
// The snapshot captures prepared state, not statistics: the Hits and
// Misses counters are NOT persisted and restart at zero on load
// (Thresholds and Prepared are structural and survive). Entries still
// being built by a concurrent query when SaveSnapshot runs are
// skipped; they rebuild lazily on the loaded engine.
//
// Snapshots are written deterministically — saving the same engine
// state twice produces identical bytes — and re-encoding a loaded
// snapshot is byte-stable, which the golden-file tests pin down.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	st, err := e.snapshotState()
	if err != nil {
		return err
	}
	return snapshot.Write(w, st)
}

// LoadEngine reconstructs an engine saved by Engine.SaveSnapshot or
// DynamicEngine.SaveSnapshot (the dynamic journal position is ignored
// here — use LoadDynamicEngine to resume updates). Malformed input
// returns a *snapshot.FormatError. See SaveSnapshot for what a
// snapshot does and does not carry.
func LoadEngine(r io.Reader) (*Engine, error) {
	st, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return engineFromState(st)
}

// SaveSnapshot serialises the dynamic engine: everything
// Engine.SaveSnapshot captures plus the update journal position
// (JournalOffset) and maintenance counters, so a crashed process
// recovers by loading the snapshot and replaying its update journal
// from that offset (see updates.Stream.ReplayStreamFrom). It encodes
// the snapshot current when it is called; later updates publish new
// snapshots and never change that one, so neither queries nor
// mutations wait for the write I/O.
func (d *DynamicEngine) SaveSnapshot(w io.Writer) error {
	cur := d.cur.Load()
	st, err := cur.eng.snapshotState()
	if err != nil {
		return err
	}
	// DynamicStats and DynamicState list the same counters in the same
	// order, so each converts to the other.
	ds := snapshot.DynamicState(cur.stats)
	st.Dynamic = &ds
	return snapshot.Write(w, st)
}

// LoadDynamicEngine reconstructs a mutable serving engine from a
// snapshot. The engine serves the attribute store decoded from the
// snapshot, accepts updates immediately, and reports the saved journal
// position through JournalOffset — zero when the snapshot was written
// by a static Engine. Malformed input returns a
// *snapshot.FormatError.
func LoadDynamicEngine(r io.Reader) (*DynamicEngine, error) {
	st, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	eng, err := engineFromState(st)
	if err != nil {
		return nil, err
	}
	attrs, err := DynamicAttributesFor(eng.metric)
	if err != nil {
		return nil, err
	}
	cur := &dynSnapshot{attrs: attrs, eng: eng}
	if st.Dynamic != nil {
		cur.stats = DynamicStats(*st.Dynamic)
	}
	d := &DynamicEngine{}
	d.cur.Store(cur)
	return d, nil
}

// JournalOffset returns the number of update operations the engine has
// accepted since its original construction — the position an external
// update journal should resume from after loading a snapshot of this
// engine. It equals DynamicStats().Updates and survives
// SaveSnapshot/LoadDynamicEngine round trips.
func (d *DynamicEngine) JournalOffset() int64 { return d.DynamicStats().Updates }

// snapshotState captures the engine's fully built cache entries as a
// serialisable state. Entries mid-construction are skipped.
func (e *Engine) snapshotState() (*snapshot.EngineState, error) {
	st := &snapshot.EngineState{Graph: e.g}
	switch m := e.metric.(type) {
	case similarity.Euclidean:
		st.Kind, st.Geo = attr.KindGeo, m.Store
	case similarity.Jaccard:
		st.Kind, st.Keywords = attr.KindKeywords, m.Store
	case similarity.WeightedJaccard:
		st.Kind, st.Weighted = attr.KindWeighted, m.Store
	default:
		return nil, fmt.Errorf("krcore: cannot snapshot engine with metric %T: only the built-in attribute metrics serialise", e.metric)
	}
	e.mu.Lock()
	rs := make(map[float64]*rEntry, len(e.byR))
	for r, ent := range e.byR {
		rs[r] = ent
	}
	krs := make(map[krKey]*krEntry, len(e.byKR))
	for key, ent := range e.byKR {
		krs[key] = ent
	}
	e.mu.Unlock()
	for r, ent := range rs {
		if !ent.oracleReady.Load() {
			continue
		}
		th := snapshot.Threshold{R: r, Oracle: ent.oracle}
		if ent.ready.Load() {
			th.Filtered = ent.filtered
		}
		st.Thresholds = append(st.Thresholds, th)
	}
	sort.Slice(st.Thresholds, func(i, j int) bool { return st.Thresholds[i].R < st.Thresholds[j].R })
	// A prepared setting can finish building between the threshold
	// capture above and this loop (its rEntry was read as half-built),
	// so anchor every setting against the captured thresholds and skip
	// the orphans — they rebuild lazily on the loaded engine, exactly
	// like any other mid-construction entry.
	full := make(map[float64]bool, len(st.Thresholds))
	for _, th := range st.Thresholds {
		if th.Filtered != nil {
			full[th.R] = true
		}
	}
	for key, ent := range krs {
		if !ent.ready.Load() || ent.err != nil || !full[key.r] {
			continue
		}
		st.Prepared = append(st.Prepared, snapshot.PreparedSetting{K: key.k, R: key.r, Pr: ent.pr})
	}
	sort.Slice(st.Prepared, func(i, j int) bool {
		if st.Prepared[i].R != st.Prepared[j].R {
			return st.Prepared[i].R < st.Prepared[j].R
		}
		return st.Prepared[i].K < st.Prepared[j].K
	})
	return st, nil
}

// engineFromState rebuilds a serving engine around decoded state: the
// cache maps are seeded with the snapshot's entries, pre-fired so
// queries treat them as built.
func engineFromState(st *snapshot.EngineState) (*Engine, error) {
	metric, err := st.Metric()
	if err != nil {
		return nil, err
	}
	e := NewEngine(st.Graph, metric)
	for _, th := range st.Thresholds {
		if th.Filtered != nil {
			e.byR[th.R] = readyREntry(th.Oracle, th.Filtered)
		} else {
			e.byR[th.R] = oracleOnlyREntry(th.Oracle)
		}
	}
	for _, ps := range st.Prepared {
		e.byKR[krKey{k: ps.K, r: ps.R}] = readyKREntry(ps.Pr)
	}
	return e, nil
}

// oracleOnlyREntry wraps an already-built oracle (with bulk index)
// whose filtered graph stays lazy, mirroring an entry created by
// Engine.Oracle alone.
func oracleOnlyREntry(o *Oracle) *rEntry {
	ent := &rEntry{oracle: o}
	ent.oracleOnce.Do(func() {})
	ent.oracleReady.Store(true)
	return ent
}
