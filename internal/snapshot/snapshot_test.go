package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/binenc"
	"krcore/internal/core"
	"krcore/internal/graph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// buildGeoState builds a small fully populated engine state over a
// deterministic geo instance: two thresholds (one oracle-only), two
// prepared settings and optionally dynamic counters.
func buildGeoState(t *testing.T, dynamic bool) *EngineState {
	t.Helper()
	const n = 80
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	geo := attr.NewGeo(n)
	for u := 0; u < n; u++ {
		geo.SetVertex(int32(u), attr.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30})
	}
	st := &EngineState{Kind: attr.KindGeo, Geo: geo, Graph: g}
	metric := similarity.Euclidean{Store: geo}

	full := similarity.NewOracle(metric, 8)
	simindex.For(full)
	filtered := core.FilterDissimilar(g, full)
	st.Thresholds = append(st.Thresholds, Threshold{R: 8, Oracle: full, Filtered: filtered})

	oracleOnly := similarity.NewOracle(metric, 15)
	simindex.For(oracleOnly)
	st.Thresholds = append(st.Thresholds, Threshold{R: 15, Oracle: oracleOnly})

	for _, k := range []int{2, 3} {
		pr, err := core.PrepareFiltered(filtered, core.Params{K: k, Oracle: full})
		if err != nil {
			t.Fatal(err)
		}
		st.Prepared = append(st.Prepared, PreparedSetting{K: k, R: 8, Pr: pr})
	}
	if dynamic {
		st.Dynamic = &DynamicState{Updates: 17, Batches: 5, Version: 4,
			IndexesKept: 3, IndexesRebuilt: 1, ComponentsReused: 9, ComponentsRebuilt: 2}
	}
	return st
}

// buildKeywordState builds a small keyword (Jaccard) engine state;
// weighted toggles the weighted-Jaccard variant.
func buildKeywordState(t *testing.T, weighted bool) *EngineState {
	t.Helper()
	const n = 60
	rng := rand.New(rand.NewSource(7))
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	st := &EngineState{Graph: g}
	var metric similarity.Metric
	if weighted {
		ws := attr.NewWeighted(n)
		for u := 0; u < n; u++ {
			var es []attr.WeightedEntry
			for j := 0; j < 6; j++ {
				es = append(es, attr.WeightedEntry{Key: int32(rng.Intn(25)), Weight: float64(1 + rng.Intn(4))})
			}
			ws.SetVertex(int32(u), es)
		}
		st.Kind, st.Weighted = attr.KindWeighted, ws
		metric = similarity.WeightedJaccard{Store: ws}
	} else {
		kw := attr.NewKeywords(n)
		for u := 0; u < n; u++ {
			var keys []int32
			for j := 0; j < 6; j++ {
				keys = append(keys, int32(rng.Intn(25)))
			}
			kw.SetVertex(int32(u), keys)
		}
		st.Kind, st.Keywords = attr.KindKeywords, kw
		metric = similarity.Jaccard{Store: kw}
	}
	o := similarity.NewOracle(metric, 0.3)
	simindex.For(o)
	filtered := core.FilterDissimilar(g, o)
	st.Thresholds = []Threshold{{R: 0.3, Oracle: o, Filtered: filtered}}
	pr, err := core.PrepareFiltered(filtered, core.Params{K: 2, Oracle: o})
	if err != nil {
		t.Fatal(err)
	}
	st.Prepared = []PreparedSetting{{K: 2, R: 0.3, Pr: pr}}
	return st
}

// encode writes the state to bytes.
func encode(t *testing.T, st *EngineState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripByteStable checks, for every metric kind and both
// flavours, that writing, reading and re-writing reproduces identical
// bytes and identical structural state.
func TestRoundTripByteStable(t *testing.T) {
	cases := map[string]*EngineState{
		"geo-static":  buildGeoState(t, false),
		"geo-dynamic": buildGeoState(t, true),
		"keywords":    buildKeywordState(t, false),
		"weighted":    buildKeywordState(t, true),
	}
	for name, st := range cases {
		t.Run(name, func(t *testing.T) {
			first := encode(t, st)
			if again := encode(t, st); !bytes.Equal(first, again) {
				t.Fatal("same state encoded to different bytes")
			}
			got, err := Read(bytes.NewReader(first))
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != st.Kind || got.Graph.N() != st.Graph.N() || got.Graph.M() != st.Graph.M() {
				t.Fatalf("decoded shape mismatch: kind %v n %d m %d", got.Kind, got.Graph.N(), got.Graph.M())
			}
			if len(got.Thresholds) != len(st.Thresholds) || len(got.Prepared) != len(st.Prepared) {
				t.Fatalf("decoded %d thresholds / %d prepared, want %d / %d",
					len(got.Thresholds), len(got.Prepared), len(st.Thresholds), len(st.Prepared))
			}
			for i, th := range got.Thresholds {
				if th.R != st.Thresholds[i].R || (th.Filtered == nil) != (st.Thresholds[i].Filtered == nil) {
					t.Fatalf("threshold %d mismatch", i)
				}
				if th.Filtered != nil && th.Filtered.M() != st.Thresholds[i].Filtered.M() {
					t.Fatalf("threshold %d filtered edge count %d, want %d",
						i, th.Filtered.M(), st.Thresholds[i].Filtered.M())
				}
			}
			for i, ps := range got.Prepared {
				want := st.Prepared[i]
				if ps.K != want.K || ps.R != want.R || ps.Pr.Components() != want.Pr.Components() {
					t.Fatalf("prepared %d mismatch: (k=%d,r=%g,%d comps)", i, ps.K, ps.R, ps.Pr.Components())
				}
			}
			if (got.Dynamic == nil) != (st.Dynamic == nil) {
				t.Fatal("dynamic flavour lost")
			}
			if got.Dynamic != nil && *got.Dynamic != *st.Dynamic {
				t.Fatalf("dynamic state %+v, want %+v", got.Dynamic, st.Dynamic)
			}
			// Byte-stable re-encode: the decoded state writes back to
			// exactly the input bytes.
			if re := encode(t, got); !bytes.Equal(first, re) {
				t.Fatal("re-encoding a decoded snapshot changed its bytes")
			}
		})
	}
}

// TestDecodedIndexMatchesFresh verifies a decoded bulk index answers
// exactly like a freshly built one.
func TestDecodedIndexMatchesFresh(t *testing.T) {
	st := buildGeoState(t, false)
	got, err := Read(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]int32, st.Graph.N())
	for i := range vs {
		vs[i] = int32(i)
	}
	fresh := st.Thresholds[0].Oracle.Bulk().SimilarAdjacency(vs, nil)
	loaded := got.Thresholds[0].Oracle.Bulk().SimilarAdjacency(vs, nil)
	if fmt.Sprint(fresh) != fmt.Sprint(loaded) {
		t.Fatal("decoded index disagrees with fresh index")
	}
}

func TestRejectBadMagic(t *testing.T) {
	raw := encode(t, buildGeoState(t, false))
	raw[0] ^= 0xff
	assertFormatError(t, raw, ErrMagic)
}

func TestRejectWrongVersion(t *testing.T) {
	raw := encode(t, buildGeoState(t, false))
	raw[8] = 99 // version field, little-endian low byte
	assertFormatError(t, raw, ErrVersion)
}

func TestRejectBitFlip(t *testing.T) {
	raw := encode(t, buildGeoState(t, false))
	// Flip one bit inside each section's payload region (past the
	// 16-byte header and 12-byte section header).
	for _, off := range []int{16 + 12 + 3, len(raw) / 2, len(raw) - 40} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		var fe *FormatError
		if _, err := Read(bytes.NewReader(mut)); !errors.As(err, &fe) {
			t.Fatalf("bit flip at %d not rejected with FormatError: %v", off, err)
		}
	}
}

func TestRejectTruncation(t *testing.T) {
	raw := encode(t, buildGeoState(t, false))
	for _, cut := range []int{4, 15, 20, len(raw) / 3, len(raw) - 1} {
		assertFormatError(t, raw[:cut], ErrTruncated)
	}
}

func TestRejectTrailingData(t *testing.T) {
	raw := encode(t, buildGeoState(t, false))
	assertFormatError(t, append(append([]byte(nil), raw...), 0), ErrCorrupt)
}

func assertFormatError(t *testing.T, raw []byte, want error) {
	t.Helper()
	_, err := Read(bytes.NewReader(raw))
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FormatError", err)
	}
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want cause %v", err, want)
	}
}

// TestRejectShortDynamicSection pins the sticky-error check of the
// dynamic section: a well-framed (checksummed) dynamic payload that is
// too short must fail, not decode missing trailing counters as zero —
// a zeroed journal offset would make a recovery double-apply updates.
func TestRejectShortDynamicSection(t *testing.T) {
	raw := encode(t, buildGeoState(t, true))
	for _, keep := range []int{0, 48} { // no counters / six of seven
		mut := truncateSection(t, raw, secDynamic, keep)
		assertFormatError(t, mut, ErrCorrupt)
	}
}

// truncateSection rewrites the snapshot with the first section of the
// given id truncated to keep payload bytes, with consistent framing
// (length and CRC recomputed), so only the in-section validation can
// catch it.
func truncateSection(t *testing.T, raw []byte, id uint32, keep int) []byte {
	t.Helper()
	out := append([]byte(nil), raw[:16]...)
	r := binenc.NewReader(raw[16:])
	for r.Remaining() > 0 {
		sid := r.U32()
		n := int(r.U64())
		payload := r.Raw(n)
		r.U32() // stored crc
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if sid == id {
			if keep > len(payload) {
				t.Fatalf("section %d has only %d bytes", id, len(payload))
			}
			payload = payload[:keep]
			id = 0 // only the first occurrence
		}
		var h binenc.Buffer
		h.U32(sid)
		h.U64(uint64(len(payload)))
		out = append(out, h.Bytes()...)
		out = append(out, payload...)
		var c binenc.Buffer
		c.U32(crc32.Checksum(payload, castagnoli))
		out = append(out, c.Bytes()...)
	}
	return out
}

// TestWriteRejectsInvalidState covers the writer-side validation.
func TestWriteRejectsInvalidState(t *testing.T) {
	var buf bytes.Buffer
	st := buildGeoState(t, false)

	// Prepared setting whose threshold is oracle-only.
	bad := *st
	bad.Prepared = append([]PreparedSetting(nil), st.Prepared...)
	bad.Prepared[0].R = 15
	if err := Write(&buf, &bad); err == nil {
		t.Fatal("prepared setting anchored to an oracle-only threshold accepted")
	}

	// Missing store.
	bad = *st
	bad.Geo = nil
	if err := Write(&buf, &bad); err == nil {
		t.Fatal("state without store accepted")
	}

	// Store and graph of different sizes.
	bad = *st
	bad.Geo = attr.NewGeo(3)
	if err := Write(&buf, &bad); err == nil {
		t.Fatal("store/graph size mismatch accepted")
	}
}

// TestOracleOnlyThresholdSurvives checks the oracle-only flag round
// trips: the decoded entry carries an index but no filtered graph.
func TestOracleOnlyThresholdSurvives(t *testing.T) {
	st := buildGeoState(t, false)
	got, err := Read(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	var oracleOnly *Threshold
	for i := range got.Thresholds {
		if got.Thresholds[i].R == 15 {
			oracleOnly = &got.Thresholds[i]
		}
	}
	if oracleOnly == nil || oracleOnly.Filtered != nil || oracleOnly.Oracle.Bulk() == nil {
		t.Fatalf("oracle-only threshold not preserved: %+v", oracleOnly)
	}
}
