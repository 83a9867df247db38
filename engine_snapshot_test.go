package krcore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"krcore"
	"krcore/internal/attr"
	"krcore/internal/dataset"
	"krcore/internal/snapshot"
	"krcore/internal/updates"
)

// updateGolden regenerates the checked-in snapshot fixtures under
// testdata/snapshots/ (the good ones and the corrupt ones derived from
// them): go test -run TestSnapshotGolden -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite the snapshot golden fixtures")

const goldenDir = "testdata/snapshots"

// snapGeoInstance builds the deterministic geo instance behind the geo
// fixtures (a public-API twin of the engine tests' serving instance).
func snapGeoInstance() (*krcore.Graph, *krcore.GeoAttributes) {
	const n = 120
	rng := rand.New(rand.NewSource(404))
	b := krcore.NewGraphBuilder(n)
	for i := 0; i < 5*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	geo := krcore.NewGeoAttributes(n)
	centers := [][2]float64{{0, 0}, {10, 0}, {5, 9}, {35, 35}}
	for u := 0; u < n; u++ {
		c := centers[rng.Intn(len(centers))]
		geo.Set(int32(u), c[0]+rng.NormFloat64()*2.5, c[1]+rng.NormFloat64()*2.5)
	}
	return g, geo
}

// snapKeywordInstance builds the deterministic keyword instance behind
// the keywords fixture.
func snapKeywordInstance() (*krcore.Graph, *krcore.KeywordAttributes) {
	const n = 90
	rng := rand.New(rand.NewSource(505))
	b := krcore.NewGraphBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	kw := krcore.NewKeywordAttributes(n)
	for u := 0; u < n; u++ {
		topic := rng.Intn(4) * 10
		keys := []int32{int32(topic), int32(topic + 1)}
		for j := 0; j < 4; j++ {
			keys = append(keys, int32(topic+rng.Intn(10)))
		}
		kw.Set(int32(u), keys)
	}
	return g, kw
}

// snapWeightedInstance builds the deterministic weighted-keyword
// instance behind the weighted fixture.
func snapWeightedInstance() (*krcore.Graph, *krcore.WeightedKeywordAttributes) {
	const n = 90
	rng := rand.New(rand.NewSource(606))
	b := krcore.NewGraphBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	ws := krcore.NewWeightedKeywordAttributes(n)
	for u := 0; u < n; u++ {
		topic := rng.Intn(4) * 8
		keys := []int32{int32(topic), int32(topic + 1), int32(topic + rng.Intn(8))}
		weights := []float64{2, 2, float64(1 + rng.Intn(3))}
		ws.Set(int32(u), keys, weights)
	}
	return g, ws
}

// goldenFixture describes one checked-in snapshot: how to rebuild the
// engine state it captures, and the query settings it has prepared.
type goldenFixture struct {
	name    string
	dynamic bool
	build   func(t *testing.T) snapshotSaver
	warmed  []struct {
		k int
		r float64
	}
}

// snapshotSaver is the save surface shared by both engine flavours.
type snapshotSaver interface {
	SaveSnapshot(w *bytes.Buffer) error
}

// saverFor adapts the public engines (whose SaveSnapshot takes an
// io.Writer) to the fixture interface.
type saverFunc func(w *bytes.Buffer) error

func (f saverFunc) SaveSnapshot(w *bytes.Buffer) error { return f(w) }

var goldenFixtures = []goldenFixture{
	{
		name: "geo.snap",
		build: func(t *testing.T) snapshotSaver {
			g, geo := snapGeoInstance()
			eng := krcore.NewEngine(g, geo.Metric())
			mustWarm(t, eng, 2, 4)
			mustWarm(t, eng, 3, 8)
			if _, err := eng.Oracle(15); err != nil { // oracle-only threshold
				t.Fatal(err)
			}
			return saverFunc(func(w *bytes.Buffer) error { return eng.SaveSnapshot(w) })
		},
		warmed: []struct {
			k int
			r float64
		}{{2, 4}, {3, 8}},
	},
	{
		name: "keywords.snap",
		build: func(t *testing.T) snapshotSaver {
			g, kw := snapKeywordInstance()
			eng := krcore.NewEngine(g, kw.Metric())
			mustWarm(t, eng, 2, 0.25)
			return saverFunc(func(w *bytes.Buffer) error { return eng.SaveSnapshot(w) })
		},
		warmed: []struct {
			k int
			r float64
		}{{2, 0.25}},
	},
	{
		name: "weighted.snap",
		build: func(t *testing.T) snapshotSaver {
			g, ws := snapWeightedInstance()
			eng := krcore.NewEngine(g, ws.Metric())
			mustWarm(t, eng, 2, 0.3)
			return saverFunc(func(w *bytes.Buffer) error { return eng.SaveSnapshot(w) })
		},
		warmed: []struct {
			k int
			r float64
		}{{2, 0.3}},
	},
	{
		name:    "dynamic.snap",
		dynamic: true,
		build: func(t *testing.T) snapshotSaver {
			eng := buildDynamicFixtureEngine(t)
			return saverFunc(func(w *bytes.Buffer) error { return eng.SaveSnapshot(w) })
		},
		warmed: []struct {
			k int
			r float64
		}{{2, 4}},
	},
}

// buildDynamicFixtureEngine builds the dynamic fixture: the geo
// instance warmed at (2,4) with a deterministic mutation history, so
// the snapshot carries a non-zero journal offset.
func buildDynamicFixtureEngine(t *testing.T) *krcore.DynamicEngine {
	t.Helper()
	g, geo := snapGeoInstance()
	eng, err := krcore.NewDynamicEngine(g, geo)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyBatch([]krcore.Update{
		krcore.AddEdgeUpdate(0, 1),
		krcore.AddEdgeUpdate(0, 2),
		krcore.RemoveEdgeUpdate(0, 1),
		krcore.SetAttributesUpdate(3, krcore.VertexAttributes{X: 1, Y: 2}),
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

func mustWarm(t *testing.T, eng *krcore.Engine, k int, r float64) {
	t.Helper()
	if err := eng.Warm(k, r); err != nil {
		t.Fatal(err)
	}
}

// encodeFixture rebuilds a fixture's engine and serialises it.
func encodeFixture(t *testing.T, fx goldenFixture) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fx.build(t).SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGolden pins the snapshot format: every checked-in
// fixture must (a) be reproduced byte-for-byte by rebuilding its
// engine from scratch, (b) re-encode byte-for-byte after a load, and
// (c) serve queries bit-identically to the freshly built engine. With
// -update-golden the fixtures (including the derived corrupt ones) are
// rewritten instead.
func TestSnapshotGolden(t *testing.T) {
	if *updateGolden {
		writeGoldenFixtures(t)
	}
	for _, fx := range goldenFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(goldenDir, fx.name))
			if err != nil {
				t.Fatalf("%v (run: go test -run TestSnapshotGolden -update-golden .)", err)
			}
			if got := encodeFixture(t, fx); !bytes.Equal(got, want) {
				t.Fatalf("rebuilding %s produced different bytes (%d vs %d); if the format or the engine changed intentionally, refresh with -update-golden",
					fx.name, len(got), len(want))
			}
			// Byte-stable re-encode after a load.
			var re bytes.Buffer
			if fx.dynamic {
				deng, err := krcore.LoadDynamicEngine(bytes.NewReader(want))
				if err != nil {
					t.Fatal(err)
				}
				if err := deng.SaveSnapshot(&re); err != nil {
					t.Fatal(err)
				}
				if deng.JournalOffset() == 0 {
					t.Fatal("dynamic fixture lost its journal offset")
				}
			} else {
				eng, err := krcore.LoadEngine(bytes.NewReader(want))
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.SaveSnapshot(&re); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(re.Bytes(), want) {
				t.Fatalf("load + re-save of %s changed its bytes", fx.name)
			}
			// Loaded engines answer exactly like the rebuilt original.
			eng, err := krcore.LoadEngine(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := krcore.LoadEngine(bytes.NewReader(encodeFixture(t, fx)))
			if err != nil {
				t.Fatal(err)
			}
			for _, cell := range fx.warmed {
				a, err := eng.Enumerate(cell.k, cell.r, krcore.EnumOptions{})
				if err != nil {
					t.Fatal(err)
				}
				b, err := fresh.Enumerate(cell.k, cell.r, krcore.EnumOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(a.Cores) != fmt.Sprint(b.Cores) || a.Nodes != b.Nodes {
					t.Fatalf("(k=%d, r=%g): loaded engine disagrees with rebuilt engine", cell.k, cell.r)
				}
			}
		})
	}
}

// corruptFixtures derives the committed corrupt fixtures from the good
// geo fixture; each must be rejected with the given sentinel cause.
var corruptFixtures = []struct {
	name    string
	derive  func(good []byte) []byte
	wantErr error
}{
	{"corrupt_truncated.snap", func(g []byte) []byte { return g[:2*len(g)/3] }, snapshot.ErrTruncated},
	{"corrupt_bitflip.snap", func(g []byte) []byte {
		mut := append([]byte(nil), g...)
		mut[len(mut)/2] ^= 0x08 // lands inside a section payload
		return mut
	}, snapshot.ErrChecksum},
	{"corrupt_version.snap", func(g []byte) []byte {
		mut := append([]byte(nil), g...)
		mut[8] = 0xfe // format version field
		return mut
	}, snapshot.ErrVersion},
	{"corrupt_magic.snap", func(g []byte) []byte {
		mut := append([]byte(nil), g...)
		copy(mut, "NOTASNAP")
		return mut
	}, snapshot.ErrMagic},
	// A format-v2 prepared section whose first maintained core number is
	// forged out of range (above any possible degree), with the section
	// checksum recomputed so only the semantic validation can catch it.
	{"corrupt_corenum.snap", corruptPreparedCore, snapshot.ErrCorrupt},
}

// corruptPreparedCore rewrites the first prepared section of a good v2
// snapshot, setting the first maintained core number to MaxInt32 and
// recomputing the section CRC. Section framing: 16-byte header, then
// per section id u32, length u64, payload, CRC-32C u32. The prepared
// payload is r f64, k u32, n u64, core-count u64, then the core values.
func corruptPreparedCore(g []byte) []byte {
	mut := append([]byte(nil), g...)
	off := 16
	for off+12 <= len(mut) {
		id := binary.LittleEndian.Uint32(mut[off:])
		n := int(binary.LittleEndian.Uint64(mut[off+4:]))
		payload := mut[off+12 : off+12+n]
		if id == 4 { // prepared section
			core0 := 8 + 4 + 8 + 8
			binary.LittleEndian.PutUint32(payload[core0:], 0x7fffffff)
			crc := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(mut[off+12+n:], crc)
			return mut
		}
		off += 12 + n + 4
	}
	panic("no prepared section in golden fixture")
}

// TestSnapshotCorruptFixtures checks the committed corrupt fixtures
// are rejected with typed *snapshot.FormatError causes.
func TestSnapshotCorruptFixtures(t *testing.T) {
	for _, cf := range corruptFixtures {
		cf := cf
		t.Run(cf.name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(goldenDir, cf.name))
			if err != nil {
				t.Fatalf("%v (run: go test -run TestSnapshotGolden -update-golden .)", err)
			}
			_, err = krcore.LoadEngine(bytes.NewReader(raw))
			var fe *snapshot.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("corrupt fixture loaded: err = %v, want *snapshot.FormatError", err)
			}
			if !errors.Is(err, cf.wantErr) {
				t.Fatalf("err = %v, want cause %v", err, cf.wantErr)
			}
			// The dynamic loader applies the same validation.
			if _, err := krcore.LoadDynamicEngine(bytes.NewReader(raw)); !errors.As(err, &fe) {
				t.Fatalf("dynamic load accepted corrupt fixture: %v", err)
			}
		})
	}
}

// writeGoldenFixtures regenerates every committed fixture.
func writeGoldenFixtures(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var geoBytes []byte
	for _, fx := range goldenFixtures {
		raw := encodeFixture(t, fx)
		if fx.name == "geo.snap" {
			geoBytes = raw
		}
		if err := os.WriteFile(filepath.Join(goldenDir, fx.name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", fx.name, len(raw))
	}
	for _, cf := range corruptFixtures {
		raw := cf.derive(geoBytes)
		if err := os.WriteFile(filepath.Join(goldenDir, cf.name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", cf.name, len(raw))
	}
}

// TestSnapshotV1Compat pins backward compatibility with format v1:
// the committed v1 fixtures (written before the format carried core
// numbers or write-path counters) must load, serve bit-identically to
// a freshly built engine, and re-save as canonical current-version
// bytes — exactly the corresponding v2 golden. The v1 fixtures are
// frozen copies of the pre-v2 goldens; never regenerate them.
func TestSnapshotV1Compat(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(goldenDir, "v1_geo.snap"))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := krcore.LoadEngine(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := krcore.LoadEngine(bytes.NewReader(encodeFixture(t, goldenFixtures[0])))
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range goldenFixtures[0].warmed {
			a, err := eng.Enumerate(cell.k, cell.r, krcore.EnumOptions{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.Enumerate(cell.k, cell.r, krcore.EnumOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.Cores) != fmt.Sprint(b.Cores) || a.Nodes != b.Nodes {
				t.Fatalf("(k=%d, r=%g): v1 load disagrees with fresh engine", cell.k, cell.r)
			}
		}
		var re bytes.Buffer
		if err := eng.SaveSnapshot(&re); err != nil {
			t.Fatal(err)
		}
		v2, err := os.ReadFile(filepath.Join(goldenDir, "geo.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), v2) {
			t.Fatal("v1 load did not re-save as the canonical v2 bytes")
		}
	})
	t.Run("dynamic", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(goldenDir, "v1_dynamic.snap"))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := krcore.LoadDynamicEngine(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if eng.JournalOffset() == 0 {
			t.Fatal("v1 dynamic fixture lost its journal offset")
		}
		ds := eng.DynamicStats()
		if ds.GroupCommits != 0 || ds.PatchesIncremental != 0 || ds.PatchesFull != 0 {
			t.Fatalf("v1 load invented write-path counters: %+v", ds)
		}
		// The write-path counters were not alive when the v1 fixture was
		// written, so its re-save cannot equal the v2 golden bytes; what
		// must hold is that it re-saves AS v2 (header version field),
		// keeps its journal offset, and is byte-stable from then on.
		var re bytes.Buffer
		if err := eng.SaveSnapshot(&re); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(re.Bytes()[8:]); v != 2 {
			t.Fatalf("v1 dynamic load re-saved as version %d, want 2", v)
		}
		again, err := krcore.LoadDynamicEngine(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if again.JournalOffset() != eng.JournalOffset() {
			t.Fatalf("journal offset %d after v1→v2 upgrade, want %d",
				again.JournalOffset(), eng.JournalOffset())
		}
		var re2 bytes.Buffer
		if err := again.SaveSnapshot(&re2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), re2.Bytes()) {
			t.Fatal("upgraded snapshot is not byte-stable")
		}
	})
}

// TestSnapshotStatsAcrossSaveLoad is the table-driven regression for
// Engine.Stats across a save/load cycle: the structural counters
// (Thresholds, Prepared) survive, the traffic counters (Hits, Misses)
// reset to zero — the documented behaviour.
func TestSnapshotStatsAcrossSaveLoad(t *testing.T) {
	g, geo := snapGeoInstance()
	cases := []struct {
		name string
		prep func(t *testing.T, eng *krcore.Engine)
	}{
		{"empty", func(t *testing.T, eng *krcore.Engine) {}},
		{"one-warm", func(t *testing.T, eng *krcore.Engine) {
			mustWarm(t, eng, 2, 4)
		}},
		{"two-settings-shared-threshold", func(t *testing.T, eng *krcore.Engine) {
			mustWarm(t, eng, 2, 4)
			mustWarm(t, eng, 3, 4)
		}},
		{"warm-plus-oracle-only", func(t *testing.T, eng *krcore.Engine) {
			mustWarm(t, eng, 2, 4)
			if _, err := eng.Oracle(9); err != nil {
				t.Fatal(err)
			}
		}},
		{"queried-with-traffic", func(t *testing.T, eng *krcore.Engine) {
			mustWarm(t, eng, 2, 4)
			for i := 0; i < 3; i++ {
				if _, err := eng.Enumerate(2, 4, krcore.EnumOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := krcore.NewEngine(g, geo.Metric())
			tc.prep(t, eng)
			before := eng.Stats()
			var buf bytes.Buffer
			if err := eng.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := krcore.LoadEngine(&buf)
			if err != nil {
				t.Fatal(err)
			}
			after := loaded.Stats()
			if after.Hits != 0 || after.Misses != 0 {
				t.Fatalf("traffic counters persisted: %+v", after)
			}
			if after.Thresholds != before.Thresholds || after.Prepared != before.Prepared {
				t.Fatalf("structural counters changed: before %+v, after %+v", before, after)
			}
		})
	}
}

// TestSnapshotWarmHitsCache checks that Warm (and queries) on a loaded
// engine hit only cached entries: zero misses for every setting the
// snapshot carries, a miss for a new setting.
func TestSnapshotWarmHitsCache(t *testing.T) {
	g, geo := snapGeoInstance()
	eng := krcore.NewEngine(g, geo.Metric())
	mustWarm(t, eng, 2, 4)
	mustWarm(t, eng, 3, 8)
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := krcore.LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mustWarm(t, loaded, 2, 4)
	mustWarm(t, loaded, 3, 8)
	if _, err := loaded.Enumerate(2, 4, krcore.EnumOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := loaded.Stats(); st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("loaded engine re-prepared cached settings: %+v", st)
	}
	// A setting the snapshot does not carry is a genuine miss.
	mustWarm(t, loaded, 4, 4)
	if st := loaded.Stats(); st.Misses != 1 || st.Prepared != 3 {
		t.Fatalf("new setting not prepared as a miss: %+v", st)
	}
}

// TestSaveSnapshotRejectsCustomMetric pins the unsupported-metric
// error path.
func TestSaveSnapshotRejectsCustomMetric(t *testing.T) {
	g, _ := snapGeoInstance()
	eng := krcore.NewEngine(g, constantMetric{})
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err == nil {
		t.Fatal("custom metric serialised")
	}
}

// constantMetric is a custom metric the snapshot format cannot carry.
type constantMetric struct{}

func (constantMetric) Score(u, v int32) float64 { return 1 }
func (constantMetric) Distance() bool           { return false }
func (constantMetric) Name() string             { return "constant" }

// crashRecoveryDataset describes one differential scenario.
type crashRecoveryDataset struct {
	name    string
	make    func(t *testing.T) *dataset.Dataset
	k       int
	r       float64
	queries []struct {
		k int
		r float64
	}
}

// jaccardDataset generates a plain-keyword (Jaccard) dataset; the
// presets cover geo and weighted kinds only.
func jaccardDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.Config{
		Name: "jaccard-test", Seed: 777, N: 600,
		AvgDegree: 6, HubCount: 2, HubDegree: 30,
		NumCommunities: 14, CommunityMin: 8, CommunityMax: 16,
		IntraProb: 0.7, OverlapSize: 3,
		Kind:  attr.KindKeywords,
		Vocab: 240, TopicWords: 12, WordsPerVertex: 10, NoiseFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotCrashRecoveryDifferential is the crash-recovery
// differential: a dynamic engine snapshotted mid-stream, reloaded, and
// replayed over the remaining journal must be bit-identical — same
// vertex and edge counts, same cores, same search-node counts — to a
// fresh engine built on the final graph, for a Euclidean and a Jaccard
// instance.
func TestSnapshotCrashRecoveryDifferential(t *testing.T) {
	scenarios := []crashRecoveryDataset{
		{
			name: "euclidean-brightkite",
			make: func(t *testing.T) *dataset.Dataset {
				d, err := dataset.Load("brightkite")
				if err != nil {
					t.Fatal(err)
				}
				return d
			},
			k: 4, r: 10,
			queries: []struct {
				k int
				r float64
			}{{4, 10}, {3, 25}},
		},
		{
			name: "jaccard-synthetic",
			make: jaccardDataset,
			k:    3, r: 0.3,
			queries: []struct {
				k int
				r float64
			}{{3, 0.3}, {2, 0.4}},
		},
	}
	const (
		streamLen = 120
		cut       = 70
		batch     = 5
	)
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			d := sc.make(t)
			ups := updates.Random(d, streamLen, 99)

			// The "crashing" engine: warm, apply the stream prefix,
			// checkpoint.
			attrs, err := updates.Attrs(d)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := krcore.NewDynamicEngine(d.Graph, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Warm(sc.k, sc.r); err != nil {
				t.Fatal(err)
			}
			if _, err := updates.Replay(eng, ups[:cut], batch); err != nil {
				t.Fatal(err)
			}
			var ck bytes.Buffer
			if err := eng.SaveSnapshot(&ck); err != nil {
				t.Fatal(err)
			}

			// Recovery: load the checkpoint, resume the journal at the
			// recorded offset.
			restored, err := krcore.LoadDynamicEngine(bytes.NewReader(ck.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			off := restored.JournalOffset()
			if off != cut {
				t.Fatalf("journal offset %d, want %d", off, cut)
			}
			if _, err := updates.Replay(restored, ups[off:], batch); err != nil {
				t.Fatal(err)
			}

			// Reference: a fresh dynamic engine fed the whole stream.
			d2 := sc.make(t)
			attrs2, err := updates.Attrs(d2)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := krcore.NewDynamicEngine(d2.Graph, attrs2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := updates.Replay(fresh, ups, batch); err != nil {
				t.Fatal(err)
			}

			if restored.N() != fresh.N() || restored.M() != fresh.M() {
				t.Fatalf("recovered graph %d/%d, fresh %d/%d",
					restored.N(), restored.M(), fresh.N(), fresh.M())
			}
			// And a from-scratch static engine over the final graph.
			static := krcore.NewEngine(fresh.Graph(), fresh.Metric())
			for _, q := range sc.queries {
				a, err := restored.Enumerate(q.k, q.r, krcore.EnumOptions{})
				if err != nil {
					t.Fatal(err)
				}
				b, err := fresh.Enumerate(q.k, q.r, krcore.EnumOptions{})
				if err != nil {
					t.Fatal(err)
				}
				c, err := static.Enumerate(q.k, q.r, krcore.EnumOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(a.Cores) != fmt.Sprint(b.Cores) || a.Nodes != b.Nodes {
					t.Fatalf("(k=%d, r=%g): recovered engine diverges from fresh dynamic engine", q.k, q.r)
				}
				if fmt.Sprint(a.Cores) != fmt.Sprint(c.Cores) || a.Nodes != c.Nodes {
					t.Fatalf("(k=%d, r=%g): recovered engine diverges from from-scratch engine", q.k, q.r)
				}
				am, err := restored.FindMaximum(q.k, q.r, krcore.MaxOptions{})
				if err != nil {
					t.Fatal(err)
				}
				cm, err := static.FindMaximum(q.k, q.r, krcore.MaxOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(am.Cores) != fmt.Sprint(cm.Cores) || am.Nodes != cm.Nodes {
					t.Fatalf("(k=%d, r=%g): recovered maximum diverges", q.k, q.r)
				}
			}
			// The recovered engine stays mutable after recovery.
			if err := restored.AddEdge(0, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDynamicSnapshotStatsSurvive checks the dynamic counters round
// trip and updates keep accumulating on top of them.
func TestDynamicSnapshotStatsSurvive(t *testing.T) {
	eng := buildDynamicFixtureEngine(t)
	before := eng.DynamicStats()
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := krcore.LoadDynamicEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.DynamicStats(); got != before {
		t.Fatalf("dynamic stats %+v, want %+v", got, before)
	}
	if err := restored.AddEdge(5, 7); err != nil {
		t.Fatal(err)
	}
	if got := restored.DynamicStats(); got.Updates != before.Updates+1 {
		t.Fatalf("updates did not resume from the journal offset: %+v", got)
	}
}
