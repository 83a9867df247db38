package updates

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"krcore"
	"krcore/internal/attr"
	"krcore/internal/dataset"
)

func smallDataset(t *testing.T, kind attr.Kind) *dataset.Dataset {
	t.Helper()
	cfg, err := dataset.Preset("gowalla")
	if err != nil {
		t.Fatal(err)
	}
	cfg.N = 120
	cfg.NumCommunities = 4
	cfg.Kind = kind
	if kind != attr.KindGeo {
		cfg.Vocab, cfg.TopicWords, cfg.WordsPerVertex = 60, 10, 6
		cfg.MaxWeight = 4
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, kind := range []attr.Kind{attr.KindGeo, attr.KindKeywords, attr.KindWeighted} {
		t.Run(kind.String(), func(t *testing.T) {
			d := smallDataset(t, kind)
			ups := Random(d, 60, 7)
			if len(ups) != 60 {
				t.Fatalf("Random returned %d updates", len(ups))
			}
			var buf bytes.Buffer
			if err := Write(&buf, ups, kind); err != nil {
				t.Fatal(err)
			}
			back, err := Parse(&buf, kind)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ups) != fmt.Sprint(back) {
				t.Fatalf("round trip diverged:\n%v\n%v", ups, back)
			}
		})
	}
}

func TestRandomReplays(t *testing.T) {
	for _, kind := range []attr.Kind{attr.KindGeo, attr.KindWeighted} {
		t.Run(kind.String(), func(t *testing.T) {
			d := smallDataset(t, kind)
			attrs, err := Attrs(d)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := krcore.NewDynamicEngine(d.Graph, attrs)
			if err != nil {
				t.Fatal(err)
			}
			ups := Random(d, 100, 11)
			batches, err := Replay(eng, ups, 8)
			if err != nil {
				t.Fatal(err)
			}
			if want := (100 + 7) / 8; batches != want {
				t.Fatalf("batches = %d, want %d", batches, want)
			}
			if ds := eng.DynamicStats(); ds.Updates != 100 {
				t.Fatalf("updates applied = %d, want 100", ds.Updates)
			}
			// The mutated engine still answers queries.
			if _, err := eng.Enumerate(3, engThreshold(d), krcore.EnumOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRandomNoSelfLoops checks every preset's streams over many seeds:
// the engine rejects a self-loop edge, so a generated stream must never
// hold one.
func TestRandomNoSelfLoops(t *testing.T) {
	for _, name := range []string{"brightkite", "gowalla", "dblp", "pokec"} {
		d, err := dataset.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 50; seed++ {
			ups := Random(d, 3000, seed)
			if len(ups) != 3000 {
				t.Fatalf("%s seed %d: %d updates, want 3000", name, seed, len(ups))
			}
			for i, up := range ups {
				if (up.Op == krcore.OpAddEdge || up.Op == krcore.OpRemoveEdge) && up.U == up.V {
					t.Fatalf("%s seed %d: update %d is a self-loop %s(%d,%d)", name, seed, i, up.Op, up.U, up.V)
				}
			}
		}
	}
}

// engThreshold picks a valid threshold per kind for a smoke query.
func engThreshold(d *dataset.Dataset) float64 {
	if d.Kind == attr.KindGeo {
		return 15
	}
	return 0.4
}

func TestParseComments(t *testing.T) {
	in := "# header\n\nae 0 1\n  re 1 2  \nav\nsa 3 1.5 -2\n"
	ups, err := Parse(strings.NewReader(in), attr.KindGeo)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 4 {
		t.Fatalf("parsed %d updates, want 4", len(ups))
	}
	if ups[3].Op != krcore.OpSetAttributes || ups[3].Attrs.X != 1.5 || ups[3].Attrs.Y != -2 {
		t.Fatalf("sa parsed wrong: %+v", ups[3])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		kind attr.Kind
	}{
		{"xx 1 2", attr.KindGeo},
		{"ae 1", attr.KindGeo},
		{"ae a b", attr.KindGeo},
		{"av 3", attr.KindGeo},
		{"sa", attr.KindGeo},
		{"sa x 1 2", attr.KindGeo},
		{"sa 0 1", attr.KindGeo},
		{"sa 0 a b", attr.KindGeo},
		{"sa 0 nokey", attr.KindKeywords},
		{"sa 0 5", attr.KindWeighted},
		{"sa 0 5:x", attr.KindWeighted},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.in), c.kind); err == nil {
			t.Errorf("Parse(%q, %v) accepted invalid input", c.in, c.kind)
		}
	}
}

func TestReplayReportsFailingBatch(t *testing.T) {
	d := smallDataset(t, attr.KindGeo)
	attrs, err := Attrs(d)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := krcore.NewDynamicEngine(d.Graph, attrs)
	if err != nil {
		t.Fatal(err)
	}
	ups := []krcore.Update{
		krcore.AddEdgeUpdate(0, 1),
		krcore.AddEdgeUpdate(5, 5), // invalid
	}
	if _, err := Replay(eng, ups, 1); err == nil {
		t.Fatal("invalid update must fail the replay")
	}
}

// TestReplayStreamLineNumbersAndAtomicity is the regression test for
// the -updates replay error handling: a semantically invalid update in
// mid-stream must abort with the 1-based source line of the offender,
// and the failing batch must not be partially committed — ApplyBatch
// atomicity observed through the replay path.
func TestReplayStreamLineNumbersAndAtomicity(t *testing.T) {
	d := smallDataset(t, attr.KindGeo)
	attrs, err := Attrs(d)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := krcore.NewDynamicEngine(d.Graph, attrs)
	if err != nil {
		t.Fatal(err)
	}
	// Line 1 is a comment and line 3 blank, so the ops sit on lines
	// 2, 4, 5, 6; the invalid edge (endpoint out of range) is line 5.
	in := "# stream\nae 0 1\n\nae 0 2\nae 0 99999\nae 0 3\n"
	stream, err := ParseStream(strings.NewReader(in), attr.KindGeo)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(stream.Lines) != "[2 4 5 6]" {
		t.Fatalf("bad line map: %v", stream.Lines)
	}

	// Batch size 4 puts every op in one batch: the valid "ae 0 2" in
	// the same batch as the offender must NOT be committed.
	n0, m0 := eng.N(), eng.M()
	hadEdge := eng.Graph().HasEdge(0, 2)
	committed, err := stream.ReplayStream(eng, 4)
	if err == nil {
		t.Fatal("invalid stream replayed cleanly")
	}
	if committed != 0 {
		t.Fatalf("committed %d batches, want 0", committed)
	}
	if !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error does not name line 5: %v", err)
	}
	if !strings.Contains(err.Error(), "discarded") {
		t.Fatalf("error does not state the batch was discarded: %v", err)
	}
	if eng.N() != n0 || eng.M() != m0 {
		t.Fatalf("failed batch partially committed: %d/%d -> %d/%d", n0, m0, eng.N(), eng.M())
	}
	if eng.Graph().HasEdge(0, 2) != hadEdge {
		t.Fatal("valid update from the discarded batch leaked into the graph")
	}

	// Batch size 1 commits the two leading valid ops, then fails on
	// line 5 with two batches committed.
	committed, err = stream.ReplayStream(eng, 1)
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("want line-5 failure, got %v", err)
	}
	if committed != 2 {
		t.Fatalf("committed %d batches, want 2", committed)
	}
	if !strings.Contains(err.Error(), "2 batches committed") {
		t.Fatalf("error does not report committed batches: %v", err)
	}
}
