package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"krcore"
	"krcore/client"
	"krcore/internal/dataset"
	"krcore/internal/updates"
)

// diffGrid is the (k,r) grid swept per preset: the preset's default
// distance threshold and a looser one, across three engagement levels.
var diffGrid = []struct {
	k int
	r float64
}{
	{4, 10}, {5, 10}, {6, 10}, {4, 25}, {5, 25},
}

// diffPresets are the bundled datasets the differential acceptance
// criterion runs on (geo presets: thresholds need no permille
// calibration, so the test stays fast).
var diffPresets = []string{"brightkite", "gowalla"}

// TestServerDifferentialStatic asserts the acceptance criterion of the
// serving daemon: for every grid setting on the bundled datasets,
// responses served over HTTP are bit-identical — same cores, same node
// counts — to in-process Engine results.
func TestServerDifferentialStatic(t *testing.T) {
	for _, name := range diffPresets {
		t.Run(name, func(t *testing.T) {
			d, err := dataset.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			served := krcore.NewEngine(d.Graph, d.Metric())
			local := krcore.NewEngine(d.Graph, d.Metric())
			s, err := New(served, Config{Dataset: name})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()
			c := client.New(hs.URL)
			assertGridIdentical(t, c, local)
		})
	}
}

// TestServerDifferentialDynamic extends the criterion to the dynamic
// path: after the same update stream is replayed through HTTP batches
// and through the in-process engine, every grid setting still answers
// bit-identically — and both agree with a from-scratch engine on the
// mutated graph.
func TestServerDifferentialDynamic(t *testing.T) {
	for _, name := range diffPresets {
		t.Run(name, func(t *testing.T) {
			mkDynamic := func() *krcore.DynamicEngine {
				d, err := dataset.Load(name)
				if err != nil {
					t.Fatal(err)
				}
				attrs, err := updates.Attrs(d)
				if err != nil {
					t.Fatal(err)
				}
				deng, err := krcore.NewDynamicEngine(d.Graph, attrs)
				if err != nil {
					t.Fatal(err)
				}
				if err := deng.Warm(diffGrid[0].k, diffGrid[0].r); err != nil {
					t.Fatal(err)
				}
				return deng
			}
			served := mkDynamic()
			local := mkDynamic()
			s, err := New(served, Config{Dataset: name})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()
			c := client.New(hs.URL)

			// One more private dataset copy generates the stream (its
			// engines must not mutate the replayed copies' stores).
			dsrc, err := dataset.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			ups := updates.Random(dsrc, 120, 7)
			const batch = 8
			ctx := context.Background()
			for off := 0; off < len(ups); off += batch {
				end := min(off+batch, len(ups))
				if _, err := c.ApplyBatch(ctx, ups[off:end]); err != nil {
					t.Fatalf("HTTP batch at %d: %v", off, err)
				}
				if err := local.ApplyBatch(ups[off:end]); err != nil {
					t.Fatalf("local batch at %d: %v", off, err)
				}
			}
			if served.N() != local.N() || served.M() != local.M() {
				t.Fatalf("graphs diverged: served %d/%d, local %d/%d",
					served.N(), served.M(), local.N(), local.M())
			}
			assertGridIdentical(t, c, local)

			// Both must also equal a cold engine over the mutated graph
			// (the dynamic engine's core guarantee, checked end to end
			// through the HTTP path).
			fresh := krcore.NewEngine(local.Graph(), local.Metric())
			assertGridIdentical(t, c, fresh)
		})
	}
}

// queryBackend is the read-only surface shared by Engine and
// DynamicEngine that the grid comparison needs.
type queryBackend interface {
	Enumerate(k int, r float64, opt krcore.EnumOptions) (*krcore.Result, error)
	FindMaximum(k int, r float64, opt krcore.MaxOptions) (*krcore.Result, error)
	Graph() *krcore.Graph
}

// assertGridIdentical sweeps the grid and compares the HTTP answers
// with the in-process backend's, field by field.
func assertGridIdentical(t *testing.T, c *client.Client, local queryBackend) {
	t.Helper()
	ctx := context.Background()
	for _, cell := range diffGrid {
		want, err := local.Enumerate(cell.k, cell.r, krcore.EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Enumerate(ctx, cell.k, cell.r, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) {
			t.Fatalf("(k=%d, r=%g): HTTP cores != in-process cores", cell.k, cell.r)
		}
		if got.Nodes != want.Nodes {
			t.Fatalf("(k=%d, r=%g): HTTP nodes %d != in-process %d", cell.k, cell.r, got.Nodes, want.Nodes)
		}
		ws := want.Summarize()
		if got.Count != ws.Count || got.MaxSize != ws.MaxSize || got.AvgSize != ws.AvgSize {
			t.Fatalf("(k=%d, r=%g): summary diverged", cell.k, cell.r)
		}

		wantMax, err := local.FindMaximum(cell.k, cell.r, krcore.MaxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotMax, err := c.FindMaximum(ctx, cell.k, cell.r, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gotMax.Cores) != fmt.Sprint(wantMax.Cores) || gotMax.Nodes != wantMax.Nodes {
			t.Fatalf("(k=%d, r=%g): HTTP maximum diverged", cell.k, cell.r)
		}

		// Community search for a vertex of the largest core (when any);
		// the expected answer is the v-containing subset of the full
		// enumeration already in hand.
		if len(want.Cores) > 0 {
			v := want.Cores[0][0]
			var subset [][]int32
			for _, core := range want.Cores {
				for _, u := range core {
					if u == v {
						subset = append(subset, core)
						break
					}
				}
			}
			gotV, err := c.EnumerateContaining(ctx, cell.k, cell.r, v, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gotV.Cores) != fmt.Sprint(subset) {
				t.Fatalf("(k=%d, r=%g, v=%d): HTTP containing diverged", cell.k, cell.r, v)
			}
		}
	}
}
