package core

// Cross-checks between the indexed preprocessing path (simindex) and
// the serial per-pair oracle path, on the Table 3 dataset presets: the
// acceptance bar for the bulk-similarity engine is bit-identical
// problems and bit-identical search results.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"krcore/internal/dataset"
	"krcore/internal/graph"
	"krcore/internal/simgraph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// presetCase is one (preset, k, r) test configuration. Geo presets use
// a kilometre threshold; keyword presets resolve r from the top-3‰
// calibration, as the paper does for DBLP and Pokec.
type presetCase struct {
	name string
	k    int
	r    float64
}

// presetCases picks moderate thresholds so the searches finish in test
// time while still producing non-trivial candidate components.
func presetCases(t *testing.T) []presetCase {
	t.Helper()
	cases := []presetCase{
		{name: "brightkite", k: 4, r: 25},
		{name: "gowalla", k: 4, r: 100},
	}
	for _, name := range []string{"dblp", "pokec"} {
		d, err := dataset.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, presetCase{name: name, k: 8, r: d.TopPermille(3)})
	}
	return cases
}

// oraclePair returns two fresh oracles over the same dataset and
// threshold: one forced onto the serial reference engine, one left to
// pick up its metric's index on first use.
func oraclePair(d *dataset.Dataset, r float64) (serial, indexed *similarity.Oracle) {
	serial = similarity.NewOracle(d.Metric(), r)
	serial.SetBulk(simindex.NewSerial(serial))
	indexed = similarity.NewOracle(d.Metric(), r)
	return serial, indexed
}

func TestIndexedPrepareMatchesSerialOnPresets(t *testing.T) {
	for _, tc := range presetCases(t) {
		d, err := dataset.Load(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		so, io := oraclePair(d, tc.r)
		ps := prepare(d.Graph, Params{K: tc.k, Oracle: so})
		pi := prepare(d.Graph, Params{K: tc.k, Oracle: io})
		if len(ps) != len(pi) {
			t.Fatalf("%s: %d serial components vs %d indexed", tc.name, len(ps), len(pi))
		}
		for c := range ps {
			a, b := ps[c], pi[c]
			if a.n != b.n || a.maxDeg != b.maxDeg {
				t.Fatalf("%s comp %d: header mismatch (%d,%d) vs (%d,%d)",
					tc.name, c, a.n, a.maxDeg, b.n, b.maxDeg)
			}
			for i := range a.orig {
				if a.orig[i] != b.orig[i] {
					t.Fatalf("%s comp %d: orig differs at %d", tc.name, c, i)
				}
			}
			for r := range a.rows {
				if !slices.Equal(a.rows[r], b.rows[r]) {
					t.Fatalf("%s comp %d: row %d differs", tc.name, c, r)
				}
			}
		}
	}
}

func TestIndexedSearchMatchesSerialOnPresets(t *testing.T) {
	// A deterministic node cap keeps the slowest cells bounded; both
	// paths build identical problems, so a capped search truncates at
	// exactly the same tree node on both sides.
	limits := Limits{MaxNodes: 300000}
	for _, tc := range presetCases(t) {
		d, err := dataset.Load(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		so, io := oraclePair(d, tc.r)

		es, err := Enumerate(d.Graph, Params{K: tc.k, Oracle: so}, EnumOptions{Limits: limits})
		if err != nil {
			t.Fatal(err)
		}
		ei, err := Enumerate(d.Graph, Params{K: tc.k, Oracle: io}, EnumOptions{Limits: limits})
		if err != nil {
			t.Fatal(err)
		}
		if es.Nodes != ei.Nodes || es.TimedOut != ei.TimedOut {
			t.Fatalf("%s: enumeration effort differs: %d/%v nodes vs %d/%v",
				tc.name, es.Nodes, es.TimedOut, ei.Nodes, ei.TimedOut)
		}
		if !sameCoreSets(es.Cores, ei.Cores) {
			t.Fatalf("%s: enumeration cores differ (%d vs %d)", tc.name, len(es.Cores), len(ei.Cores))
		}

		ms, err := FindMaximum(d.Graph, Params{K: tc.k, Oracle: so}, MaxOptions{Limits: limits})
		if err != nil {
			t.Fatal(err)
		}
		mi, err := FindMaximum(d.Graph, Params{K: tc.k, Oracle: io}, MaxOptions{Limits: limits})
		if err != nil {
			t.Fatal(err)
		}
		if ms.Nodes != mi.Nodes || ms.TimedOut != mi.TimedOut || !sameCoreSets(ms.Cores, mi.Cores) {
			t.Fatalf("%s: maximum search differs: %v (%d nodes) vs %v (%d nodes)",
				tc.name, ms.Cores, ms.Nodes, mi.Cores, mi.Nodes)
		}
	}
}

func TestIndexedCliquePlusMatchesSerial(t *testing.T) {
	d, err := dataset.Load("brightkite")
	if err != nil {
		t.Fatal(err)
	}
	so, io := oraclePair(d, 25)
	limits := Limits{MaxNodes: 300000}
	cs, err := CliquePlus(d.Graph, Params{K: 4, Oracle: so}, CliqueOptions{Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := CliquePlus(d.Graph, Params{K: 4, Oracle: io}, CliqueOptions{Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Nodes != ci.Nodes || !sameCoreSets(cs.Cores, ci.Cores) {
		t.Fatalf("Clique+ differs: %d cores/%d nodes vs %d cores/%d nodes",
			len(cs.Cores), cs.Nodes, len(ci.Cores), ci.Nodes)
	}
}

// TestIndexedSearchMatchesSerialRandom sweeps the randomized fixtures
// for extra coverage beyond the presets (both attribute kinds, many
// thresholds).
func TestIndexedSearchMatchesSerialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 40)
		serial := similarity.NewOracle(inst.p.Oracle.Metric(), inst.p.Oracle.Threshold())
		serial.SetBulk(simindex.NewSerial(serial))
		es, err := Enumerate(inst.g, Params{K: inst.p.K, Oracle: serial}, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ei, err := Enumerate(inst.g, inst.p, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if es.Nodes != ei.Nodes || !sameCoreSets(es.Cores, ei.Cores) {
			t.Fatalf("trial %d: serial and indexed enumerations differ", trial)
		}
	}
}

// sameEdges reports whether two graphs have the same vertices and
// neighbour lists.
func sameEdges(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for u := int32(0); u < int32(a.N()); u++ {
		if !equalCores(a.Neighbors(u), b.Neighbors(u)) {
			return false
		}
	}
	return true
}

// TestFilterDissimilarMatchesKeys checks the pair-test filter against
// the key filter the engine runs (FilterByKeys over EdgeKeys), on the
// four presets over a sweep of r around each preset's default, zero
// and negative thresholds included, and on random instances of both
// attribute kinds. dblp and pokec are large enough for the filter to
// split its edges across workers when more than one CPU is available.
func TestFilterDissimilarMatchesKeys(t *testing.T) {
	check := func(label string, g *graph.Graph, m similarity.Metric, r float64) {
		t.Helper()
		ko := similarity.NewOracle(m, r)
		want := simgraph.FilterByKeys(g, simgraph.EdgeKeys(g, ko), ko)
		if got := FilterDissimilar(g, similarity.NewOracle(m, r)); !sameEdges(got, want) {
			t.Fatalf("%s r=%v: FilterDissimilar keeps %d edges, the key filter %d", label, r, got.M(), want.M())
		}
	}
	for _, name := range dataset.PresetNames() {
		d, err := dataset.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		r0, err := d.DefaultThreshold()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{-1, 0, 0.5, 0.7, 0.85, 1, 1.15, 1.3, 2} {
			check(name, d.Graph, d.Metric(), f*r0)
		}
	}
	rng := rand.New(rand.NewSource(778))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 60)
		r := inst.p.Oracle.Threshold()
		for _, f := range []float64{0, 0.5, 1, 1.5} {
			check(fmt.Sprintf("random %d", trial), inst.g, inst.p.Oracle.Metric(), f*r)
		}
	}
}
