package core

import (
	"fmt"
	"math/rand"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/binenc"
	"krcore/internal/graph"
	"krcore/internal/similarity"
)

// twoClusters builds two dense geo clusters far apart: each is its own
// candidate component at small r.
func twoClusters() (*graph.Graph, *similarity.Oracle) {
	const half = 6
	store := attr.NewGeo(2 * half)
	b := graph.NewBuilder(2 * half)
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			store.SetVertex(int32(base+i), attr.Point{X: float64(c) * 100, Y: float64(i)})
			for j := i + 1; j < half; j++ {
				b.AddEdge(int32(base+i), int32(base+j))
			}
		}
	}
	b.AddEdge(0, half) // structural bridge, dissimilar at r=20
	return b.Build(), similarity.NewOracle(similarity.Euclidean{Store: store}, 20)
}

// TestPatchPreparedReusesUntouchedComponent checks the full recompute
// behind PatchPreparedDelta's fallback: a component with no touched
// member keeps its problem object.
func TestPatchPreparedReusesUntouchedComponent(t *testing.T) {
	g, oracle := twoClusters()
	p := Params{K: 2, Oracle: oracle}
	filtered := FilterDissimilar(g, p.Oracle)
	pr, err := PrepareFiltered(filtered, p)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Components() != 2 {
		t.Fatalf("want 2 candidate components, got %d", pr.Components())
	}

	// Remove one edge inside the second cluster (vertices 6..11).
	d := graph.NewDelta(filtered)
	if err := d.RemoveEdge(6, 7); err != nil {
		t.Fatal(err)
	}
	filtered2 := filtered.Apply(d)
	touched := make([]bool, filtered2.N())
	touched[6], touched[7] = true, true

	pr2, st := prepareFull(filtered2, p, pr, touched)
	if st.Reused != 1 || st.Rebuilt != 1 {
		t.Fatalf("stats = %+v, want 1 reused + 1 rebuilt", st)
	}
	// The untouched first cluster keeps its problem object.
	if pr2.probs[0] != pr.probs[0] {
		t.Fatal("untouched component was rebuilt instead of reused")
	}
	// Results must equal a from-scratch preparation.
	fresh, err := PrepareFiltered(filtered2, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr2.Enumerate(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Enumerate(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Cores) != fmt.Sprint(b.Cores) {
		t.Fatalf("patched %v != fresh %v", a.Cores, b.Cores)
	}
}

// TestPatchPreparedRandomized drives random filtered-graph mutations
// (touching edges only, attributes fixed) and checks the patched
// Prepared is bit-identical to a fresh preparation: same enumeration,
// same maximum.
func TestPatchPreparedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 12 + rng.Intn(24)
		store := attr.NewGeo(n)
		for u := 0; u < n; u++ {
			store.SetVertex(int32(u), attr.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25})
		}
		oracle := similarity.NewOracle(similarity.Euclidean{Store: store}, 6+rng.Float64()*8)
		p := Params{K: 1 + rng.Intn(3), Oracle: oracle}
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		filtered := FilterDissimilar(g, oracle)
		pr, err := PrepareFiltered(filtered, p)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 5; step++ {
			d := graph.NewDelta(filtered)
			for op := 0; op < 1+rng.Intn(4); op++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u == v {
					continue
				}
				// Only similar pairs may enter a filtered graph.
				if rng.Intn(2) == 0 && oracle.Similar(u, v) {
					if err := d.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				} else if err := d.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
			filtered2 := filtered.Apply(d)
			touched := make([]bool, n)
			for _, v := range d.Touched() {
				touched[v] = true
			}
			pr2, _ := prepareFull(filtered2, p, pr, touched)
			fresh, err := PrepareFiltered(filtered2, p)
			if err != nil {
				t.Fatal(err)
			}
			pe, err := pr2.Enumerate(EnumOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fe, err := fresh.Enumerate(EnumOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(pe.Cores) != fmt.Sprint(fe.Cores) {
				t.Fatalf("trial %d step %d: patched enum %v != fresh %v", trial, step, pe.Cores, fe.Cores)
			}
			pm, err := pr2.FindMaximum(MaxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fm, err := fresh.FindMaximum(MaxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(pm.Cores) != fmt.Sprint(fm.Cores) {
				t.Fatalf("trial %d step %d: patched max %v != fresh %v", trial, step, pm.Cores, fm.Cores)
			}
			filtered, pr = filtered2, pr2
		}
	}
}

// samePrepared asserts two Prepared values are bit-identical: same
// serialised form (components in the same order, same mappings, same
// dissimilarity lists, same core numbers) and same component-id map.
func samePrepared(t *testing.T, label string, got, want *Prepared) {
	t.Helper()
	var gb, wb binenc.Buffer
	AppendPrepared(&gb, got)
	AppendPrepared(&wb, want)
	if string(gb.Bytes()) != string(wb.Bytes()) {
		t.Fatalf("%s: patched Prepared encodes differently from fresh", label)
	}
	if fmt.Sprint(got.compID) != fmt.Sprint(want.compID) {
		t.Fatalf("%s: component ids diverged:\n got %v\nwant %v", label, got.compID, want.compID)
	}
}

// TestPatchPreparedDeltaRandomized drives random filtered-graph edge
// churn through the incremental maintenance path and checks the result
// is bit-identical — same encoding, same core numbers, same component
// ids, same maximum — to a fresh preparation. A second pass with a
// one-vertex visit budget forces the full-recompute fallback and must
// produce the same answer. Every Prepared it makes holds the rows of
// its components' oracle lists (checkRowsAgainstOracle).
func TestPatchPreparedDeltaRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	incremental, full := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 12 + rng.Intn(24)
		store := attr.NewGeo(n)
		for u := 0; u < n; u++ {
			store.SetVertex(int32(u), attr.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25})
		}
		oracle := similarity.NewOracle(similarity.Euclidean{Store: store}, 6+rng.Float64()*8)
		p := Params{K: 1 + rng.Intn(3), Oracle: oracle}
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		filtered := FilterDissimilar(g, oracle)
		pr, err := PrepareFiltered(filtered, p)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			d := graph.NewDelta(filtered)
			// trial%3 skews the stream: mixed, insert-heavy, remove-heavy.
			addBias := []int{2, 3, 1}[trial%3]
			for op := 0; op < 1+rng.Intn(4); op++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u == v {
					continue
				}
				if rng.Intn(4) < addBias && oracle.Similar(u, v) {
					if err := d.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				} else if err := d.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
			filtered2 := filtered.Apply(d)
			addF, delF := d.Diff()
			touched := make([]bool, n)
			for _, v := range d.Touched() {
				touched[v] = true
			}
			pd := PatchDelta{AddFiltered: addF, DelFiltered: delF, Touched: touched, MaxVisit: 100 * n}
			pr2, st, err := PatchPreparedDelta(pr, filtered2, p, pd)
			if err != nil {
				t.Fatal(err)
			}
			if st.Incremental {
				incremental++
			} else {
				full++
			}
			fresh, err := PrepareFiltered(filtered2, p)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d step %d", trial, step)
			samePrepared(t, label, pr2, fresh)
			checkRowsAgainstOracle(t, label, pr2, filtered2, oracle)
			checkRowsAgainstOracle(t, label+" (fresh)", fresh, filtered2, oracle)
			pm, err := pr2.FindMaximum(MaxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fm, err := fresh.FindMaximum(MaxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(pm.Cores) != fmt.Sprint(fm.Cores) {
				t.Fatalf("%s: patched max %v != fresh %v", label, pm.Cores, fm.Cores)
			}
			// The fallback must agree with the incremental path.
			pd.MaxVisit = 1
			pr2b, stb, err := PatchPreparedDelta(pr, filtered2, p, pd)
			if err != nil {
				t.Fatal(err)
			}
			if stb.Incremental && (len(addF) > 0 || len(delF) > 0) {
				t.Fatalf("%s: one-vertex budget still took the incremental path", label)
			}
			samePrepared(t, label+" (fallback)", pr2b, fresh)
			checkRowsAgainstOracle(t, label+" (fallback)", pr2b, filtered2, oracle)
			filtered, pr = filtered2, pr2
		}
	}
	if incremental == 0 {
		t.Fatal("no batch ever took the incremental path")
	}
	t.Logf("incremental=%d full=%d", incremental, full)
}

// TestPatchPreparedDeltaNoop checks a no-change delta returns the old
// Prepared wholesale — shared pointer, zero visits.
func TestPatchPreparedDeltaNoop(t *testing.T) {
	g, oracle := twoClusters()
	p := Params{K: 2, Oracle: oracle}
	filtered := FilterDissimilar(g, p.Oracle)
	pr, err := PrepareFiltered(filtered, p)
	if err != nil {
		t.Fatal(err)
	}
	pr2, st, err := PatchPreparedDelta(pr, filtered, p, PatchDelta{Touched: make([]bool, filtered.N())})
	if err != nil {
		t.Fatal(err)
	}
	if pr2 != pr {
		t.Fatal("no-op delta must return the old Prepared itself")
	}
	if !st.Incremental || st.CoreVisited != 0 || st.Reused != pr.Components() {
		t.Fatalf("no-op stats = %+v", st)
	}
}

// TestPatchPreparedDeltaGrowth applies a vertex-growth batch through
// the incremental path and checks it against a fresh preparation.
func TestPatchPreparedDeltaGrowth(t *testing.T) {
	g, oracle := twoClusters()
	store := oracle.Metric().(similarity.Euclidean).Store
	p := Params{K: 2, Oracle: oracle}
	filtered := FilterDissimilar(g, p.Oracle)
	pr, err := PrepareFiltered(filtered, p)
	if err != nil {
		t.Fatal(err)
	}
	// Grow one vertex co-located with cluster one and weld it in with
	// three similar edges: it must join that candidate component.
	d := graph.NewDelta(filtered)
	nv := d.AddVertex()
	store.Grow(int(nv) + 1)
	store.SetVertex(nv, attr.Point{X: 0, Y: 2.5})
	for _, u := range []int32{0, 1, 2} {
		if err := d.AddEdge(nv, u); err != nil {
			t.Fatal(err)
		}
	}
	filtered2 := filtered.Apply(d)
	addF, delF := d.Diff()
	touched := make([]bool, filtered2.N())
	for _, v := range d.Touched() {
		touched[v] = true
	}
	// Vertex growth invalidates the bulk similarity index (it snapshots
	// per-vertex state at construction), so the serving layer hands the
	// patch a rebuilt oracle — mirror that here.
	p2 := Params{K: p.K, Oracle: similarity.NewOracle(similarity.Euclidean{Store: store}, 20)}
	pr2, st, err := PatchPreparedDelta(pr, filtered2, p2, PatchDelta{
		AddFiltered: addF, DelFiltered: delF, Touched: touched, MaxVisit: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Incremental {
		t.Fatalf("growth batch fell back to full recompute: %+v", st)
	}
	fresh, err := PrepareFiltered(filtered2, p2)
	if err != nil {
		t.Fatal(err)
	}
	samePrepared(t, "growth", pr2, fresh)
}
