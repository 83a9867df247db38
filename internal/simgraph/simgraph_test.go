package simgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"krcore/internal/attr"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

func geoOracle(pts []attr.Point, r float64) *similarity.Oracle {
	g := attr.NewGeo(len(pts))
	for i, p := range pts {
		g.SetVertex(int32(i), p)
	}
	return similarity.NewOracle(similarity.Euclidean{Store: g}, r)
}

func TestBuildDissim(t *testing.T) {
	// Three points: 0 and 1 close, 2 far away.
	o := geoOracle([]attr.Point{{X: 0}, {X: 1}, {X: 100}}, 10)
	d := BuildDissim(o, []int32{0, 1, 2})
	if d.Pairs != 2 {
		t.Fatalf("Pairs = %d, want 2", d.Pairs)
	}
	if len(d.Lists[0]) != 1 || d.Lists[0][0] != 2 {
		t.Fatalf("dissim(0) = %v, want [2]", d.Lists[0])
	}
	if len(d.Lists[2]) != 2 {
		t.Fatalf("dissim(2) = %v, want [0 1]", d.Lists[2])
	}
	if !d.IsDissimilar(0, 2) || d.IsDissimilar(0, 1) || !d.IsDissimilar(2, 1) {
		t.Fatal("IsDissimilar wrong")
	}
	if d.SimDegree(0) != 1 || d.SimDegree(2) != 0 {
		t.Fatal("SimDegree wrong")
	}
}

func TestSimilarityGraphAndComplementAgree(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		pts := make([]attr.Point, n)
		for i := range pts {
			pts[i] = attr.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		o := geoOracle(pts, 5+rng.Float64()*20)
		vs := make([]int32, n)
		for i := range vs {
			vs[i] = int32(i)
		}
		sg := SimilarityGraph(o, vs)
		d := BuildDissim(o, vs)
		comp := d.Complement()
		if sg.N() != comp.N() || sg.M() != comp.M() {
			return false
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				want := o.Similar(int32(u), int32(v))
				if sg.HasEdge(int32(u), int32(v)) != want {
					return false
				}
				if comp.HasEdge(int32(u), int32(v)) != want {
					return false
				}
				if d.IsDissimilar(int32(u), int32(v)) == want {
					return false
				}
			}
		}
		// Pair accounting: similar + dissimilar = all pairs.
		if sg.M()+d.Pairs != n*(n-1)/2 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkBuildersMatchSerial(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		pts := make([]attr.Point, n)
		for i := range pts {
			pts[i] = attr.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		o := geoOracle(pts, 5+rng.Float64()*20)
		vs := make([]int32, n)
		for i := range vs {
			vs[i] = int32(i)
		}
		src := simindex.NewSerial(o)
		d, db := BuildDissim(o, vs), BuildDissimBulk(src, vs, nil)
		if d.Pairs != db.Pairs || len(d.Lists) != len(db.Lists) {
			return false
		}
		for i := range d.Lists {
			if len(d.Lists[i]) != len(db.Lists[i]) {
				return false
			}
			for k := range d.Lists[i] {
				if d.Lists[i][k] != db.Lists[i][k] {
					return false
				}
			}
		}
		sg, sgb := SimilarityGraph(o, vs), SimilarityGraphBulk(src, vs)
		if sg.N() != sgb.N() || sg.M() != sgb.M() {
			return false
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if sg.HasEdge(int32(u), int32(v)) != sgb.HasEdge(int32(u), int32(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDissimSubsetMapping(t *testing.T) {
	// Local ids must refer to positions in the input slice, not global ids.
	o := geoOracle([]attr.Point{{X: 0}, {X: 100}, {X: 1}, {X: 101}}, 10)
	d := BuildDissim(o, []int32{1, 3, 0}) // local 0=g1, 1=g3, 2=g0
	// g1 and g3 are close (dist 1): similar. g1-g0 and g3-g0 far.
	if d.IsDissimilar(0, 1) {
		t.Fatal("local 0 and 1 (global 1,3) should be similar")
	}
	if !d.IsDissimilar(0, 2) || !d.IsDissimilar(1, 2) {
		t.Fatal("global vertex 0 should be dissimilar to 1 and 3")
	}
	if d.Pairs != 2 {
		t.Fatalf("Pairs = %d, want 2", d.Pairs)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	o := geoOracle([]attr.Point{{X: 0}}, 1)
	d := BuildDissim(o, nil)
	if d.Pairs != 0 || len(d.Lists) != 0 {
		t.Fatal("empty dissim wrong")
	}
	d1 := BuildDissim(o, []int32{0})
	if d1.Pairs != 0 || d1.SimDegree(0) != 0 {
		t.Fatal("singleton dissim wrong")
	}
	if g := SimilarityGraph(o, []int32{0}); g.N() != 1 || g.M() != 0 {
		t.Fatal("singleton similarity graph wrong")
	}
}
