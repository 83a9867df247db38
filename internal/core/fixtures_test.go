package core

import (
	"math/rand"

	"krcore/internal/attr"
	"krcore/internal/graph"
	"krcore/internal/similarity"
)

// testInstance is a random attributed graph plus the (k,r) parameters,
// used by the cross-validation tests.
type testInstance struct {
	g *graph.Graph
	p Params
}

// randomGeoInstance builds a small random graph whose vertices carry 2-D
// points; similarity is Euclidean distance within threshold r. Points
// cluster around a few centres so both similar and dissimilar pairs
// occur in the same component.
func randomGeoInstance(rng *rand.Rand, maxN int) testInstance {
	return geoInstanceOfSize(rng, 4+rng.Intn(maxN-3))
}

// geoInstanceOfSize is randomGeoInstance on n vertices.
func geoInstanceOfSize(rng *rand.Rand, n int) testInstance {
	b := graph.NewBuilder(n)
	// Random edges with density tuned so k-cores of small k exist.
	for i := 0; i < 3*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()

	geo := attr.NewGeo(n)
	centers := []attr.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 9}}
	for u := 0; u < n; u++ {
		c := centers[rng.Intn(len(centers))]
		geo.SetVertex(int32(u), attr.Point{
			X: c.X + rng.NormFloat64()*2,
			Y: c.Y + rng.NormFloat64()*2,
		})
	}
	r := 3 + rng.Float64()*8 // sometimes merges clusters, sometimes not
	k := 1 + rng.Intn(3)
	return testInstance{
		g: g,
		p: Params{K: k, Oracle: similarity.NewOracle(similarity.Euclidean{Store: geo}, r)},
	}
}

// randomKeywordInstance uses Jaccard similarity over random keyword sets
// drawn from a handful of topics.
func randomKeywordInstance(rng *rand.Rand, maxN int) testInstance {
	return keywordInstanceOfSize(rng, 4+rng.Intn(maxN-3))
}

// keywordInstanceOfSize is randomKeywordInstance on n vertices.
func keywordInstanceOfSize(rng *rand.Rand, n int) testInstance {
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()

	kw := attr.NewKeywords(n)
	for u := 0; u < n; u++ {
		topic := int32(rng.Intn(3)) * 10
		words := []int32{topic, topic + 1, topic + 2}
		if rng.Intn(2) == 0 {
			words = append(words, topic+int32(rng.Intn(4)))
		}
		if rng.Intn(3) == 0 {
			words = append(words, 100+int32(rng.Intn(5))) // shared noise words
		}
		kw.SetVertex(int32(u), words)
	}
	r := 0.2 + rng.Float64()*0.5
	k := 1 + rng.Intn(3)
	return testInstance{
		g: g,
		p: Params{K: k, Oracle: similarity.NewOracle(similarity.Jaccard{Store: kw}, r)},
	}
}

// randomInstance alternates between the two attribute kinds.
func randomInstance(rng *rand.Rand, maxN int) testInstance {
	if rng.Intn(2) == 0 {
		return randomGeoInstance(rng, maxN)
	}
	return randomKeywordInstance(rng, maxN)
}

// sameCoreSets reports whether two canonicalized core lists are equal.
func sameCoreSets(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalCores(a[i], b[i]) {
			return false
		}
	}
	return true
}

// validCore checks the full (k,r)-core definition for a result core.
func validCore(inst testInstance, core []int32) bool {
	return len(core) >= inst.p.K+1 && subsetIsCore(inst.g, inst.p, core)
}
