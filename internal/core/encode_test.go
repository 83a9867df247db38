package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/binenc"
	"krcore/internal/graph"
	"krcore/internal/kcore"
	"krcore/internal/similarity"
)

// preparedFixture builds a Prepared over a small clustered geo
// instance with at least one real candidate component, returning the
// filtered graph decoding anchors against.
func preparedFixture(t *testing.T) (*Prepared, Params, *graph.Graph) {
	t.Helper()
	const n = 70
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(n)
	for i := 0; i < 5*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	geo := attr.NewGeo(n)
	for u := 0; u < n; u++ {
		geo.SetVertex(int32(u), attr.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20})
	}
	o := similarity.NewOracle(similarity.Euclidean{Store: geo}, 9)
	p := Params{K: 2, Oracle: o}
	pr, err := Prepare(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Components() == 0 {
		t.Fatal("fixture has no candidate components")
	}
	return pr, p, FilterDissimilar(g, o)
}

func TestPreparedBinaryRoundTrip(t *testing.T) {
	pr, p, filtered := preparedFixture(t)
	var b binenc.Buffer
	AppendPrepared(&b, pr)
	got, err := DecodePrepared(binenc.NewReader(b.Bytes()), p.Oracle, filtered.N(), filtered, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != pr.K() || got.Components() != pr.Components() {
		t.Fatalf("decoded k=%d comps=%d, want k=%d comps=%d",
			got.K(), got.Components(), pr.K(), pr.Components())
	}
	// The decoded problem must search bit-identically.
	want, err := pr.Enumerate(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Enumerate(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(have.Cores) != fmt.Sprint(want.Cores) || have.Nodes != want.Nodes {
		t.Fatal("decoded Prepared enumerates differently")
	}
	wantMax, err := pr.FindMaximum(MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	haveMax, err := got.FindMaximum(MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(haveMax.Cores) != fmt.Sprint(wantMax.Cores) || haveMax.Nodes != wantMax.Nodes {
		t.Fatal("decoded Prepared finds a different maximum")
	}
	// Canonical re-encode.
	var b2 binenc.Buffer
	AppendPrepared(&b2, got)
	if string(b.Bytes()) != string(b2.Bytes()) {
		t.Fatal("re-encode not byte-stable")
	}
	// The maintained core numbers survive the round trip and match a
	// fresh peel of the filtered graph.
	if fmt.Sprint(got.CoreNumbers()) != fmt.Sprint(kcore.Decompose32(filtered)) {
		t.Fatal("decoded core numbers differ from a fresh decomposition")
	}
}

func TestDecodePreparedRejectsCorruption(t *testing.T) {
	pr, p, filtered := preparedFixture(t)
	n := filtered.N()
	var b binenc.Buffer
	AppendPrepared(&b, pr)
	raw := b.Bytes()

	// Vertex-count anchor mismatch.
	if _, err := DecodePrepared(binenc.NewReader(raw), p.Oracle, n+1, filtered, true); err == nil {
		t.Fatal("anchor mismatch accepted")
	}
	// Missing or mismatched filtered graph.
	if _, err := DecodePrepared(binenc.NewReader(raw), p.Oracle, n, nil, true); err == nil {
		t.Fatal("nil filtered graph accepted")
	}
	// Truncation at several depths.
	for _, cut := range []int{4, 20, len(raw) / 2, len(raw) - 1} {
		if _, err := DecodePrepared(binenc.NewReader(raw[:cut]), p.Oracle, n, filtered, true); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// k = 0 violates Params validation.
	mut := append([]byte(nil), raw...)
	mut[0], mut[1], mut[2], mut[3] = 0, 0, 0, 0
	if _, err := DecodePrepared(binenc.NewReader(mut), p.Oracle, n, filtered, true); err == nil {
		t.Fatal("k=0 accepted")
	}
	// A core number above the vertex's filtered degree is impossible.
	// Layout: k u32, n u64, then the length-prefixed core array; the
	// first core value sits right after the array's u64 length.
	mut = append([]byte(nil), raw...)
	off := 4 + 8 + 8
	mut[off], mut[off+1], mut[off+2], mut[off+3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := DecodePrepared(binenc.NewReader(mut), p.Oracle, n, filtered, true); err == nil {
		t.Fatal("out-of-range core number accepted")
	}
	// A component that is not a k-core of its own adjacency, or whose
	// dissimilarity lists are asymmetric or meet its adjacency. The
	// search prunes only what its own transitions touch, so the root
	// must be a k-core; its sums count every dissimilar pair from both
	// ends; and preparation trusts every edge as a similar pair. The
	// largest component, edited on a copy of its lists and re-encoded.
	k := pr.K()
	for _, tc := range []struct {
		name, want string
		edit       func(adj, dis [][]int32)
	}{
		{"member cut to k-1 neighbours, lists kept symmetric", "below k", func(adj, _ [][]int32) {
			for _, v := range adj[0][k-1:] {
				adj[v] = slices.DeleteFunc(adj[v], func(x int32) bool { return x == 0 })
			}
			adj[0] = adj[0][:k-1]
		}},
		{"neighbour not listed back", "does not list it back", func(adj, _ [][]int32) {
			for u := range adj {
				if len(adj[u]) > k {
					adj[u] = adj[u][1:]
					return
				}
			}
			t.Fatal("no member has more than k neighbours")
		}},
		{"dissimilar partner not listed back", "is dissimilar to", func(_, dis [][]int32) {
			for u := range dis {
				if len(dis[u]) > 0 {
					dis[u] = dis[u][1:]
					return
				}
			}
			t.Fatal("no member has a dissimilar partner")
		}},
		{"edge listed as a dissimilar pair", "both as a neighbour and as a dissimilar partner", func(adj, dis [][]int32) {
			u, v := int32(0), adj[0][0]
			dis[u] = slices.Insert(dis[u], sortedIndex(dis[u], v), v)
			dis[v] = slices.Insert(dis[v], sortedIndex(dis[v], u), u)
		}},
	} {
		big := largest(t, pr.probs)
		adj, dis := rowLists(big.rows[:big.n]), rowLists(big.rows[big.n:])
		for _, l := range [][][]int32{adj, dis} {
			for u := range l {
				l[u] = slices.Clone(l[u])
			}
		}
		tc.edit(adj, dis)
		bad := *big
		bad.rows, bad.maxDeg = rowsFromLists(new(rowWriter), adj, dis)
		edited := *pr
		edited.probs = slices.Clone(pr.probs)
		edited.probs[slices.Index(pr.probs, big)] = &bad
		var eb binenc.Buffer
		AppendPrepared(&eb, &edited)
		_, err := DecodePrepared(binenc.NewReader(eb.Bytes()), p.Oracle, n, filtered, true)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want an error saying %q", tc.name, err, tc.want)
		}
	}
}

// sortedIndex returns where v belongs in the ascending list l.
func sortedIndex(l []int32, v int32) int {
	i, _ := slices.BinarySearch(l, v)
	return i
}
