package core

// Guards on the search kernel: the search trees it walks on the four
// dataset presets, and the allocations of a search on a cached
// Prepared.

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"krcore/internal/dataset"
	"krcore/internal/similarity"
)

// searchPin is one search's expected outcome: its node count, how many
// cores it reported and a digest of those cores (coresDigest).
type searchPin struct {
	nodes  int64
	cores  int
	digest uint64
}

// anchorPin is an EnumerateContaining query and its expected outcome.
type anchorPin struct {
	v int32
	searchPin
}

// coresDigest is the FNV-1a hash of the cores' sizes and vertex ids in
// order.
func coresDigest(cores [][]int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range cores {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(c)))
		h.Write(buf[:])
		for _, v := range c {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func pinOf(res *Result) searchPin {
	return searchPin{nodes: res.Nodes, cores: len(res.Cores), digest: coresDigest(res.Cores)}
}

// presetPrepared prepares the preset at its default r and k, with one
// oracle per preset kept in oracles.
func presetPrepared(t *testing.T, oracles map[string]*similarity.Oracle, preset string, k int) *Prepared {
	t.Helper()
	d, err := dataset.Load(preset)
	if err != nil {
		t.Fatal(err)
	}
	o := oracles[preset]
	if o == nil {
		r, err := d.DefaultThreshold()
		if err != nil {
			t.Fatal(err)
		}
		o = similarity.NewOracle(d.Metric(), r)
		oracles[preset] = o
	}
	pr, err := Prepare(d.Graph, Params{K: k, Oracle: o})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestSearchTreesPinnedOnPresets pins the default searches at each
// preset's default r and k ∈ {4,5,6}: node counts and cores of
// Enumerate and FindMaximum, plus EnumerateContaining at two vertices
// (the first of the maximum core, the last of the last enumerated
// core). Node counts follow every decision the search takes — pruning,
// bounds, the Δ orders and their tie-breaks — so a kernel change that
// keeps them keeps the paper's search exactly. The values were recorded
// from the search before its states were pooled and its (k,k')-core
// bound moved to a flat bin-sort.
func TestSearchTreesPinnedOnPresets(t *testing.T) {
	cases := []struct {
		preset     string
		k          int
		enum, max  searchPin
		containing [2]anchorPin
	}{
		{"brightkite", 4, searchPin{223, 74, 0xf025e3ec1263ce0d}, searchPin{23, 1, 0xb6a01412bd763efe},
			[2]anchorPin{{215, searchPin{9, 3, 0x2ce8703fb12f6ce2}}, {1090, searchPin{10, 5, 0x2d1534f7ee31cea7}}}},
		{"brightkite", 5, searchPin{152, 46, 0x6a363c6722552da5}, searchPin{24, 1, 0x9b44db927c2dc0ff},
			[2]anchorPin{{50, searchPin{8, 1, 0x9b44db927c2dc0ff}}, {1173, searchPin{2, 1, 0x47e49b4fa9a2d900}}}},
		{"brightkite", 6, searchPin{99, 23, 0xbebce14001061ff9}, searchPin{23, 1, 0x35b9831669bfed2e},
			[2]anchorPin{{33, searchPin{3, 1, 0x35b9831669bfed2e}}, {1173, searchPin{2, 1, 0x47e49b4fa9a2d900}}}},
		{"gowalla", 4, searchPin{367, 127, 0x47bedc2c259aeb3f}, searchPin{30, 1, 0x624cfd119f973fa6},
			[2]anchorPin{{52, searchPin{7, 4, 0x46bd92631851e955}}, {1934, searchPin{5, 2, 0x5ee802cfb08e22ee}}}},
		{"gowalla", 5, searchPin{237, 75, 0xcca7fde79252b6e2}, searchPin{22, 1, 0x624cfd119f973fa6},
			[2]anchorPin{{52, searchPin{7, 4, 0x46bd92631851e955}}, {1988, searchPin{10, 3, 0x89c28b5c8fbbad4b}}}},
		{"gowalla", 6, searchPin{119, 22, 0x8acd6ddf8a5bdfaa}, searchPin{10, 1, 0x624cfd119f973fa6},
			[2]anchorPin{{52, searchPin{7, 4, 0x46bd92631851e955}}, {1747, searchPin{1, 1, 0xc88e1fdc57a8562}}}},
		{"dblp", 4, searchPin{1137, 303, 0x745911e31fb04392}, searchPin{81, 1, 0xdf85272bbd94501},
			[2]anchorPin{{5, searchPin{10, 3, 0x7025490b8eaf534c}}, {3935, searchPin{4, 2, 0x13e01b77ecb83f}}}},
		{"dblp", 5, searchPin{936, 248, 0xcf7d2353f629015e}, searchPin{66, 1, 0xdf85272bbd94501},
			[2]anchorPin{{5, searchPin{8, 3, 0x7025490b8eaf534c}}, {3935, searchPin{4, 2, 0x13e01b77ecb83f}}}},
		{"dblp", 6, searchPin{795, 215, 0x1646c49f9a500e53}, searchPin{51, 1, 0xdf85272bbd94501},
			[2]anchorPin{{5, searchPin{8, 3, 0x7025490b8eaf534c}}, {3972, searchPin{15, 6, 0x8c42e52b3c0e6399}}}},
		{"pokec", 4, searchPin{3118, 467, 0xdd650defbcfe9577}, searchPin{35, 1, 0xd4badcfb4d3e54a4},
			[2]anchorPin{{14, searchPin{508, 110, 0xdb6cf0433ce9c8da}}, {3681, searchPin{1, 1, 0x706bc2d9cd018683}}}},
		{"pokec", 5, searchPin{2497, 358, 0x8e4c198963342cc5}, searchPin{31, 1, 0xd4badcfb4d3e54a4},
			[2]anchorPin{{14, searchPin{485, 88, 0x2ab4ed279951f714}}, {3681, searchPin{1, 1, 0x706bc2d9cd018683}}}},
		{"pokec", 6, searchPin{1798, 222, 0x9a75a8eedb8417eb}, searchPin{38, 1, 0x5421aa26d77af1ea},
			[2]anchorPin{{14, searchPin{181, 42, 0xcbb968e766620289}}, {3282, searchPin{204, 13, 0x5c4619e4d1190bcf}}}},
	}
	oracles := map[string]*similarity.Oracle{}
	for _, tc := range cases {
		pr := presetPrepared(t, oracles, tc.preset, tc.k)
		check := func(what string, want searchPin, res *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s k=%d %s: %v", tc.preset, tc.k, what, err)
			}
			if got := pinOf(res); got != want {
				t.Errorf("%s k=%d %s: got %d nodes, %d cores, digest %#x; want %d, %d, %#x",
					tc.preset, tc.k, what, got.nodes, got.cores, got.digest, want.nodes, want.cores, want.digest)
			}
		}
		res, err := pr.Enumerate(EnumOptions{})
		check("Enumerate", tc.enum, res, err)
		res, err = pr.FindMaximum(MaxOptions{})
		check("FindMaximum", tc.max, res, err)
		for _, a := range tc.containing {
			res, err = pr.EnumerateContaining(a.v, EnumOptions{})
			check("EnumerateContaining", a.searchPin, res, err)
		}
	}
}

// TestVariantTreesPinnedOnPresets pins, on the same presets and k, the
// searches TestSearchTreesPinnedOnPresets leaves at their defaults:
// Enumerate with the random, Δ1-then-Δ2 and λΔ orders inside the
// maximal check (Figure 11(f)), and Enumerate and FindMaximum without
// early termination (Theorem 5). Node counts include the maximal
// check's nodes, so they pin its trees as well as the search's. The
// values were recorded from the search whose maximal check kept lists
// and bool arrays of its own.
func TestVariantTreesPinnedOnPresets(t *testing.T) {
	variants := []struct {
		name string
		run  func(pr *Prepared) (*Result, error)
	}{
		{"Enumerate CheckOrder=random", func(pr *Prepared) (*Result, error) {
			return pr.Enumerate(EnumOptions{CheckOrder: OrderRandom})
		}},
		{"Enumerate CheckOrder=d1-then-d2", func(pr *Prepared) (*Result, error) {
			return pr.Enumerate(EnumOptions{CheckOrder: OrderDelta1ThenDelta2})
		}},
		{"Enumerate CheckOrder=lambda*d1-d2", func(pr *Prepared) (*Result, error) {
			return pr.Enumerate(EnumOptions{CheckOrder: OrderLambdaDelta})
		}},
		{"Enumerate DisableEarlyTermination", func(pr *Prepared) (*Result, error) {
			return pr.Enumerate(EnumOptions{DisableEarlyTermination: true})
		}},
		{"FindMaximum DisableEarlyTermination", func(pr *Prepared) (*Result, error) {
			return pr.FindMaximum(MaxOptions{DisableEarlyTermination: true})
		}},
	}
	cases := []struct {
		preset string
		k      int
		want   [5]searchPin // one per variant, in order
	}{
		{"brightkite", 4, [5]searchPin{{224, 74, 0xf025e3ec1263ce0d}, {223, 74, 0xf025e3ec1263ce0d}, {224, 74, 0xf025e3ec1263ce0d}, {223, 74, 0xf025e3ec1263ce0d}, {23, 1, 0xb6a01412bd763efe}}},
		{"brightkite", 5, [5]searchPin{{152, 46, 0x6a363c6722552da5}, {152, 46, 0x6a363c6722552da5}, {152, 46, 0x6a363c6722552da5}, {152, 46, 0x6a363c6722552da5}, {24, 1, 0x9b44db927c2dc0ff}}},
		{"brightkite", 6, [5]searchPin{{99, 23, 0xbebce14001061ff9}, {99, 23, 0xbebce14001061ff9}, {99, 23, 0xbebce14001061ff9}, {99, 23, 0xbebce14001061ff9}, {23, 1, 0x35b9831669bfed2e}}},
		{"gowalla", 4, [5]searchPin{{367, 127, 0x47bedc2c259aeb3f}, {367, 127, 0x47bedc2c259aeb3f}, {367, 127, 0x47bedc2c259aeb3f}, {367, 127, 0x47bedc2c259aeb3f}, {30, 1, 0x624cfd119f973fa6}}},
		{"gowalla", 5, [5]searchPin{{237, 75, 0xcca7fde79252b6e2}, {237, 75, 0xcca7fde79252b6e2}, {237, 75, 0xcca7fde79252b6e2}, {237, 75, 0xcca7fde79252b6e2}, {22, 1, 0x624cfd119f973fa6}}},
		{"gowalla", 6, [5]searchPin{{119, 22, 0x8acd6ddf8a5bdfaa}, {119, 22, 0x8acd6ddf8a5bdfaa}, {119, 22, 0x8acd6ddf8a5bdfaa}, {119, 22, 0x8acd6ddf8a5bdfaa}, {10, 1, 0x624cfd119f973fa6}}},
		{"dblp", 4, [5]searchPin{{1150, 303, 0x745911e31fb04392}, {1145, 303, 0x745911e31fb04392}, {1145, 303, 0x745911e31fb04392}, {1139, 303, 0x745911e31fb04392}, {81, 1, 0xdf85272bbd94501}}},
		{"dblp", 5, [5]searchPin{{936, 248, 0xcf7d2353f629015e}, {936, 248, 0xcf7d2353f629015e}, {936, 248, 0xcf7d2353f629015e}, {936, 248, 0xcf7d2353f629015e}, {66, 1, 0xdf85272bbd94501}}},
		{"dblp", 6, [5]searchPin{{795, 215, 0x1646c49f9a500e53}, {795, 215, 0x1646c49f9a500e53}, {795, 215, 0x1646c49f9a500e53}, {795, 215, 0x1646c49f9a500e53}, {51, 1, 0xdf85272bbd94501}}},
		{"pokec", 4, [5]searchPin{{3536, 467, 0xdd650defbcfe9577}, {3094, 467, 0xdd650defbcfe9577}, {3090, 467, 0xdd650defbcfe9577}, {3178, 467, 0xdd650defbcfe9577}, {35, 1, 0xd4badcfb4d3e54a4}}},
		{"pokec", 5, [5]searchPin{{2499, 358, 0x8e4c198963342cc5}, {2493, 358, 0x8e4c198963342cc5}, {2493, 358, 0x8e4c198963342cc5}, {2498, 358, 0x8e4c198963342cc5}, {31, 1, 0xd4badcfb4d3e54a4}}},
		{"pokec", 6, [5]searchPin{{1799, 222, 0x9a75a8eedb8417eb}, {1798, 222, 0x9a75a8eedb8417eb}, {1798, 222, 0x9a75a8eedb8417eb}, {1798, 222, 0x9a75a8eedb8417eb}, {38, 1, 0x5421aa26d77af1ea}}},
	}
	oracles := map[string]*similarity.Oracle{}
	for _, tc := range cases {
		pr := presetPrepared(t, oracles, tc.preset, tc.k)
		for i, v := range variants {
			res, err := v.run(pr)
			if err != nil {
				t.Fatalf("%s k=%d %s: %v", tc.preset, tc.k, v.name, err)
			}
			if got, want := pinOf(res), tc.want[i]; got != want {
				t.Errorf("%s k=%d %s: got %d nodes, %d cores, digest %#x; want %d, %d, %#x",
					tc.preset, tc.k, v.name, got.nodes, got.cores, got.digest, want.nodes, want.cores, want.digest)
			}
		}
	}
}

// TestBoundTreesPinnedOnPresets pins, on the same presets and k,
// FindMaximum under each size bound TestSearchTreesPinnedOnPresets
// leaves at its default (the colour bound, the similarity k-core bound,
// both, and |M∪C|; Figure 10's ablation) and the Clique+ baseline,
// whose k-core peel walks the adjacency rows. The values were recorded
// from the search whose states built their rows from the problem's
// lists.
func TestBoundTreesPinnedOnPresets(t *testing.T) {
	bounds := []Bound{BoundColor, BoundKcore, BoundColorKcore, BoundNaive}
	cases := []struct {
		preset string
		k      int
		want   [5]searchPin // one per bound, in order, then Clique+
	}{
		{"brightkite", 4, [5]searchPin{{29, 1, 0xb6a01412bd763efe}, {29, 1, 0xb6a01412bd763efe}, {29, 1, 0xb6a01412bd763efe}, {53, 1, 0xb6a01412bd763efe}, {100, 74, 0xf025e3ec1263ce0d}}},
		{"brightkite", 5, [5]searchPin{{24, 1, 0x9b44db927c2dc0ff}, {24, 1, 0x9b44db927c2dc0ff}, {24, 1, 0x9b44db927c2dc0ff}, {32, 1, 0x9b44db927c2dc0ff}, {78, 46, 0x6a363c6722552da5}}},
		{"brightkite", 6, [5]searchPin{{23, 1, 0x35b9831669bfed2e}, {23, 1, 0x35b9831669bfed2e}, {23, 1, 0x35b9831669bfed2e}, {57, 1, 0x35b9831669bfed2e}, {64, 23, 0xbebce14001061ff9}}},
		{"gowalla", 4, [5]searchPin{{34, 1, 0x624cfd119f973fa6}, {34, 1, 0x624cfd119f973fa6}, {34, 1, 0x624cfd119f973fa6}, {224, 1, 0x624cfd119f973fa6}, {182, 127, 0x47bedc2c259aeb3f}}},
		{"gowalla", 5, [5]searchPin{{26, 1, 0x624cfd119f973fa6}, {26, 1, 0x624cfd119f973fa6}, {26, 1, 0x624cfd119f973fa6}, {142, 1, 0x624cfd119f973fa6}, {132, 75, 0xcca7fde79252b6e2}}},
		{"gowalla", 6, [5]searchPin{{10, 1, 0x624cfd119f973fa6}, {10, 1, 0x624cfd119f973fa6}, {10, 1, 0x624cfd119f973fa6}, {82, 1, 0x624cfd119f973fa6}, {92, 22, 0x8acd6ddf8a5bdfaa}}},
		{"dblp", 4, [5]searchPin{{83, 1, 0xdf85272bbd94501}, {83, 1, 0xdf85272bbd94501}, {83, 1, 0xdf85272bbd94501}, {377, 1, 0xdf85272bbd94501}, {917, 303, 0x745911e31fb04392}}},
		{"dblp", 5, [5]searchPin{{68, 1, 0xdf85272bbd94501}, {68, 1, 0xdf85272bbd94501}, {68, 1, 0xdf85272bbd94501}, {324, 1, 0xdf85272bbd94501}, {851, 248, 0xcf7d2353f629015e}}},
		{"dblp", 6, [5]searchPin{{53, 1, 0xdf85272bbd94501}, {53, 1, 0xdf85272bbd94501}, {53, 1, 0xdf85272bbd94501}, {283, 1, 0xdf85272bbd94501}, {707, 215, 0x1646c49f9a500e53}}},
		{"pokec", 4, [5]searchPin{{21, 1, 0xd4badcfb4d3e54a4}, {35, 1, 0xd4badcfb4d3e54a4}, {21, 1, 0xd4badcfb4d3e54a4}, {105, 1, 0xd4badcfb4d3e54a4}, {3996, 467, 0xdd650defbcfe9577}}},
		{"pokec", 5, [5]searchPin{{19, 1, 0xd4badcfb4d3e54a4}, {31, 1, 0xd4badcfb4d3e54a4}, {19, 1, 0xd4badcfb4d3e54a4}, {103, 1, 0xd4badcfb4d3e54a4}, {3942, 358, 0x8e4c198963342cc5}}},
		{"pokec", 6, [5]searchPin{{32, 1, 0x5421aa26d77af1ea}, {42, 1, 0x5421aa26d77af1ea}, {32, 1, 0x5421aa26d77af1ea}, {100, 1, 0x5421aa26d77af1ea}, {3637, 222, 0x9a75a8eedb8417eb}}},
	}
	oracles := map[string]*similarity.Oracle{}
	for _, tc := range cases {
		pr := presetPrepared(t, oracles, tc.preset, tc.k)
		var got [5]searchPin
		for i, b := range bounds {
			res, err := pr.FindMaximum(MaxOptions{Bound: b})
			if err != nil {
				t.Fatalf("%s k=%d FindMaximum %v: %v", tc.preset, tc.k, b, err)
			}
			got[i] = pinOf(res)
		}
		d, err := dataset.Load(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CliquePlus(d.Graph, Params{K: tc.k, Oracle: oracles[tc.preset]}, CliqueOptions{})
		if err != nil {
			t.Fatalf("%s k=%d CliquePlus: %v", tc.preset, tc.k, err)
		}
		got[4] = pinOf(res)
		for i, name := range []string{"FindMaximum Bound=color", "FindMaximum Bound=kcore", "FindMaximum Bound=color+kcore", "FindMaximum Bound=naive", "CliquePlus"} {
			if g, w := got[i], tc.want[i]; g != w {
				t.Errorf("%s k=%d %s: got %d nodes, %d cores, digest %#x; want %d, %d, %#x",
					tc.preset, tc.k, name, g.nodes, g.cores, g.digest, w.nodes, w.cores, w.digest)
			}
		}
	}
}

// TestWarmSearchAllocations bounds the allocations of the default
// searches on a cached Prepared (warm brightkite, k = 4–6). A search
// allocates its result — each core's global-id copy — and its budget,
// its incumbent and their bookkeeping; the states read the problem's
// rows and come from the pool, and the maximal check runs on the state
// and allocates nothing. The bound grants every reported core 4
// allocations and the search 16 more: a warm FindMaximum makes 9 to 13,
// one toGlobal copy and incumbent offer per improvement of its
// incumbent, so one more allocation per component fails it. Under the
// race detector, whose random sync.Pool drops make components build
// states afresh (about ten allocations for the struct and its arrays
// and buffers), every component is granted 24 more.
func TestWarmSearchAllocations(t *testing.T) {
	d, err := dataset.Load("brightkite")
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.DefaultThreshold()
	if err != nil {
		t.Fatal(err)
	}
	o := similarity.NewOracle(d.Metric(), r)
	for _, k := range []int{4, 5, 6} {
		pr, err := Prepare(d.Graph, Params{K: k, Oracle: o})
		if err != nil {
			t.Fatal(err)
		}
		searches := []struct {
			name string
			run  func() (*Result, error)
		}{
			{"Enumerate", func() (*Result, error) { return pr.Enumerate(EnumOptions{}) }},
			{"FindMaximum", func() (*Result, error) { return pr.FindMaximum(MaxOptions{}) }},
		}
		for _, s := range searches {
			res, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			limit := float64(4*len(res.Cores) + 16)
			if raceEnabled {
				limit += float64(24 * pr.Components())
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.run(); err != nil {
					t.Error(err)
				}
			})
			if allocs > limit {
				t.Errorf("brightkite k=%d %s: %.0f allocations per search, want at most %.0f (%d cores, %d components)",
					k, s.name, allocs, limit, len(res.Cores), pr.Components())
			}
		}
	}
}
