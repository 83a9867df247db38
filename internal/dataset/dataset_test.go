package dataset

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"krcore/internal/attr"
	"krcore/internal/core"
)

func TestPresetsGenerate(t *testing.T) {
	for _, name := range PresetNames() {
		d, err := Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, _ := Preset(name)
		if d.Graph.N() != cfg.N {
			t.Fatalf("%s: N = %d, want %d", name, d.Graph.N(), cfg.N)
		}
		// Average degree within 25% of the target (community edges can
		// overshoot slightly).
		got := d.Graph.AvgDegree()
		if got < cfg.AvgDegree*0.75 || got > cfg.AvgDegree*1.6 {
			t.Fatalf("%s: avg degree %.2f too far from target %.2f", name, got, cfg.AvgDegree)
		}
		// Hubs give a skewed dmax.
		if d.Graph.MaxDegree() < 3*int(cfg.AvgDegree) {
			t.Fatalf("%s: max degree %d not skewed", name, d.Graph.MaxDegree())
		}
		if len(d.Communities) == 0 {
			t.Fatalf("%s: no planted communities", name)
		}
	}
	if _, err := Load("nope"); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestPresetDefaults(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		geo := cfg.Kind == attr.KindGeo
		if geo && (cfg.DefaultR <= 0 || cfg.DefaultPermille != 0) {
			t.Fatalf("%s: geo preset must declare DefaultR only, got r=%v p=%v",
				name, cfg.DefaultR, cfg.DefaultPermille)
		}
		if !geo && (cfg.DefaultPermille <= 0 || cfg.DefaultR != 0) {
			t.Fatalf("%s: keyword preset must declare DefaultPermille only, got r=%v p=%v",
				name, cfg.DefaultR, cfg.DefaultPermille)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg, _ := Preset("brightkite")
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.M() != b.Graph.M() || a.Graph.N() != b.Graph.N() {
		t.Fatal("same config must generate identical graphs")
	}
	for u := 0; u < a.Graph.N(); u++ {
		pa, pb := a.Geo.Vertex(int32(u)), b.Geo.Vertex(int32(u))
		if pa != pb {
			t.Fatalf("vertex %d placed differently: %v vs %v", u, pa, pb)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{N: 1}); err == nil {
		t.Fatal("N=1 must be rejected")
	}
	if _, err := Generate(Config{N: 10, CommunityMin: 5, CommunityMax: 3}); err == nil {
		t.Fatal("inverted community bounds must be rejected")
	}
}

func TestCommunitiesAreAttributeCoherent(t *testing.T) {
	d, err := Load("gowalla")
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := Preset("gowalla")
	// Members of one community must sit within a few sigma of each
	// other; vertices of different communities usually do not. The last
	// OverlapSize members are shared with (and placed at) the next
	// community, so only the exclusive members are checked.
	comm := d.Communities[0]
	own := comm[:len(comm)-cfg.OverlapSize]
	for i := 1; i < len(own); i++ {
		dist := math.Sqrt(d.Geo.Distance2(own[0], own[i]))
		if dist > 12*cfg.CommunitySigma {
			t.Fatalf("community member %d is %.1fkm from member 0", i, dist)
		}
	}
}

func TestPresetsContainKRCores(t *testing.T) {
	// The generated datasets must actually contain (k,r)-cores at the
	// paper's parameter ranges, or every experiment would be vacuous.
	d, err := Load("gowalla")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Enumerate(d.Graph, core.Params{K: 5, Oracle: d.Oracle(100)}, core.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || len(res.Cores) == 0 {
		t.Fatalf("gowalla k=5 r=100km: %d cores, timedOut=%v", len(res.Cores), res.TimedOut)
	}
}

func TestTopPermilleThresholdOnDBLP(t *testing.T) {
	d, err := Load("dblp")
	if err != nil {
		t.Fatal(err)
	}
	r3 := d.TopPermille(3)
	r15 := d.TopPermille(15)
	if !(r3 > r15) {
		t.Fatalf("top 3 permille threshold %v must exceed top 15 permille %v", r3, r15)
	}
	if r3 <= 0 || r3 > 1 {
		t.Fatalf("top 3 permille threshold %v out of range", r3)
	}
}

func TestSaveReadRoundTrip(t *testing.T) {
	for _, name := range []string{"brightkite", "dblp"} {
		d, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if got.Name != d.Name || got.Kind != d.Kind ||
			got.Graph.N() != d.Graph.N() || got.Graph.M() != d.Graph.M() {
			t.Fatalf("%s: round trip mismatch", name)
		}
		// Attributes survive: spot-check pairwise similarity scores.
		m1, m2 := d.Metric(), got.Metric()
		for u := int32(0); u < 20; u++ {
			if math.Abs(m1.Score(u, u+1)-m2.Score(u, u+1)) > 1e-9 {
				t.Fatalf("%s: score(%d,%d) changed after round trip", name, u, u+1)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"x 1 2 3\n",
		"d name 0 2\nv 5 1 2\n", // vertex id out of range
		"d name 0 2\ne 0 9\n",   // edge out of range
		"d name 99 2\n",         // unknown kind
		"d name 1 2\nv 0 1:x\n", // bad weight
		"d name 2 2\nv 0 1\n",   // geo vertex needs two coords
		"d name 0 2\nq what\n",  // unknown record
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader([]byte(c))); err == nil {
			t.Fatalf("case %d (%q) should fail", i, c)
		}
	}
}

// TestReadRejectsBadAttributes checks the attribute values the loader
// refuses: a weight that is negative or not finite, weights of one key
// that overflow when merged, and a key outside int32, which an int32
// conversion would silently truncate. The extremes of int32 and a zero
// weight load.
func TestReadRejectsBadAttributes(t *testing.T) {
	for _, v := range []string{"3:-1", "3:NaN", "3:+Inf", "3:-Inf", "3:1e308 3:1e308", "2147483648:1", "-2147483649:1"} {
		if _, err := Read(strings.NewReader("d name 1 1\nv 0 " + v + "\n")); err == nil {
			t.Errorf("weighted vertex %q loaded", v)
		}
	}
	for _, v := range []string{"2147483648", "-2147483649", "4294967297"} {
		if _, err := Read(strings.NewReader("d name 0 1\nv 0 " + v + "\n")); err == nil {
			t.Errorf("keyword vertex %q loaded", v)
		}
	}
	d, err := Read(strings.NewReader("d name 1 2\nv 0 -2147483648:0 2147483647:2.5\nv 1 2147483647:1 2147483647:1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(d.Weighted.Vertex(0), d.Weighted.Vertex(1)); got != "[{-2147483648 0} {2147483647 2.5}] [{2147483647 2}]" {
		t.Fatalf("weighted vertices = %s", got)
	}
	k, err := Read(strings.NewReader("d name 0 1\nv 0 2147483647 -2147483648\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(k.Keywords.Vertex(0)); got != "[-2147483648 2147483647]" {
		t.Fatalf("keyword vertex = %s", got)
	}
}

func TestCaseStudies(t *testing.T) {
	d, k, r := CoauthorCase()
	if d.Kind != attr.KindWeighted || len(d.Communities) != 2 {
		t.Fatal("coauthor case malformed")
	}
	res, err := core.Enumerate(d.Graph, core.Params{K: k, Oracle: d.Oracle(r)}, core.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("coauthor case: %d maximal cores, want 2 (got %v)", len(res.Cores), res.Cores)
	}
	// The bridge author 0 appears in both.
	for i, c := range res.Cores {
		if c[0] != 0 {
			t.Fatalf("core %d does not contain the bridge author: %v", i, c)
		}
	}

	g, k2, r2 := GeosocialCase()
	res2, err := core.Enumerate(g.Graph, core.Params{K: k2, Oracle: g.Oracle(r2)}, core.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Cores) != 2 {
		t.Fatalf("geosocial case: %d maximal cores, want 2", len(res2.Cores))
	}
	// Without the similarity constraint the two groups form one k-core:
	// with a huge r the union merges into one core.
	res3, err := core.Enumerate(g.Graph, core.Params{K: k2, Oracle: g.Oracle(1e6)}, core.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Cores) != 1 {
		t.Fatalf("geosocial case with r=inf: %d cores, want 1", len(res3.Cores))
	}
}
