package expr

import (
	"fmt"

	"krcore/internal/core"
	"krcore/internal/dataset"
)

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID    string
	Brief string
	Run   func(*Runner) *Report
}

// Experiments lists every reproduced table and figure in paper order.
// Parameter grids follow the paper; where the synthetic geography
// shifts an interesting region (noted on the figure's function), the
// grid is shifted with it.
var Experiments = []Experiment{
	{"table3", "dataset statistics", Table3},
	{"fig5", "DBLP case study: overlapping research groups", Fig5},
	{"fig6", "Gowalla case study: two geo clusters", Fig6},
	{"fig7a", "(k,r)-core statistics vs r (Gowalla)", Fig7a},
	{"fig7b", "(k,r)-core statistics vs k (DBLP)", Fig7b},
	{"fig8a", "Clique+ vs BasicEnum vs r (Gowalla)", Fig8a},
	{"fig8b", "Clique+ vs BasicEnum vs k (DBLP)", Fig8b},
	{"fig9a", "pruning techniques vs r (Gowalla)", Fig9a},
	{"fig9b", "pruning techniques vs k (DBLP)", Fig9b},
	{"fig10a", "size upper bounds vs r (DBLP)", Fig10a},
	{"fig10b", "size upper bounds vs k (DBLP)", Fig10b},
	{"fig11a", "lambda tuning for AdvMax", Fig11a},
	{"fig11b", "branch orders for AdvMax (DBLP)", Fig11b},
	{"fig11c", "vertex orders for AdvMax (DBLP)", Fig11c},
	{"fig11d", "enumeration orders, small r (Gowalla)", Fig11d},
	{"fig11e", "enumeration orders, large r (Gowalla)", Fig11e},
	{"fig11f", "maximal-check orders (Gowalla)", Fig11f},
	{"fig12a", "enumeration variants on four datasets", Fig12a},
	{"fig12b", "maximum variants on four datasets", Fig12b},
	{"fig13a", "enumeration vs k (Gowalla)", Fig13a},
	{"fig13b", "enumeration vs r (DBLP)", Fig13b},
	{"fig14a", "maximum vs k (Gowalla)", Fig14a},
	{"fig14b", "maximum vs r (DBLP)", Fig14b},
	// Beyond the paper: parallel search scaling.
	{"parmax", "parallel AdvMax scaling across components (all presets)", ParallelMax},
}

// Find returns the experiment with the given id, or nil.
func Find(id string) *Experiment {
	for i := range Experiments {
		if Experiments[i].ID == id {
			return &Experiments[i]
		}
	}
	return nil
}

// gowallaRs is the distance grid (km) shared by the Gowalla sweeps
// (Figures 7a, 9a, 11e, 11f).
var gowallaRs = []float64{10, 50, 100, 150, 200}

// dblpKs67890 is the degree grid of Figures 7b and 9b.
var dblpKs67890 = []int{6, 7, 8, 9, 10}

// Table3 reports the statistics of the four synthetic stand-ins next to
// the paper's originals.
func Table3(r *Runner) *Report {
	rep := &Report{
		ID:     "table3",
		Title:  "Table 3: statistics of datasets (synthetic stand-ins)",
		XLabel: "dataset",
		Xs:     []string{"nodes", "edges", "davg", "dmax"},
	}
	paper := map[string][4]string{
		"brightkite": {"58,228", "194,090", "6.7", "1098"},
		"gowalla":    {"196,591", "456,830", "4.7", "9967"},
		"dblp":       {"1,566,919", "6,461,300", "8.3", "2023"},
		"pokec":      {"1,632,803", "8,320,605", "10.2", "7266"},
	}
	for _, name := range dataset.PresetNames() {
		d := r.Dataset(name)
		g := d.Graph
		rep.AddSeries(name, []string{
			fmt.Sprintf("%d", g.N()),
			fmt.Sprintf("%d", g.M()),
			fmt.Sprintf("%.1f", g.AvgDegree()),
			fmt.Sprintf("%d", g.MaxDegree()),
		})
		p := paper[name]
		rep.AddSeries(name+" (paper)", p[:])
	}
	return rep
}

// Fig5 reproduces the DBLP case study: a single structural k-core that
// splits into two maximal (k,r)-cores sharing one bridge author, plus
// the maximum core.
func Fig5(r *Runner) *Report {
	rep := &Report{ID: "fig5", Title: "Figure 5: case study on co-author network (k=6, r=0.3)"}
	d, k, rthr := dataset.CoauthorCase()
	p := core.Params{K: k, Oracle: d.Oracle(rthr)}
	res, err := core.Enumerate(d.Graph, p, core.EnumOptions{Limits: r.limits()})
	if err != nil {
		panic(err)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("maximal (k,r)-cores found: %d (paper: 2 overlapping research groups)", len(res.Cores)))
	for i, c := range res.Cores {
		shared := contains(c, 0)
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("core %d: %d authors, contains bridge author: %v", i+1, len(c), shared))
	}
	maxRes, err := core.FindMaximum(d.Graph, p, core.MaxOptions{Limits: r.limits()})
	if err != nil {
		panic(err)
	}
	if len(maxRes.Cores) == 1 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("maximum (k,r)-core: %d authors — one coherent project team (paper: 49 Ensembl authors)",
				len(maxRes.Cores[0])))
	}
	return rep
}

// Fig6 reproduces the Gowalla case study: one k-core, two geographic
// clusters at r = 10km.
func Fig6(r *Runner) *Report {
	rep := &Report{ID: "fig6", Title: "Figure 6: case study on Gowalla (k=10, r=10km)"}
	d, k, rthr := dataset.GeosocialCase()
	p := core.Params{K: k, Oracle: d.Oracle(rthr)}
	res, err := core.Enumerate(d.Graph, p, core.EnumOptions{Limits: r.limits()})
	if err != nil {
		panic(err)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("maximal (k,r)-cores found: %d (paper: 2 city clusters)", len(res.Cores)))
	loose, err := core.Enumerate(d.Graph, core.Params{K: k, Oracle: d.Oracle(1e9)},
		core.EnumOptions{Limits: r.limits()})
	if err != nil {
		panic(err)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("with the similarity constraint dropped the same users form %d k-core group(s)", len(loose.Cores)))
	return rep
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// statsCells runs one enumeration and formats Figure-7 statistics.
func statsCells(r *Runner, name string, k int, rv float64, permille bool) (cnt, maxSz, avgSz string) {
	_, res := r.timedEnum(name, k, rv, permille, core.EnumOptions{})
	s := res.Summarize()
	suffix := ""
	if res.TimedOut {
		suffix = "+"
	}
	return fmt.Sprintf("%d%s", s.Count, suffix),
		fmt.Sprintf("%d%s", s.MaxSize, suffix),
		fmt.Sprintf("%.1f%s", s.AvgSize, suffix)
}

// Fig7a reports core statistics on Gowalla, k=5, varying r.
func Fig7a(r *Runner) *Report {
	rep := &Report{ID: "fig7a", Title: "Figure 7(a): (k,r)-core statistics, Gowalla k=5", XLabel: "r (km)"}
	var cnts, maxs, avgs []string
	for _, rv := range gowallaRs {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%g", rv))
		c, m, a := statsCells(r, "gowalla", 5, rv, false)
		cnts = append(cnts, c)
		maxs = append(maxs, m)
		avgs = append(avgs, a)
	}
	rep.AddSeries("#(k,r)-cores", cnts)
	rep.AddSeries("max size", maxs)
	rep.AddSeries("avg size", avgs)
	return rep
}

// Fig7b reports core statistics on DBLP, r = top 3 permille, varying k.
func Fig7b(r *Runner) *Report {
	rep := &Report{ID: "fig7b", Title: "Figure 7(b): (k,r)-core statistics, DBLP r=top3permille", XLabel: "k"}
	var cnts, maxs, avgs []string
	for _, k := range dblpKs67890 {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%d", k))
		c, m, a := statsCells(r, "dblp", k, 3, true)
		cnts = append(cnts, c)
		maxs = append(maxs, m)
		avgs = append(avgs, a)
	}
	rep.AddSeries("#(k,r)-cores", cnts)
	rep.AddSeries("max size", maxs)
	rep.AddSeries("avg size", avgs)
	return rep
}

// Fig8a compares Clique+ with BasicEnum on Gowalla, k=5, varying r. The
// paper sweeps 2-10km; the synthetic geography's clique-rich band sits
// at 10-50km, so the grid is shifted accordingly.
func Fig8a(r *Runner) *Report {
	rep := &Report{ID: "fig8a", Title: "Figure 8(a): clique-based method, Gowalla k=5", XLabel: "r (km)"}
	var cl, be []string
	for _, rv := range []float64{10, 20, 30, 40, 50} {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%g", rv))
		cell, _ := r.timedClique("gowalla", 5, rv, false)
		cl = append(cl, cell)
		cell, _ = r.timedEnum("gowalla", 5, rv, false, EnumVariant("BasicEnum"))
		be = append(be, cell)
	}
	rep.AddSeries("Clique+", cl)
	rep.AddSeries("BasicEnum", be)
	return rep
}

// Fig8b compares Clique+ with BasicEnum on DBLP, r = top 3 permille,
// varying k.
func Fig8b(r *Runner) *Report {
	rep := &Report{ID: "fig8b", Title: "Figure 8(b): clique-based method, DBLP r=top3permille", XLabel: "k"}
	var cl, be []string
	for _, k := range []int{10, 12, 14, 16, 18} {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%d", k))
		cell, _ := r.timedClique("dblp", k, 3, true)
		cl = append(cl, cell)
		cell, _ = r.timedEnum("dblp", k, 3, true, EnumVariant("BasicEnum"))
		be = append(be, cell)
	}
	rep.AddSeries("Clique+", cl)
	rep.AddSeries("BasicEnum", be)
	return rep
}

// pruningSeries runs the four incremental enumeration configurations of
// Figure 9.
func pruningSeries(r *Runner, rep *Report, name string, ks []int, rvs []float64, permille bool) {
	variants := []string{"BasicEnum", "BE+CR", "BE+CR+ET", "AdvEnum"}
	cells := make(map[string][]string)
	addX := func(label string, k int, rv float64) {
		rep.Xs = append(rep.Xs, label)
		for _, v := range variants {
			cell, _ := r.timedEnum(name, k, rv, permille, EnumVariant(v))
			cells[v] = append(cells[v], cell)
		}
	}
	if ks == nil {
		for _, rv := range rvs {
			addX(fmt.Sprintf("%g", rv), 5, rv)
		}
	} else {
		for _, k := range ks {
			addX(fmt.Sprintf("%d", k), k, rvs[0])
		}
	}
	for _, v := range variants {
		rep.AddSeries(v, cells[v])
	}
}

// Fig9a evaluates the pruning techniques on Gowalla, k=5, varying r.
func Fig9a(r *Runner) *Report {
	rep := &Report{ID: "fig9a", Title: "Figure 9(a): pruning techniques, Gowalla k=5", XLabel: "r (km)"}
	pruningSeries(r, rep, "gowalla", nil, gowallaRs, false)
	return rep
}

// Fig9b evaluates the pruning techniques on DBLP, r = top 3 permille,
// varying k.
func Fig9b(r *Runner) *Report {
	rep := &Report{ID: "fig9b", Title: "Figure 9(b): pruning techniques, DBLP r=top3permille", XLabel: "k"}
	pruningSeries(r, rep, "dblp", dblpKs67890, []float64{3}, true)
	return rep
}

// boundSeries runs the maximum search under the three upper bounds of
// Figure 10.
func boundSeries(r *Runner, rep *Report, name string, ks []int, rvs []float64, permille bool, fixedK int) {
	variants := []string{"|M|+|C|", "Color+Kcore", "DoubleKcore"}
	cells := make(map[string][]string)
	addX := func(label string, k int, rv float64) {
		rep.Xs = append(rep.Xs, label)
		for _, v := range variants {
			cell, _ := r.timedMax(name, k, rv, permille, MaxVariant(v))
			cells[v] = append(cells[v], cell)
		}
	}
	if ks == nil {
		for _, rv := range rvs {
			addX(fmt.Sprintf("%g", rv), fixedK, rv)
		}
	} else {
		for _, k := range ks {
			addX(fmt.Sprintf("%d", k), k, rvs[0])
		}
	}
	for _, v := range variants {
		rep.AddSeries(v, cells[v])
	}
}

// Fig10a compares the size upper bounds on DBLP, k=10, varying r.
func Fig10a(r *Runner) *Report {
	rep := &Report{ID: "fig10a", Title: "Figure 10(a): upper bounds, DBLP k=10", XLabel: "r (top permille)"}
	boundSeries(r, rep, "dblp", nil, []float64{1, 2, 3, 4, 5}, true, 10)
	return rep
}

// Fig10b compares the size upper bounds on DBLP, r = top 3 permille,
// varying k.
func Fig10b(r *Runner) *Report {
	rep := &Report{ID: "fig10b", Title: "Figure 10(b): upper bounds, DBLP r=top3permille", XLabel: "k"}
	boundSeries(r, rep, "dblp", []int{10, 11, 12, 13, 14}, []float64{3}, true, 0)
	return rep
}

// Fig11a tunes λ for the AdvMax order on DBLP and Gowalla.
func Fig11a(r *Runner) *Report {
	rep := &Report{ID: "fig11a", Title: "Figure 11(a): lambda tuning for AdvMax", XLabel: "lambda"}
	var dblp, gow []string
	for _, lambda := range []float64{2, 4, 6, 8, 10} {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%g", lambda))
		cell, _ := r.timedMax("dblp", 15, 3, true, core.MaxOptions{Lambda: lambda})
		dblp = append(dblp, cell)
		cell, _ = r.timedMax("gowalla", 5, 100, false, core.MaxOptions{Lambda: lambda})
		gow = append(gow, cell)
	}
	rep.AddSeries("DBLP k=15 r=top3permille", dblp)
	rep.AddSeries("Gowalla k=5 r=100km", gow)
	return rep
}

// Fig11b compares branch orders for the maximum search on DBLP.
func Fig11b(r *Runner) *Report {
	rep := &Report{ID: "fig11b", Title: "Figure 11(b): branch orders for AdvMax, DBLP r=top3permille", XLabel: "k"}
	branches := []struct {
		name string
		b    core.Branch
	}{
		{"Expand", core.BranchExpandFirst},
		{"Shrink", core.BranchShrinkFirst},
		{"AdvMax", core.BranchAdaptive},
	}
	cells := make(map[string][]string)
	for _, k := range []int{3, 4, 5, 6, 7} {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%d", k))
		for _, br := range branches {
			cell, _ := r.timedMax("dblp", k, 3, true, core.MaxOptions{Branch: br.b})
			cells[br.name] = append(cells[br.name], cell)
		}
	}
	for _, br := range branches {
		rep.AddSeries(br.name, cells[br.name])
	}
	return rep
}

// Fig11c compares vertex orders for the maximum search on DBLP.
func Fig11c(r *Runner) *Report {
	rep := &Report{ID: "fig11c", Title: "Figure 11(c): vertex orders for AdvMax, DBLP r=top3permille", XLabel: "k"}
	orders := []struct {
		name string
		o    core.Order
	}{
		{"Random", core.OrderRandom},
		{"Degree", core.OrderDegree},
		{"d2", core.OrderDelta2},
		{"d1", core.OrderDelta1},
		{"d1-then-d2", core.OrderDelta1ThenDelta2},
		{"lambda*d1-d2", core.OrderLambdaDelta},
	}
	cells := make(map[string][]string)
	for _, k := range []int{3, 4, 5, 6, 7} {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%d", k))
		for _, o := range orders {
			cell, _ := r.timedMax("dblp", k, 3, true, core.MaxOptions{Order: o.o})
			cells[o.name] = append(cells[o.name], cell)
		}
	}
	for _, o := range orders {
		rep.AddSeries(o.name, cells[o.name])
	}
	return rep
}

// enumOrderSeries measures AdvEnum under different vertex orders.
func enumOrderSeries(r *Runner, rep *Report, rvs []float64, orders []struct {
	name string
	o    core.Order
}) {
	cells := make(map[string][]string)
	for _, rv := range rvs {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%g", rv))
		for _, o := range orders {
			cell, _ := r.timedEnum("gowalla", 5, rv, false, core.EnumOptions{Order: o.o})
			cells[o.name] = append(cells[o.name], cell)
		}
	}
	for _, o := range orders {
		rep.AddSeries(o.name, cells[o.name])
	}
}

// Fig11d compares enumeration orders on Gowalla at the small-r end
// (the paper's 1-5km band maps to 10-50km in the synthetic geography).
func Fig11d(r *Runner) *Report {
	rep := &Report{ID: "fig11d", Title: "Figure 11(d): enumeration orders, Gowalla k=5 (small r)", XLabel: "r (km)"}
	enumOrderSeries(r, rep, []float64{10, 20, 30, 40, 50}, []struct {
		name string
		o    core.Order
	}{
		{"Random", core.OrderRandom},
		{"Degree", core.OrderDegree},
		{"d1-then-d2", core.OrderDelta1ThenDelta2},
	})
	return rep
}

// Fig11e compares enumeration orders on Gowalla across the full r grid.
func Fig11e(r *Runner) *Report {
	rep := &Report{ID: "fig11e", Title: "Figure 11(e): enumeration orders, Gowalla k=5", XLabel: "r (km)"}
	enumOrderSeries(r, rep, gowallaRs, []struct {
		name string
		o    core.Order
	}{
		{"d1", core.OrderDelta1},
		{"lambda*d1-d2", core.OrderLambdaDelta},
		{"d1-then-d2", core.OrderDelta1ThenDelta2},
	})
	return rep
}

// Fig11f compares maximal-check orders on Gowalla (AdvEnum with the
// check order varied).
func Fig11f(r *Runner) *Report {
	rep := &Report{ID: "fig11f", Title: "Figure 11(f): maximal-check orders, Gowalla k=5", XLabel: "r (km)"}
	orders := []struct {
		name string
		o    core.Order
	}{
		{"lambda*d1-d2", core.OrderLambdaDelta},
		{"d1-then-d2", core.OrderDelta1ThenDelta2},
		{"Degree", core.OrderDegree},
	}
	cells := make(map[string][]string)
	for _, rv := range gowallaRs {
		rep.Xs = append(rep.Xs, fmt.Sprintf("%g", rv))
		for _, o := range orders {
			cell, _ := r.timedEnum("gowalla", 5, rv, false, core.EnumOptions{CheckOrder: o.o})
			cells[o.name] = append(cells[o.name], cell)
		}
	}
	for _, o := range orders {
		rep.AddSeries(o.name, cells[o.name])
	}
	return rep
}

// datasetGrid holds the Figure 12 per-dataset parameters (k=10
// everywhere; r = 500km, 300km, top 3 permille, top 5 permille).
var datasetGrid = []struct {
	name     string
	rv       float64
	permille bool
}{
	{"brightkite", 500, false},
	{"gowalla", 300, false},
	{"dblp", 3, true},
	{"pokec", 5, true},
}

// Fig12a compares the enumeration variants across all four datasets.
func Fig12a(r *Runner) *Report {
	rep := &Report{ID: "fig12a", Title: "Figure 12(a): enumeration on four datasets (k=10)", XLabel: "dataset"}
	variants := []string{"AdvEnum-O", "AdvEnum-P", "AdvEnum"}
	cells := make(map[string][]string)
	for _, d := range datasetGrid {
		rep.Xs = append(rep.Xs, d.name)
		for _, v := range variants {
			cell, _ := r.timedEnum(d.name, 10, d.rv, d.permille, EnumVariant(v))
			cells[v] = append(cells[v], cell)
		}
	}
	for _, v := range variants {
		rep.AddSeries(v, cells[v])
	}
	return rep
}

// Fig12b compares the maximum-search variants across all four datasets.
func Fig12b(r *Runner) *Report {
	rep := &Report{ID: "fig12b", Title: "Figure 12(b): maximum search on four datasets (k=10)", XLabel: "dataset"}
	variants := []string{"AdvMax-O", "AdvMax-UB", "AdvMax"}
	cells := make(map[string][]string)
	for _, d := range datasetGrid {
		rep.Xs = append(rep.Xs, d.name)
		for _, v := range variants {
			cell, _ := r.timedMax(d.name, 10, d.rv, d.permille, MaxVariant(v))
			cells[v] = append(cells[v], cell)
		}
	}
	for _, v := range variants {
		rep.AddSeries(v, cells[v])
	}
	return rep
}

// enumEffectSeries drives the Figure 13 grids.
func enumEffectSeries(r *Runner, rep *Report, name string, ks []int, rvs []float64, permille bool, fixedK int, fixedR float64) {
	variants := []string{"AdvEnum-O", "AdvEnum-P", "AdvEnum"}
	cells := make(map[string][]string)
	if ks != nil {
		for _, k := range ks {
			rep.Xs = append(rep.Xs, fmt.Sprintf("%d", k))
			for _, v := range variants {
				cell, _ := r.timedEnum(name, k, fixedR, permille, EnumVariant(v))
				cells[v] = append(cells[v], cell)
			}
		}
	} else {
		for _, rv := range rvs {
			rep.Xs = append(rep.Xs, fmt.Sprintf("%g", rv))
			for _, v := range variants {
				cell, _ := r.timedEnum(name, fixedK, rv, permille, EnumVariant(v))
				cells[v] = append(cells[v], cell)
			}
		}
	}
	for _, v := range variants {
		rep.AddSeries(v, cells[v])
	}
}

// Fig13a: effect of k for enumeration on Gowalla, r=100km.
func Fig13a(r *Runner) *Report {
	rep := &Report{ID: "fig13a", Title: "Figure 13(a): enumeration vs k, Gowalla r=100km", XLabel: "k"}
	enumEffectSeries(r, rep, "gowalla", []int{5, 6, 7, 8, 9, 10}, nil, false, 0, 100)
	return rep
}

// Fig13b: effect of r for enumeration on DBLP, k=15.
func Fig13b(r *Runner) *Report {
	rep := &Report{ID: "fig13b", Title: "Figure 13(b): enumeration vs r, DBLP k=15", XLabel: "r (top permille)"}
	enumEffectSeries(r, rep, "dblp", nil, []float64{1, 3, 5, 7, 9, 11, 13, 15}, true, 15, 0)
	return rep
}

// maxEffectSeries drives the Figure 14 grids.
func maxEffectSeries(r *Runner, rep *Report, name string, ks []int, rvs []float64, permille bool, fixedK int, fixedR float64) {
	variants := []string{"AdvMax-O", "AdvMax-UB", "AdvMax"}
	cells := make(map[string][]string)
	if ks != nil {
		for _, k := range ks {
			rep.Xs = append(rep.Xs, fmt.Sprintf("%d", k))
			for _, v := range variants {
				cell, _ := r.timedMax(name, k, fixedR, permille, MaxVariant(v))
				cells[v] = append(cells[v], cell)
			}
		}
	} else {
		for _, rv := range rvs {
			rep.Xs = append(rep.Xs, fmt.Sprintf("%g", rv))
			for _, v := range variants {
				cell, _ := r.timedMax(name, fixedK, rv, permille, MaxVariant(v))
				cells[v] = append(cells[v], cell)
			}
		}
	}
	for _, v := range variants {
		rep.AddSeries(v, cells[v])
	}
}

// Fig14a: effect of k for the maximum search on Gowalla, r=100km.
func Fig14a(r *Runner) *Report {
	rep := &Report{ID: "fig14a", Title: "Figure 14(a): maximum search vs k, Gowalla r=100km", XLabel: "k"}
	maxEffectSeries(r, rep, "gowalla", []int{5, 6, 7, 8, 9, 10}, nil, false, 0, 100)
	return rep
}

// Fig14b: effect of r for the maximum search on DBLP, k=15.
func Fig14b(r *Runner) *Report {
	rep := &Report{ID: "fig14b", Title: "Figure 14(b): maximum search vs r, DBLP k=15", XLabel: "r (top permille)"}
	maxEffectSeries(r, rep, "dblp", nil, []float64{1, 3, 5, 7, 9, 11, 13, 15}, true, 15, 0)
	return rep
}
