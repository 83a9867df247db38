package expr

import (
	"fmt"
	"runtime"
	"time"

	"krcore/internal/core"
	"krcore/internal/dataset"
)

// The parmax experiment goes beyond the paper's figures: it measures
// parallel AdvMax scaling across candidate components as a warm serving
// engine runs the search, on the same synthetic preset stand-ins as the
// paper reproduction. perfbench measures the rest of the serving stack.

// servingK is the engagement threshold of the parmax experiment (the
// paper's geo default).
const servingK = 5

// presetThreshold resolves a preset's default similarity threshold
// (DefaultR for geo presets, the top-permille calibration otherwise).
func presetThreshold(r *Runner, name string) float64 {
	cfg, err := dataset.Preset(name)
	if err != nil {
		panic(err)
	}
	if cfg.DefaultPermille > 0 {
		return r.Permille(name, cfg.DefaultPermille)
	}
	return cfg.DefaultR
}

// ParallelMax measures AdvMax scaling across candidate components: the
// search runs on a worker pool whose workers share the incumbent size
// atomically, so the (k,k')-core bound prunes globally.
func ParallelMax(r *Runner) *Report {
	rep := &Report{
		ID:     "parmax",
		Title:  "Parallel AdvMax: maximum search wall-clock vs workers (default r, k=5)",
		XLabel: "dataset",
		Xs:     dataset.PresetNames(),
	}
	workerGrid := []int{1, 2, 4, 8}
	cells := make(map[int][]string, len(workerGrid))
	var speed []string
	for _, name := range rep.Xs {
		d := r.Dataset(name)
		thr := presetThreshold(r, name)
		// Prepare once so every measurement times the search alone, as
		// a warm serving engine would run it.
		pr, err := core.Prepare(d.Graph, core.Params{K: servingK, Oracle: d.Oracle(thr)})
		if err != nil {
			panic(err)
		}
		var serial, best time.Duration
		for _, w := range workerGrid {
			res, err := pr.FindMaximum(core.MaxOptions{Parallelism: w, Limits: r.limits()})
			if err != nil {
				panic(err)
			}
			cells[w] = append(cells[w], fmtDuration(res.Elapsed, res.TimedOut))
			if res.TimedOut {
				continue // a truncated run must not enter the speedup ratio
			}
			if w == 1 {
				serial, best = res.Elapsed, res.Elapsed
			} else if best == 0 || res.Elapsed < best {
				best = res.Elapsed
			}
		}
		if serial > 0 && best > 0 {
			speed = append(speed, fmt.Sprintf("%.1fx", float64(serial)/float64(best)))
		} else {
			speed = append(speed, "-")
		}
	}
	for _, w := range workerGrid {
		rep.AddSeries(fmt.Sprintf("%d worker(s)", w), cells[w])
	}
	rep.AddSeries("best speedup", speed)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("measured with GOMAXPROCS=%d; below 2 the workers cannot run simultaneously",
			runtime.GOMAXPROCS(0)),
		"components are prepared once (warm engine); cells time the branch-and-bound search only",
		"workers share one incumbent, so the size bound prunes across components;",
		"scaling also needs several comparable components — the synthetic presets concentrate",
		"most search work in one dominant component, which bounds the achievable speedup")
	return rep
}
