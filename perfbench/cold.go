package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"krcore"
	"krcore/internal/core"
	"krcore/internal/dataset"
	"krcore/internal/kcore"
	"krcore/internal/simindex"
)

// The cold-sweep workload queries a long-lived Engine over the dblp
// preset in process, with no HTTP, from one caller in a closed loop:
// each new setting once, each followed by one query at the warmed hot
// setting.
const (
	coldDataset = "dblp"
	coldHotK    = 5
	// sweepLen bounds the new settings one run can query.
	sweepLen = 20000
	// heapAt is the number of new settings after which a round reads
	// the live heap: a fixed count, so the figure is the cost of that
	// many cached settings however fast the host is.
	heapAt = 48
	// stageTolerancePct is how far, in percent of the median untraced
	// cold latency, the median sum of the replayed cold-path stages may
	// stray before the traced run counts the stage breakdown as wrong.
	stageTolerancePct = 50
)

// coldState is what set-up builds: the dataset, its default threshold
// and an engine with the hot setting warmed.
type coldState struct {
	d   *dataset.Dataset
	r0  float64
	eng *krcore.Engine
}

func setupCold() (*coldState, error) {
	d, err := dataset.Load(coldDataset)
	if err != nil {
		return nil, err
	}
	r0, err := d.DefaultThreshold()
	if err != nil {
		return nil, err
	}
	eng := krcore.NewEngine(d.Graph, d.Metric())
	if err := eng.Warm(coldHotK, r0); err != nil {
		return nil, err
	}
	return &coldState{d: d, r0: r0, eng: eng}, nil
}

// sweepSettings returns n distinct settings with k in [4,10] and r in
// [0.7, 1.3] × r0, in a seeded order.
func sweepSettings(seed int64, r0 float64, n int) []setting {
	rng := rand.New(rand.NewSource(seed))
	seen := map[setting]bool{}
	out := make([]setting, 0, n)
	for len(out) < n {
		s := setting{k: 4 + rng.Intn(7), r: r0 * (0.7 + 0.6*rng.Float64())}
		if (s.k == coldHotK && s.r == r0) || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// coldStages are the timings of one cold setting replayed stage by
// stage, and whether its answer matched the engine's.
type coldStages struct {
	build, filter, prepare, search, peel time.Duration
	kept                                 float64 // filtered edges ÷ edges
	components                           int
	nodes                                int64
	same                                 bool
}

func (c coldStages) sum() time.Duration { return c.build + c.filter + c.prepare + c.search }

// replayCold runs the cold path of one setting stage by stage through
// the layers' own entry points — index build, dissimilar-edge filter,
// preparation, maximum search — and compares the answer with want. The
// k-core peel is timed beside the path, not on it: preparation peels
// inside, and this measures what that peel costs alone.
func replayCold(st *coldState, s setting, want *krcore.Result) (coldStages, error) {
	var c coldStages
	o := krcore.NewOracle(st.d.Metric(), s.r)
	t0 := time.Now()
	simindex.For(o)
	t1 := time.Now()
	filtered := core.FilterDissimilar(st.d.Graph, o)
	t2 := time.Now()
	pr, err := core.PrepareFiltered(filtered, core.Params{K: s.k, Oracle: o})
	if err != nil {
		return c, err
	}
	t3 := time.Now()
	res, err := pr.FindMaximum(core.MaxOptions{})
	if err != nil {
		return c, err
	}
	t4 := time.Now()
	kcore.Decompose32(filtered)
	c.peel = time.Since(t4)
	c.build, c.filter, c.prepare, c.search = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	c.kept = ratio(float64(filtered.M()), float64(st.d.Graph.M()))
	c.components = pr.Components()
	c.nodes = res.Nodes
	c.same = res.Nodes == want.Nodes && sameCores(res.Cores, want.Cores)
	return c, nil
}

// isKRCore reports whether members form a (k,r)-core of the engine's
// graph at threshold r: connected, every member with at least k
// neighbours inside, every pair similar.
func isKRCore(st *coldState, s setting, members []int32) bool {
	g := st.d.Graph
	if len(members) == 0 {
		return true
	}
	if !g.IsConnectedSubset(members) {
		return false
	}
	in := make([]bool, g.N())
	for _, v := range members {
		in[v] = true
	}
	o := krcore.NewOracle(st.d.Metric(), s.r)
	for i, u := range members {
		if g.DegreeWithin(u, in) < s.k {
			return false
		}
		for _, v := range members[i+1:] {
			if !o.Similar(u, v) {
				return false
			}
		}
	}
	return true
}

func runColdSweep(ctx context.Context, rc runConfig) (*measurement, error) {
	st, setupS, err := timedSetup(setupCold)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	hot := setting{k: coldHotK, r: st.r0}
	hotRef, err := st.eng.FindMaximum(hot.k, hot.r, krcore.MaxOptions{})
	if err != nil {
		return nil, err
	}
	list := sweepSettings(subRandSeed(rc.seed, 1), st.r0, sweepLen)

	var (
		cold, hotLat, gaps []float64
		coldRes            []*krcore.Result
		hotOK              []bool
		stages             []coldStages
		hotHits            int
		allocBytes         uint64
		heap               float64
	)
	m := newMeasurement()
	s0, m0, c0 := st.eng.Stats(), memStats(), cpuTime()
	start := time.Now()
	deadline := start.Add(rc.seconds)
	prevEnd := start
	for i := 0; i < len(list) && time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := list[i]
		var a0, a1 runtime.MemStats
		if rc.trace {
			a0 = memStats()
		}
		t0 := time.Now()
		res, err := st.eng.FindMaximum(s.k, s.r, krcore.MaxOptions{})
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("cold query k=%d r=%g: %w", s.k, s.r, err)
		}
		if rc.trace {
			a1 = memStats()
			allocBytes += a1.TotalAlloc - a0.TotalAlloc
			c, err := replayCold(st, s, res)
			if err != nil {
				return nil, err
			}
			stages = append(stages, c)
		}
		var h0 krcore.EngineStats
		if rc.trace {
			h0 = st.eng.Stats()
			a0 = memStats()
		}
		t2 := time.Now()
		hres, err := st.eng.FindMaximum(hot.k, hot.r, krcore.MaxOptions{})
		t3 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("hot query: %w", err)
		}
		if rc.trace {
			a1 = memStats()
			allocBytes += a1.TotalAlloc - a0.TotalAlloc
			if st.eng.Stats().Hits-h0.Hits == 1 {
				hotHits++
			}
		}
		gaps = append(gaps, ms(t0.Sub(prevEnd)))
		prevEnd = t3
		cold = append(cold, ms(t1.Sub(t0)))
		hotLat = append(hotLat, ms(t3.Sub(t2)))
		coldRes = append(coldRes, res)
		hotOK = append(hotOK, !hres.TimedOut && hres.Nodes == hotRef.Nodes && sameCores(hres.Cores, hotRef.Cores))
		if len(coldRes) == heapAt {
			// The collection this takes is kept off the clocks.
			t, c := time.Now(), cpuTime()
			heap = liveHeapMiB()
			pause := time.Since(t)
			start, deadline, prevEnd = start.Add(pause), deadline.Add(pause), prevEnd.Add(pause)
			c0 += cpuTime() - c
		}
	}
	elapsed := time.Since(start)
	s1, m1, cpu := st.eng.Stats(), memStats(), cpuTime()-c0

	// Check every answer: each cold answer is a (k,r)-core, each hot
	// answer equals the one computed before the clock started, and in the
	// traced run each staged answer equals the engine's.
	var wrong int64
	for i, res := range coldRes {
		if res.TimedOut || len(res.Cores) > 1 || len(res.Cores) == 1 && !isKRCore(st, list[i], res.Cores[0]) {
			wrong++
		}
		if !hotOK[i] {
			wrong++
		}
	}
	n := len(coldRes)
	m.attempted = int64(2 * n)

	if !rc.trace {
		m.set("setup_s", setupS)
		m.set("read_p50_ms", median(hotLat))
		m.set("op_p50_ms", median(cold))
		m.set("op_p95_ms", percentile(cold, 0.95))
		m.set("cpu_ms_per_op", ratio(ms(cpu), float64(n)))
		m.set("alloc_kb_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(n)))
		if len(coldRes) < heapAt {
			heap = liveHeapMiB()
			runtime.KeepAlive(st)
		}
		m.set("heap_mb", heap)
		m.note("%d new settings, each followed by one hot query, in %v", n, elapsed.Round(time.Millisecond))
	} else {
		var build, filter, prepare, search, peel, sum, kept, comps, nodes []float64
		for _, c := range stages {
			if !c.same {
				wrong++
			}
			build = append(build, ms(c.build))
			filter = append(filter, ms(c.filter))
			prepare = append(prepare, ms(c.prepare))
			search = append(search, ms(c.search))
			peel = append(peel, ms(c.peel))
			sum = append(sum, ms(c.sum()))
			kept = append(kept, c.kept)
			comps = append(comps, float64(c.components))
			nodes = append(nodes, float64(c.nodes))
		}
		m.attempted += int64(len(stages)) + 1
		overhead := 100 * ratio(median(sum)-median(cold), median(cold))
		if overhead > stageTolerancePct || overhead < -stageTolerancePct {
			wrong++
		}
		m.set("simindex.build_ms.p50", median(build))
		m.set("simgraph.filter_ms.p50", median(filter))
		m.set("simgraph.kept_edge_ratio", mean(kept))
		m.set("core.prepare_ms.p50", median(prepare))
		m.set("core.prepare_ms.p95", percentile(prepare, 0.95))
		m.set("core.prepare_components", mean(comps))
		m.set("kcore.peel_ms.p50", median(peel))
		m.set("core.search_ms.maximum.p50", median(search))
		m.set("core.search_ms.maximum.p99", percentile(search, 0.99))
		m.set("core.search_nodes.maximum", mean(nodes))
		m.set("krcore.cache_hit_ratio", ratio(float64(s1.Hits-s0.Hits), float64(s1.Hits-s0.Hits+s1.Misses-s0.Misses)))
		m.set("krcore.hot_hit_ratio", ratio(float64(hotHits), float64(n)))
		m.set("krcore.cached_settings", float64(s1.Prepared))
		m.set("go.alloc_mb_per_setting", ratio(float64(allocBytes)/(1<<20), float64(n)))
		m.set("go.gc_per_kop", 1000*ratio(float64(m1.NumGC-m0.NumGC), float64(2*n)))
		m.set("bench.gen_lag_p99_ms", percentile(gaps, 0.99))
		m.set("bench.trace_overhead_pct", overhead)
		m.note("%d new settings replayed stage by stage; stage sum p50 %.3f ms vs untraced cold p50 %.3f ms",
			n, median(sum), median(cold))
	}
	m.failed = wrong
	m.note("failed: %d wrong answers", wrong)
	return m, nil
}
