package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"time"

	"krcore"
	"krcore/api"
	"krcore/client"
	"krcore/internal/dataset"
	"krcore/internal/metrics"
	"krcore/internal/updates"
	"krcore/server"
)

// The warm-read and mixed-write workloads serve the brightkite preset
// over HTTP from this process, the way cmd/soak self-hosts, and drive
// it from the same process with an open loop.
const (
	servingDataset = "brightkite"
	// readRate is the open loop's read arrival rate per second, about a
	// third of what two CPUs saturate at.
	readRate = 600.0
	// writeEvery makes every tenth request a write: one per nine reads.
	writeEvery = 10
	// streamLen bounds the writes one round can issue.
	streamLen = 40000
	// updateStreamSeed fixes the update stream, as the preset's own seed
	// fixes the dataset. The stream erodes the planted communities the
	// hot settings' cores come from, so read cost depends on which
	// updates have been applied; one stream for every workload seed keeps
	// that drift the same from run to run.
	updateStreamSeed = 101
)

// hotKs are the engagement thresholds of the hot settings, all at the
// dataset's default r. Mixed-write also warms the other thresholds of
// writeThresholds, so every attribute write rebuilds all their indexes.
var (
	hotKs           = []int{4, 5, 6}
	writeThresholds = []float64{6, 7, 8, 9, 11, 12, 13}
)

// errWrongAnswer marks a response that differs from the expected one.
var errWrongAnswer = errors.New("wrong answer")

// errTimedOut marks a response whose search hit a limit.
var errTimedOut = errors.New("search timed out")

type setting struct {
	k int
	r float64
}

// servingState is what set-up builds: the dataset, the dynamic engine
// with its warmed settings and, for writes, its fsynced journal.
type servingState struct {
	d       *dataset.Dataset
	eng     *krcore.DynamicEngine
	hotR    float64
	journal *updates.Journal
}

func (s *servingState) close() {
	if s.journal != nil {
		s.journal.Close()
	}
}

func setupServing(dir string, round int, writes bool) (*servingState, error) {
	d, err := dataset.Load(servingDataset)
	if err != nil {
		return nil, err
	}
	hotR, err := d.DefaultThreshold()
	if err != nil {
		return nil, err
	}
	attrs, err := updates.Attrs(d)
	if err != nil {
		return nil, err
	}
	eng, err := krcore.NewDynamicEngine(d.Graph, attrs)
	if err != nil {
		return nil, err
	}
	rs := []float64{hotR}
	if writes {
		rs = append(rs, writeThresholds...)
	}
	for _, r := range rs {
		for _, k := range hotKs {
			if err := eng.Warm(k, r); err != nil {
				return nil, err
			}
		}
	}
	st := &servingState{d: d, eng: eng, hotR: hotR}
	if writes {
		j, err := updates.OpenJournal(filepath.Join(dir, fmt.Sprintf("journal-%d.log", round)), d.Kind)
		if err != nil {
			return nil, err
		}
		eng.SetJournal(j)
		st.journal = j
	}
	return st, nil
}

// refKey names one read whose answer is known in advance.
type refKey struct {
	kind opKind
	set  int
	v    int32
}

// servingRun is one run's client side: the requests it sends, and what
// it checks them against.
type servingRun struct {
	c        *client.Client
	settings []setting
	stream   []krcore.Update
	applied  []bool // by stream position: the write was acknowledged
	refs     map[refKey]*krcore.Result
	spans    *spanTable // backend spans of tagged reads, by op index; nil in an untraced run
}

// tagged reports whether read i carries a trace tag: every other read
// of a traced run.
func (sr *servingRun) tagged(i int) bool { return sr.spans != nil && i%2 == 1 }

// read sends ops[i] and checks its answer. nodes[i] receives its
// search-node count.
func (sr *servingRun) read(ctx context.Context, ops []op, i int, nodes []int64) error {
	o := ops[i]
	c := sr.c
	s := sr.settings[o.set]
	var opts client.Options
	if sr.tagged(i) {
		opts.MaxNodes = tagBase + int64(i)
	}
	var resp *api.QueryResponse
	var err error
	switch o.kind {
	case opEnumerate:
		resp, err = c.Enumerate(ctx, s.k, s.r, opts)
	case opContaining:
		resp, err = c.EnumerateContaining(ctx, s.k, s.r, o.v, opts)
	default:
		resp, err = c.FindMaximum(ctx, s.k, s.r, opts)
	}
	if err != nil {
		return err
	}
	nodes[i] = resp.Nodes
	if resp.TimedOut {
		return errTimedOut
	}
	if sr.refs != nil {
		want := sr.refs[refKey{o.kind, o.set, o.v}]
		if want == nil || want.Nodes != resp.Nodes || !sameCores(want.Cores, resp.Cores) {
			return errWrongAnswer
		}
	}
	return nil
}

// write sends one update of the stream. The one writer sends writes in
// stream order.
func (sr *servingRun) write(ctx context.Context, o op) error {
	_, err := sr.c.ApplyBatch(ctx, []krcore.Update{sr.stream[o.seq]})
	if err == nil {
		sr.applied[o.seq] = true
	}
	return err
}

// withWriter runs load while one sender of its own sends writes at
// their scheduled times from start, in order, and returns the writes'
// phase once both are done. Writes never wait for a read sender, and no
// read sender waits for a write, so the reads feel the writes only
// through the server and the engine.
func (sr *servingRun) withWriter(ctx context.Context, start time.Time, writes []op, load func()) *phase {
	wp := &phase{ops: writes}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wp.out = openLoop(wallClock{}, start, writes, 1, func(i int) error { return sr.write(ctx, writes[i]) })
	}()
	load()
	<-done
	wp.elapsed = time.Since(start)
	return wp
}

// sameCores reports whether two core lists are identical, treating nil
// and empty alike.
func sameCores(a, b [][]int32) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// phase is the outcome of one load phase's reads, or of its writes.
type phase struct {
	ops     []op
	out     []outcome
	nodes   []int64
	elapsed time.Duration
}

// fails tallies failed requests by cause.
type fails struct {
	busy, timedOut, wrong, other int64
	first                        error // the first failure, for the report
}

func (f *fails) total() int64 { return f.busy + f.timedOut + f.wrong + f.other }

func (f *fails) add(err error) {
	if err != nil && f.first == nil {
		f.first = err
	}
	switch {
	case err == nil:
	case client.IsBusy(err):
		f.busy++
	case errors.Is(err, errTimedOut):
		f.timedOut++
	case errors.Is(err, errWrongAnswer):
		f.wrong++
	default:
		f.other++
	}
}

// latencies returns the latencies in ms of the sent requests.
func (p *phase) latencies() []float64 {
	var xs []float64
	for _, o := range p.out {
		if o.done {
			xs = append(xs, ms(o.lat))
		}
	}
	return xs
}

func (p *phase) sent() int64 {
	n := int64(0)
	for _, o := range p.out {
		if o.done {
			n++
		}
	}
	return n
}

func (p *phase) tally(f *fails) {
	for _, o := range p.out {
		if o.done {
			f.add(o.err)
		}
	}
}

// runServing runs warm-read (writes false) or mixed-write (writes true).
func runServing(ctx context.Context, rc runConfig, writes bool) (*measurement, error) {
	st, setupS, err := timedSetup(func() (*servingState, error) { return setupServing(rc.scratch, rc.round, writes) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	runtime.GC()

	settings := make([]setting, len(hotKs))
	cores := make([][]int32, len(hotKs))
	for i, k := range hotKs {
		settings[i] = setting{k, st.hotR}
		res, err := st.eng.Enumerate(k, st.hotR, krcore.EnumOptions{})
		if err != nil {
			return nil, err
		}
		cores[i] = coreVertices(res.Cores)
	}

	// Inputs, all from the seed: the read schedule and, in mixed-write,
	// the writes, which arrive on a schedule of their own.
	readRng := rand.New(rand.NewSource(subRandSeed(rc.seed, 1)))
	mix := &readMix{rng: rand.New(rand.NewSource(subRandSeed(rc.seed, 2))), cores: cores, n: st.d.Graph.N()}
	open := readSchedule(readRng, mix, readRate, rc.seconds)
	var openW []op
	writeRate := 0.0
	if writes {
		writeRate = readRate / (writeEvery - 1)
		openW = writeSchedule(rand.New(rand.NewSource(subRandSeed(rc.seed, 3))), writeRate, rc.seconds, 0)
	}
	sr := &servingRun{settings: settings}
	if writes {
		sr.stream = writableStream(updates.Random(st.d, streamLen, updateStreamSeed))
		if len(openW) > len(sr.stream) {
			return nil, fmt.Errorf("%d writes exceed the %d-update stream", len(openW), len(sr.stream))
		}
		sr.applied = make([]bool, len(sr.stream))
	} else if sr.refs, err = referenceAnswers(st.eng, settings, open); err != nil {
		return nil, err
	}

	// Serve the engine over loopback. A traced run serves it through the
	// tracing decorator and tags every other read. Untagged reads pass
	// through the decorator unrecorded, so both halves share one server
	// and one engine state, and the difference of their latencies is the
	// tracing overhead.
	var backend server.Backend = st.eng
	var traced *tracedEngine
	tj := &tracedJournal{j: st.journal}
	if rc.trace {
		traced = &tracedEngine{DynamicEngine: st.eng, spans: newSpanTable(len(open))}
		backend = traced
		sr.spans = traced.spans
		if st.journal != nil {
			st.eng.SetJournal(tj)
		}
	}
	srv, err := server.New(backend, server.Config{Dataset: servingDataset})
	if err != nil {
		return nil, err
	}
	st.eng.SetCommitObserver(srv.ObserveGroupCommit)
	if st.journal != nil {
		st.journal.SetAppendObserver(srv.ObserveJournalAppend)
	}
	base, hc, shutdown, err := serveLoopback(ctx, srv.Handler())
	if err != nil {
		return nil, err
	}
	defer shutdown()
	sr.c = client.New(base, client.WithHTTPClient(hc))

	m := newMeasurement()
	var f fails
	s0, ds0, ss0, m0 := st.eng.Stats(), st.eng.DynamicStats(), hotSettingStats(st.eng, settings), memStats()
	var pre string
	if rc.trace {
		if pre, err = sr.c.Metrics(ctx); err != nil {
			return nil, err
		}
	}
	ph := &phase{ops: open, nodes: make([]int64, len(open))}
	c0 := cpuTime()
	t0 := time.Now()
	wph := sr.withWriter(ctx, t0, openW, func() {
		ph.out = openLoop(wallClock{}, t0, open, rc.workers, func(i int) error { return sr.read(ctx, open, i, ph.nodes) })
		ph.elapsed = time.Since(t0)
	})
	cpu := cpuTime() - c0
	s1, ds1, ss1, m1 := st.eng.Stats(), st.eng.DynamicStats(), hotSettingStats(st.eng, settings), memStats()
	ph.tally(&f)
	wph.tally(&f)
	sent := ph.sent() + wph.sent()
	m.attempted = sent
	m.note("open loop: %d reads at %.0f/s and %d writes at %.1f/s in %v",
		len(open), readRate, len(openW), writeRate, ph.elapsed.Round(time.Millisecond))

	if !rc.trace {
		reads := ph.latencies()
		opLat := reads
		if writes {
			opLat = wph.latencies()
		}
		m.set("setup_s", setupS)
		m.set("read_p50_ms", median(reads))
		m.set("read_p99_ms", percentile(reads, 0.99))
		m.set("op_p50_ms", median(opLat))
		m.set("op_p95_ms", percentile(opLat, 0.95))
		m.set("cpu_ms_per_op", ratio(ms(cpu), float64(sent)))
		m.set("alloc_kb_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(sent)))
	} else {
		post, err := sr.c.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		layerServing(m, ph, sr, traced, tj, writes)
		var lags []float64
		for _, o := range append(ph.out, wph.out...) {
			lags = append(lags, ms(o.lag))
		}
		m.set("bench.gen_lag_p99_ms", percentile(lags, 0.99))
		m.set("go.gc_per_kop", 1000*ratio(float64(m1.NumGC-m0.NumGC), float64(sent)))
		mean, p99 := admissionWait(client.ParseMetrics(pre), client.ParseMetrics(post))
		m.set("server.admission_wait_ms.mean", mean)
		m.set("server.admission_wait_ms.p99", p99)
		m.set("krcore.cached_settings", float64(s1.Prepared))
		if writes {
			// Engine.Stats hit and miss counts are lost across commits
			// (ROADMAP item 1), so they are not read under writes.
			m.set("krcore.cache_hit_ratio", -1)
			m.set("krcore.hot_hit_ratio", -1)
			nw := float64(wph.sent())
			m.set("simindex.rebuilds_per_write", ratio(float64(ds1.IndexesRebuilt-ds0.IndexesRebuilt), nw))
			m.set("core.components_rebuilt_per_write", ratio(float64(ds1.ComponentsRebuilt-ds0.ComponentsRebuilt), nw))
			reused, rebuilt := float64(ds1.ComponentsReused-ds0.ComponentsReused), float64(ds1.ComponentsRebuilt-ds0.ComponentsRebuilt)
			m.set("core.component_reuse_ratio", ratio(reused, reused+rebuilt))
			inc, full := float64(ds1.PatchesIncremental-ds0.PatchesIncremental), float64(ds1.PatchesFull-ds0.PatchesFull)
			m.set("core.patch_incremental_ratio", ratio(inc, inc+full))
			m.set("kcore.core_visited_per_write", ratio(float64(ds1.CoreVisited-ds0.CoreVisited), nw))
		} else {
			m.set("krcore.cache_hit_ratio", ratio(float64(s1.Hits-s0.Hits), float64(s1.Hits-s0.Hits+s1.Misses-s0.Misses)))
			hits, total := ss1.hits-ss0.hits, ss1.hits-ss0.hits+ss1.misses-ss0.misses
			m.set("krcore.hot_hit_ratio", ratio(float64(hits), float64(total)))
		}
	}

	if writes {
		checked, wrong, err := checkReplay(st.eng, sr, settings)
		if err != nil {
			return nil, err
		}
		m.attempted += checked
		f.wrong += wrong
		m.note("end check: %d hot-setting answers compared with a fresh engine replaying the %d applied writes, %d differ",
			checked, countApplied(sr.applied), wrong)
	}
	m.failed = f.total()
	m.note("failed: %d busy (429), %d timed out, %d wrong answers, %d errors", f.busy, f.timedOut, f.wrong, f.other)
	if f.first != nil {
		m.note("first failure: %v", f.first)
	}
	if !rc.trace {
		m.set("heap_mb", liveHeapMiB())
		runtime.KeepAlive(st)
	}
	return m, nil
}

// writableStream drops the self-loop edge updates the generator can
// emit when a new vertex befriends a random vertex that is itself; the
// engine rejects those by contract, and every write the benchmark sends
// must succeed.
func writableStream(ups []krcore.Update) []krcore.Update {
	out := ups[:0:0]
	for _, up := range ups {
		if (up.Op == krcore.OpAddEdge || up.Op == krcore.OpRemoveEdge) && up.U == up.V {
			continue
		}
		out = append(out, up)
	}
	return out
}

func countApplied(applied []bool) int {
	n := 0
	for _, a := range applied {
		if a {
			n++
		}
	}
	return n
}

// coreVertices returns the distinct vertices of the cores, ascending.
func coreVertices(cores [][]int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, c := range cores {
		for _, v := range c {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referenceAnswers computes in process, before the clock starts, the
// answer of every distinct read the run will send.
func referenceAnswers(eng *krcore.DynamicEngine, settings []setting, ops []op) (map[refKey]*krcore.Result, error) {
	refs := map[refKey]*krcore.Result{}
	for _, o := range ops {
		key := refKey{o.kind, o.set, o.v}
		if refs[key] != nil {
			continue
		}
		s := settings[o.set]
		var res *krcore.Result
		var err error
		switch o.kind {
		case opEnumerate:
			res, err = eng.Enumerate(s.k, s.r, krcore.EnumOptions{})
		case opContaining:
			res, err = eng.EnumerateContaining(s.k, s.r, o.v, krcore.EnumOptions{})
		default:
			res, err = eng.FindMaximum(s.k, s.r, krcore.MaxOptions{})
		}
		if err != nil {
			return nil, err
		}
		refs[key] = res
	}
	return refs, nil
}

// checkReplay compares every hot setting's answers on the served
// engine with those of a fresh engine that replays the applied prefix
// of the update stream in one batch. It returns the number of answers
// compared and how many differ.
func checkReplay(eng *krcore.DynamicEngine, sr *servingRun, settings []setting) (int64, int64, error) {
	var prefix []krcore.Update
	for i, a := range sr.applied {
		if a {
			prefix = append(prefix, sr.stream[i])
		}
	}
	d, err := dataset.Load(servingDataset)
	if err != nil {
		return 0, 0, err
	}
	attrs, err := updates.Attrs(d)
	if err != nil {
		return 0, 0, err
	}
	fresh, err := krcore.NewDynamicEngine(d.Graph, attrs)
	if err != nil {
		return 0, 0, err
	}
	if err := fresh.ApplyBatch(prefix); err != nil {
		return 0, 0, fmt.Errorf("replaying the applied writes: %w", err)
	}
	var checked, wrong int64
	for _, s := range settings {
		got, err1 := eng.Enumerate(s.k, s.r, krcore.EnumOptions{})
		want, err2 := fresh.Enumerate(s.k, s.r, krcore.EnumOptions{})
		checked++
		if err1 != nil || err2 != nil || !sameCores(got.Cores, want.Cores) {
			wrong++
		}
		gotMax, err1 := eng.FindMaximum(s.k, s.r, krcore.MaxOptions{})
		wantMax, err2 := fresh.FindMaximum(s.k, s.r, krcore.MaxOptions{})
		checked++
		if err1 != nil || err2 != nil || !sameCores(gotMax.Cores, wantMax.Cores) {
			wrong++
		}
	}
	return checked, wrong, nil
}

// settingTraffic sums the per-setting cache counts of the hot settings.
type settingTraffic struct{ hits, misses int64 }

func hotSettingStats(eng *krcore.DynamicEngine, settings []setting) settingTraffic {
	var t settingTraffic
	for _, ss := range eng.SettingsStats() {
		for _, s := range settings {
			if ss.K == s.k && ss.R == s.r {
				t.hits += ss.Hits
				t.misses += ss.Misses
			}
		}
	}
	return t
}

// layerServing sets the span-derived per-layer metrics of a traced
// serving phase, and the tracing overhead: the median latency of the
// tagged reads over that of the untagged ones.
func layerServing(m *measurement, ph *phase, sr *servingRun, traced *tracedEngine, tj *tracedJournal, writes bool) {
	var self, untaggedLat, taggedLat []float64
	var search, nodes [numKinds][]float64
	for i, o := range ph.out {
		k := ph.ops[i].kind
		if !o.done || o.err != nil {
			continue
		}
		if !sr.tagged(i) {
			untaggedLat = append(untaggedLat, ms(o.lat))
			continue
		}
		taggedLat = append(taggedLat, ms(o.lat))
		inner := traced.spans.get(i)
		self = append(self, ms(o.svc-inner))
		search[k] = append(search[k], ms(inner))
		nodes[k] = append(nodes[k], float64(ph.nodes[i]))
	}
	m.set("bench.trace_overhead_pct", 100*ratio(median(taggedLat)-median(untaggedLat), median(untaggedLat)))
	m.set("server.self_ms.p50", percentile(self, 0.5))
	m.set("server.self_ms.p99", percentile(self, 0.99))
	for k := opEnumerate; k < opWrite; k++ {
		m.set("core.search_ms."+kindNames[k]+".p50", percentile(search[k], 0.5))
		m.set("core.search_ms."+kindNames[k]+".p99", percentile(search[k], 0.99))
		m.set("core.search_nodes."+kindNames[k], mean(nodes[k]))
	}
	if !writes {
		return
	}
	commits := toMS(traced.commits.snapshot())
	appends := toMS(tj.appends.snapshot())
	var advance []float64
	for i := 0; i < len(commits) && i < len(appends); i++ {
		advance = append(advance, commits[i]-appends[i])
	}
	m.set("krcore.commit_ms.p50", percentile(commits, 0.5))
	m.set("krcore.commit_ms.p99", percentile(commits, 0.99))
	m.set("updates.journal_append_ms.p50", percentile(appends, 0.5))
	m.set("updates.journal_append_ms.p99", percentile(appends, 0.99))
	m.set("krcore.advance_ms.p50", percentile(advance, 0.5))
	m.set("krcore.advance_ms.p99", percentile(advance, 0.99))
}

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// admissionWait returns the mean and p99, in ms, of the server's
// admission-wait histogram between two /metrics scrapes. The p99 is
// interpolated inside its bucket exactly as the server's own quantile
// estimate is.
func admissionWait(pre, post map[string]float64) (mean, p99 float64) {
	const name = "krcored_admission_wait_seconds"
	bounds := metrics.DefLatencyBuckets()
	counts := make([]float64, len(bounds)+1)
	prevCum := 0.0
	for i := 0; i <= len(bounds); i++ {
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		series := name + `_bucket{le="` + le + `"}`
		cum := post[series] - pre[series]
		counts[i] = cum - prevCum
		prevCum = cum
	}
	n := post[name+"_count"] - pre[name+"_count"]
	mean = 1000 * ratio(post[name+"_sum"]-pre[name+"_sum"], n)
	return mean, 1000 * bucketQuantile(bounds, counts, 0.99)
}

// bucketQuantile estimates the q-quantile of a bucketed distribution
// (counts[i] observations at most bounds[i], the last count above every
// bound) by linear interpolation inside the bucket holding the rank.
func bucketQuantile(bounds, counts []float64, q float64) float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	cum := 0.0
	for i, c := range counts {
		prev := cum
		cum += c
		if cum < rank || c == 0 {
			continue
		}
		if i == len(bounds) {
			return bounds[len(bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		return lower + (bounds[i]-lower)*(rank-prev)/c
	}
	return bounds[len(bounds)-1]
}

// serveLoopback serves h on an ephemeral loopback port. It returns the
// base URL, an HTTP client that keeps a connection per sender open, and
// a shutdown func that closes the client's connections and waits for
// the server to stop.
func serveLoopback(ctx context.Context, h http.Handler) (string, *http.Client, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	hc := &http.Client{Transport: tr}
	shutdown := func() {
		tr.CloseIdleConnections()
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
		}
		<-errc
	}
	return "http://" + ln.Addr().String(), hc, shutdown, nil
}
