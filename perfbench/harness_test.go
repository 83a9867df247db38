package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"krcore"
	"krcore/internal/dataset"
	"krcore/internal/metrics"
	"krcore/internal/updates"
)

func TestSameSeedSameSettings(t *testing.T) {
	const r0 = 0.35
	a := sweepSettings(subRandSeed(7, 1), r0, 500)
	b := sweepSettings(subRandSeed(7, 1), r0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two settings lists")
	}
	if reflect.DeepEqual(a, sweepSettings(subRandSeed(8, 1), r0, 500)) {
		t.Fatal("two seeds gave the same settings list")
	}
	seen := map[setting]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("setting %+v listed twice", s)
		}
		seen[s] = true
		if s.k < 4 || s.k > 10 || s.r < 0.7*r0 || s.r > 1.3*r0 {
			t.Fatalf("setting %+v out of range", s)
		}
		if s.k == coldHotK && s.r == r0 {
			t.Fatal("the hot setting is listed as a new one")
		}
	}
}

func TestSameUpdateStream(t *testing.T) {
	stream := func() []krcore.Update {
		d, err := dataset.Load(servingDataset)
		if err != nil {
			t.Fatal(err)
		}
		return updates.Random(d, 2000, updateStreamSeed)
	}
	if !reflect.DeepEqual(stream(), stream()) {
		t.Fatal("two runs got two update streams")
	}
}

func testMix(seed int64) *readMix {
	return &readMix{
		rng:   rand.New(rand.NewSource(subRandSeed(seed, 2))),
		cores: [][]int32{{1, 2, 3}, {4, 5}, {6}},
		n:     100,
	}
}

func reads(seed int64) []op {
	return readSchedule(rand.New(rand.NewSource(subRandSeed(seed, 1))), testMix(seed), 600, 2*time.Second)
}

func writes(seed int64, firstSeq int) []op {
	return writeSchedule(rand.New(rand.NewSource(subRandSeed(seed, 3))), 600.0/9, 2*time.Second, firstSeq)
}

func TestSameSeedSameSchedule(t *testing.T) {
	if !reflect.DeepEqual(reads(5), reads(5)) || !reflect.DeepEqual(writes(5, 0), writes(5, 0)) {
		t.Fatal("the same seed gave two arrival schedules")
	}
	if reflect.DeepEqual(reads(5), reads(6)) || reflect.DeepEqual(writes(5, 0), writes(6, 0)) {
		t.Fatal("two seeds gave the same arrival schedule")
	}
	for _, ops := range [][]op{reads(5), writes(5, 3)} {
		for i, o := range ops {
			if i > 0 && o.at < ops[i-1].at {
				t.Fatal("schedule out of time order")
			}
			if o.at < 0 || o.at >= 2*time.Second {
				t.Fatalf("arrival at %v outside the 2s phase", o.at)
			}
		}
	}
	// Writes take consecutive stream positions from the first one given.
	w := writes(5, 3)
	for i, o := range w {
		if o.kind != opWrite || o.seq != 3+i {
			t.Fatalf("write %d: kind %s, stream position %d", i, kindNames[o.kind], o.seq)
		}
	}
	// Poisson arrivals at 600/s over 2s, writes at one per nine reads.
	if n := len(reads(5)); n < 1050 || n > 1350 {
		t.Fatalf("%d reads in 2s at 600/s", n)
	}
	if n := len(w); n < 90 || n > 180 {
		t.Fatalf("%d writes in 2s at 66.7/s", n)
	}
}

func TestReadMix(t *testing.T) {
	var kinds [numKinds]int
	mix := testMix(1)
	for i := 0; i < 10000; i++ {
		o := mix.next()
		kinds[o.kind]++
		if o.kind == opContaining && (o.v < 0 || o.v >= 100) {
			t.Fatalf("vertex %d out of range", o.v)
		}
	}
	for k, want := range map[opKind]int{opEnumerate: 4000, opContaining: 4000, opMaximum: 2000} {
		if got := kinds[k]; math.Abs(float64(got-want)) > 300 {
			t.Errorf("%s: %d of 10000, want about %d", kindNames[k], got, want)
		}
	}
	if kinds[opWrite] != 0 {
		t.Error("the read mix drew a write")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %g, want %g", c.q*100, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 || percentile([]float64{7}, 0.99) != 7 {
		t.Error("empty or single-sample percentile")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 || mean([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("median or mean of 1..4")
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// 10 observations ≤1, 10 in (1,2], none in (2,4], none above.
	counts := []float64{10, 10, 0, 0}
	if got := bucketQuantile(bounds, counts, 0.5); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := bucketQuantile(bounds, counts, 0.75); got != 1.5 {
		t.Errorf("p75 = %g, want 1.5", got)
	}
	if got := bucketQuantile(bounds, []float64{0, 0, 0, 5}, 0.5); got != 4 {
		t.Errorf("overflow bucket = %g, want the top bound", got)
	}
	if got := bucketQuantile(bounds, make([]float64, 4), 0.5); got != 0 {
		t.Errorf("empty = %g, want 0", got)
	}
}

func TestAdmissionWait(t *testing.T) {
	// A scrape renders every bucket cumulatively; between the two
	// scrapes 100 waits fell at or below 50µs and 100 in (50µs, 100µs].
	scrape := func(low, mid float64, sum float64) map[string]float64 {
		m := map[string]float64{}
		for i, b := range metrics.DefLatencyBuckets() {
			cum := low + mid
			if i == 0 {
				cum = low
			}
			m[`krcored_admission_wait_seconds_bucket{le="`+strconv.FormatFloat(b, 'g', -1, 64)+`"}`] = cum
		}
		m[`krcored_admission_wait_seconds_bucket{le="+Inf"}`] = low + mid
		m["krcored_admission_wait_seconds_sum"] = sum
		m["krcored_admission_wait_seconds_count"] = low + mid
		return m
	}
	mean, p99 := admissionWait(scrape(10, 0, 0.0001), scrape(110, 100, 0.0151))
	if math.Abs(mean-0.075) > 1e-9 {
		t.Errorf("mean = %g ms, want 0.075", mean)
	}
	// Rank 198 of 200: the 98th of 100 in (0.05, 0.1] ms.
	if math.Abs(p99-0.099) > 1e-9 {
		t.Errorf("p99 = %g ms, want 0.099", p99)
	}
}

// fakeClock is a virtual clock: time moves only when a sender sleeps
// or a request is served.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	if t.After(c.t) {
		c.t = t
	}
	c.mu.Unlock()
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopCountsQueueingBehindAStall(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var ops []op
	for i := 0; i < 6; i++ {
		ops = append(ops, op{at: time.Duration(i) * time.Millisecond})
	}
	out := openLoop(clk, clk.Now(), ops, 1, func(i int) error {
		if i == 2 {
			clk.advance(10 * time.Millisecond) // the stall
		} else {
			clk.advance(500 * time.Microsecond)
		}
		return nil
	})
	// Ops 3, 4 and 5 were due at 3, 4 and 5 ms but could only be sent
	// once the stall ended at 12 ms; their latency counts that wait.
	want := []time.Duration{500, 500, 10000, 9500, 9000, 8500}
	for i, o := range out {
		if !o.done || o.lat != want[i]*time.Microsecond {
			t.Errorf("op %d: latency %v, want %v", i, o.lat, want[i]*time.Microsecond)
		}
		if o.lag != 0 {
			t.Errorf("op %d: generator lag %v on a punctual clock", i, o.lag)
		}
	}
	if out[3].svc != 500*time.Microsecond {
		t.Errorf("op 3: service time %v, want 500µs", out[3].svc)
	}
}

func TestOpenLoopLag(t *testing.T) {
	clk := &lateClock{fakeClock: fakeClock{t: time.Unix(0, 0)}, late: 200 * time.Microsecond}
	ops := []op{{at: 0}, {at: time.Millisecond}}
	out := openLoop(clk, clk.Now(), ops, 1, func(int) error {
		clk.advance(100 * time.Microsecond)
		return nil
	})
	for i, o := range out {
		if o.lag != 200*time.Microsecond || o.lat != 300*time.Microsecond {
			t.Errorf("op %d: lag %v latency %v, want 200µs and 300µs", i, o.lag, o.lat)
		}
	}
}

// lateClock oversleeps every wait by late, as a coarse timer does.
type lateClock struct {
	fakeClock
	late time.Duration
}

func (c *lateClock) SleepUntil(t time.Time) { c.fakeClock.SleepUntil(t.Add(c.late)) }

// TestCPUTime checks that the process CPU clock counts a spinning
// thread's time, that timedSetup reads it, and that the calibration
// kernel runs.
func TestCPUTime(t *testing.T) {
	spin := func() (int, error) {
		for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		}
		return 7, nil
	}
	p0 := cpuTime()
	spin()
	if p := cpuTime() - p0; p < 10*time.Millisecond {
		t.Errorf("after 50ms of spinning: process CPU %v", p)
	}
	v, s, err := timedSetup(spin)
	if v != 7 || err != nil || s < 0.01 {
		t.Errorf("timedSetup: %d, %v s, %v", v, s, err)
	}
	if c := calibrate(); c <= 0 || c > 10*refCalibrationMS {
		t.Errorf("calibration kernel took %v ms of CPU", c)
	}
}

func TestSpanTags(t *testing.T) {
	sp := newSpanTable(10)
	id, lim := sp.untag(krcore.Limits{MaxNodes: tagBase + 7})
	if id != 7 || lim.MaxNodes != 0 {
		t.Errorf("tagged: id %d, max nodes %d", id, lim.MaxNodes)
	}
	id, lim = sp.untag(krcore.Limits{MaxNodes: 500})
	if id != -1 || lim.MaxNodes != 500 {
		t.Errorf("untagged: id %d, max nodes %d", id, lim.MaxNodes)
	}
	sp.record(7, time.Millisecond)
	sp.record(-1, time.Second)
	if sp.get(7) != time.Millisecond {
		t.Error("span not recorded")
	}
}

func TestGitHead(t *testing.T) {
	const (
		loose  = "1111111111111111111111111111111111111111"
		packed = "2222222222222222222222222222222222222222"
	)
	write := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	if got := gitHead(root); got != "unknown" {
		t.Errorf("not a repository: %q", got)
	}
	git := filepath.Join(root, ".git")
	write(filepath.Join(git, "HEAD"), "ref: refs/heads/main\n")
	write(filepath.Join(git, "packed-refs"), "# pack-refs with: peeled fully-peeled sorted\n"+
		packed+" refs/heads/main\n"+loose+" refs/heads/other\n^"+loose+"\n")
	if got := gitHead(root); got != packed {
		t.Errorf("packed ref: %q, want %q", got, packed)
	}
	write(filepath.Join(git, "refs", "heads", "main"), loose+"\n")
	if got := gitHead(root); got != loose {
		t.Errorf("loose ref: %q, want %q", got, loose)
	}
	write(filepath.Join(git, "HEAD"), packed+"\n")
	if got := gitHead(root); got != packed {
		t.Errorf("detached HEAD: %q, want %q", got, packed)
	}
	// A linked work tree: .git is a file, refs are in the common dir.
	wt := filepath.Join(root, "wt")
	wtGit := filepath.Join(git, "worktrees", "wt")
	write(filepath.Join(wt, ".git"), "gitdir: "+wtGit+"\n")
	write(filepath.Join(wtGit, "HEAD"), "ref: refs/heads/other\n")
	write(filepath.Join(wtGit, "commondir"), "../..\n")
	if got := gitHead(wt); got != loose {
		t.Errorf("linked work tree: %q, want %q", got, loose)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads
// this program reports.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d reported", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: declared %+v, reported %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
