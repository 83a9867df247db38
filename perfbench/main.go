// Command perfbench is krcore's benchmark: one command per workload
// that builds its inputs from a seed, measures for a fixed time,
// checks every answer, and prints the workload's metrics by name and
// unit. See README.md for the workloads, the metrics and what each
// per-layer metric should move.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no tracing. With --trace 1 it carries the per-layer metrics,
// recorded by spans this package wraps around calls into each layer.
// The last line of standard output is the result as one JSON object;
// the lines before it stamp the run (host CPUs, GOMAXPROCS, Go
// version, commit, workload and seed) and repeat the metrics as a
// table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run. Every workload reports
// all of them. The two times are CPU times at the reference CPU speed,
// which a busy shared host moves far less than wall-clock ones (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// cpuScaled names the metrics that are CPU times, which runRounds
// rescales to the reference CPU speed.
var cpuScaled = []string{"setup_s", "cpu_ms_per_op"}

// shown lists the wall-clock latencies an untraced run prints above its
// result but not in it, so they carry no bound: "op" is the operation
// the workload exists to measure (warm-read: a read, mixed-write: a
// write, cold-sweep: the first query at a new setting), "read" a query
// at a warmed setting. They move with the shared host: over ten runs of
// the same code the middle half of their values spread over up to three
// fifths of their median. calibration_ms, the last, is calibrate's
// figure, by which the CPU times were rescaled.
var shown = []metricDef{
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"calibration_ms", "ms", "lower"},
}

// perLayer lists the metrics of a traced run. Every workload reports
// all of them; a layer that does no work in a workload reports 0, and
// a metric the workload deliberately does not read reports -1.
var perLayer = []metricDef{
	{"server.self_ms.p50", "ms", "lower"},
	{"server.self_ms.p99", "ms", "lower"},
	{"server.admission_wait_ms.mean", "ms", "lower"},
	{"server.admission_wait_ms.p99", "ms", "lower"},
	{"core.search_ms.enumerate.p50", "ms", "lower"},
	{"core.search_ms.enumerate.p99", "ms", "lower"},
	{"core.search_ms.containing.p50", "ms", "lower"},
	{"core.search_ms.containing.p99", "ms", "lower"},
	{"core.search_ms.maximum.p50", "ms", "lower"},
	{"core.search_ms.maximum.p99", "ms", "lower"},
	{"core.search_nodes.enumerate", "count", "lower"},
	{"core.search_nodes.containing", "count", "lower"},
	{"core.search_nodes.maximum", "count", "lower"},
	{"krcore.cache_hit_ratio", "ratio", "higher"},
	{"krcore.hot_hit_ratio", "ratio", "higher"},
	{"krcore.cached_settings", "count", "lower"},
	{"krcore.commit_ms.p50", "ms", "lower"},
	{"krcore.commit_ms.p99", "ms", "lower"},
	{"krcore.advance_ms.p50", "ms", "lower"},
	{"krcore.advance_ms.p99", "ms", "lower"},
	{"updates.journal_append_ms.p50", "ms", "lower"},
	{"updates.journal_append_ms.p99", "ms", "lower"},
	{"simindex.rebuilds_per_write", "count", "lower"},
	{"core.components_rebuilt_per_write", "count", "lower"},
	{"core.component_reuse_ratio", "ratio", "higher"},
	{"core.patch_incremental_ratio", "ratio", "higher"},
	{"kcore.core_visited_per_write", "count", "lower"},
	{"simindex.build_ms.p50", "ms", "lower"},
	{"simgraph.filter_ms.p50", "ms", "lower"},
	{"simgraph.kept_edge_ratio", "ratio", "lower"},
	{"core.prepare_ms.p50", "ms", "lower"},
	{"core.prepare_ms.p95", "ms", "lower"},
	{"core.prepare_components", "count", "lower"},
	{"kcore.peel_ms.p50", "ms", "lower"},
	{"go.gc_per_kop", "count", "lower"},
	{"go.alloc_mb_per_setting", "MiB", "lower"},
	{"bench.gen_lag_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// runConfig is one round's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workers int    // reads in flight at most: one per CPU
	scratch string // directory for the run's files, removed at exit
	round   int
}

// roundTime is the length of one round. The host's speed drifts on a
// scale of seconds, so a run is many short rounds, and the median of
// their figures is steadier than one long measurement.
const roundTime = 3 * time.Second

// runRounds splits the run into rounds that share its time evenly. Each
// round sets up from scratch, draws its own inputs from the run's seed
// and measures. Every metric is the median across rounds, so a stall
// on the host that spoils a few rounds' tails moves no reported figure.
// An untraced round is calibrated before and after, and its CPU times
// are rescaled by the calibration's mean to the reference CPU speed.
func runRounds(ctx context.Context, w workload, rc runConfig) (*measurement, error) {
	n := max(1, int(rc.seconds/roundTime))
	rounds := make([]*measurement, 0, n)
	for r := 0; r < n; r++ {
		rrc := rc
		rrc.seconds = rc.seconds / time.Duration(n)
		rrc.seed = subRandSeed(rc.seed, 1000+int64(r))
		rrc.round = r
		var before float64
		if !rc.trace {
			before = calibrate()
		}
		m, err := w.run(ctx, rrc)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		if !rc.trace {
			cal := (before + calibrate()) / 2
			m.set("calibration_ms", cal)
			for _, name := range cpuScaled {
				m.set(name, m.values[name]*refCalibrationMS/cal)
			}
		}
		rounds = append(rounds, m)
	}
	out := newMeasurement()
	for r, m := range rounds {
		out.attempted += m.attempted
		out.failed += m.failed
		for _, n := range m.notes {
			out.note("round %d: %s", r, n)
		}
	}
	for _, d := range slices.Concat(endToEnd, shown, perLayer) {
		var xs []float64
		for _, m := range rounds {
			if v, ok := m.values[d.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			out.set(d.name, median(xs))
			out.note("%s by round: %s", d.name, strings.Trim(fmt.Sprint(xs), "[]"))
		}
	}
	out.note("each metric is the median of %d rounds", n)
	return out, nil
}

// measurement is what a workload reports.
type measurement struct {
	attempted, failed int64
	values            map[string]float64
	// notes are human-readable lines printed above the result, such as
	// failure breakdowns and the load each round offered.
	notes []string
}

func newMeasurement() *measurement { return &measurement{values: map[string]float64{}} }

func (m *measurement) set(name string, v float64) { m.values[name] = v }

func (m *measurement) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig) (*measurement, error)
}

var workloads = []workload{
	{"warm-read", func(ctx context.Context, rc runConfig) (*measurement, error) { return runServing(ctx, rc, false) }},
	{"mixed-write", func(ctx context.Context, rc runConfig) (*measurement, error) { return runServing(ctx, rc, true) }},
	{"cold-sweep", runColdSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: warm-read, mixed-write or cold-sweep")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want warm-read, mixed-write or cold-sweep)", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		scratch: scratch,
	}
	stamp := map[string]any{
		"workload":   w.name,
		"seed":       rc.seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitHead("."),
	}
	blob, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(blob))

	m, err := runRounds(ctx, w, rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	return writeResult(stdout, m, defs, !rc.trace)
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the shown figures, the metrics table and, as the
// last line, the result object. With strict set, every metric must have
// been measured; otherwise a metric the workload did not set is a layer
// it does not exercise and reads 0.
func writeResult(w io.Writer, m *measurement, defs []metricDef, strict bool) error {
	for _, n := range m.notes {
		fmt.Fprintln(w, "#", n)
	}
	if strict {
		for _, d := range shown {
			if v, ok := m.values[d.name]; ok {
				fmt.Fprintf(w, "# %-36s %14.6f %s (shown, no bound)\n", d.name, v, d.unit)
			}
		}
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok && strict {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "# %-36s %14.6f %s\n", d.name, v, d.unit)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{m.failed == 0, m.attempted, m.failed, out}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}

// memStats reads the allocator counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeapMiB collects garbage and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	ms := memStats()
	return float64(ms.HeapAlloc) / (1 << 20)
}

// subRandSeed returns the seed of random stream number `stream` of a
// workload seed,
// so each input (schedule, mix, update stream, settings list) has its
// own stream and adding one input leaves the others unchanged.
func subRandSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }

// gitHead returns the commit checked out at root, or "unknown" when
// root is not a git work tree. A symbolic HEAD is followed to its loose
// ref or, once refs are packed, to its line in packed-refs. In a linked
// work tree .git is a file naming the work tree's git directory, whose
// commondir file names the directory that holds the shared refs.
func gitHead(root string) string {
	dir := filepath.Join(root, ".git")
	if b, err := os.ReadFile(dir); err == nil {
		d, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "gitdir: ")
		if !ok {
			return "unknown"
		}
		dir = relTo(root, d)
	}
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref
	}
	common := dir
	if b, err := os.ReadFile(filepath.Join(dir, "commondir")); err == nil {
		common = relTo(dir, strings.TrimSpace(string(b)))
	}
	for _, d := range []string{dir, common} {
		if b, err := os.ReadFile(filepath.Join(d, filepath.FromSlash(ref))); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	packed, err := os.ReadFile(filepath.Join(common, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// relTo resolves path against base unless it is absolute.
func relTo(base, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(base, path)
}
