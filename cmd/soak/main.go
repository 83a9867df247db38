// Command soak drives a krcored daemon with sustained mixed
// read/write load and reports what both ends of the wire saw: client
// latency percentiles (p50/p99/p999) per operation kind from its own
// histograms, and the daemon's /metrics export for server-side error
// counters and allocation behaviour over the run.
//
// Usage:
//
//	soak -data brightkite -k 5 -duration 30s -rate 300 -write-mix 0.1
//	soak -url http://127.0.0.1:8420 -k 5 -r 10 -duration 1m
//
// Without -url the harness self-hosts: it builds the dataset, serves
// it through the same krcore/server stack as krcored on a loopback
// listener, and soaks that — one command, no daemon to manage, which
// is how CI smoke-tests the serving path. With -url it drives an
// already-running daemon (or a replica router) instead.
//
// Load shape: -workers concurrent clients share a -rate requests/s
// budget (0 = unthrottled). Each request is an update batch with
// probability -write-mix (dynamic targets only), otherwise a query —
// 80% enumerate, 20% find-maximum. The (k,r) setting is warmed before
// the clock starts, so the soak measures steady-state serving, not
// one cold build.
//
// Exit status: -max-server-errors N (default -1, no gate) makes the
// run fail if the daemon's server_errors counter grew by more than N
// over the soak — the CI regression gate for "sustained load must not
// surface daemon faults". Client-side 4xx responses and admission 429s
// are counted and reported but never gate: the harness itself decides
// what load to offer. The run also fails if any counter (a series
// named *_total) reads lower in a /metrics scrape — taken before the
// run, about once a second during it, and after it — than in the last
// earlier scrape that held it, and, when self-hosting, if the daemon
// does not shut down cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"krcore"
	"krcore/api"
	"krcore/client"
	"krcore/internal/dataset"
	"krcore/internal/metrics"
	"krcore/internal/updates"
	"krcore/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soak: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// tally accumulates one operation kind's client-side view of the run.
type tally struct {
	lat       *metrics.Histogram
	ok        atomic.Int64
	busy      atomic.Int64 // 429: admission control shed us
	clientErr atomic.Int64 // other 4xx
	serverErr atomic.Int64 // 5xx observed at the client
	transport atomic.Int64 // connection-level failures
}

func (t *tally) record(elapsed time.Duration, err error) {
	if err == nil {
		t.lat.Observe(elapsed.Seconds())
		t.ok.Add(1)
		return
	}
	var ae *client.APIError
	switch {
	case client.IsBusy(err):
		t.busy.Add(1)
	case errors.As(err, &ae) && ae.StatusCode >= 500:
		t.serverErr.Add(1)
	case errors.As(err, &ae):
		t.clientErr.Add(1)
	default:
		t.transport.Add(1)
	}
}

func (t *tally) failures() int64 {
	return t.clientErr.Load() + t.serverErr.Load() + t.transport.Load()
}

// scrapeCounter reads one series from a parsed /metrics export,
// tolerating its absence (older daemons) as zero.
func scrapeCounter(samples map[string]float64, series string) int64 {
	return int64(samples[series])
}

func run(ctx context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		url       = fs.String("url", "", "target daemon base URL; empty self-hosts the dataset in-process")
		data      = fs.String("data", "", "self-host: preset dataset name (brightkite, gowalla, dblp, pokec)")
		load      = fs.String("load", "", "self-host: load a dataset file written by datagen")
		dynamic   = fs.Bool("dynamic", false, "self-host: serve the mutable engine (required for -write-mix > 0)")
		k         = fs.Int("k", 5, "engagement threshold k")
		r         = fs.Float64("r", 0, "similarity threshold r (0 = self-hosted dataset's default; required with -url)")
		duration  = fs.Duration("duration", 10*time.Second, "measured soak length")
		rate      = fs.Float64("rate", 200, "target aggregate requests/s across all workers (0 = unthrottled)")
		workers   = fs.Int("workers", 8, "concurrent client workers")
		writeMix  = fs.Float64("write-mix", 0, "fraction of requests that are update batches (dynamic targets only)")
		parallel  = fs.Int("parallelism", 0, "per-query worker count sent with each request (0 = server default)")
		seed      = fs.Int64("seed", 1, "workload RNG seed")
		maxSrvErr = fs.Int64("max-server-errors", -1, "fail if the daemon's server_errors counter grows by more than this (-1 = no gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeMix < 0 || *writeMix > 1 {
		return fmt.Errorf("-write-mix %v out of [0,1]", *writeMix)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1")
	}

	// One keep-alive connection per client: the workers and the
	// counter scraper. With fewer idle slots than concurrent requests,
	// the transport keeps dialling connections it cannot pool.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = *workers + 1
	base := *url
	if base == "" {
		var shutdown func() error
		base, shutdown, err = selfHost(ctx, stdout, *data, *load, *dynamic, *r == 0, r)
		if err != nil {
			return err
		}
		defer func() {
			// The server waits up to 5 s for a connection it still sees
			// as new (dialled, never used) before treating it as idle;
			// closing the client's idle connections first lets the
			// drain finish at once.
			tr.CloseIdleConnections()
			if serr := shutdown(); serr != nil && err == nil {
				err = fmt.Errorf("self-hosted daemon shutdown: %w", serr)
			}
		}()
	} else if *r == 0 {
		return fmt.Errorf("-url requires an explicit -r (no dataset to take a default from)")
	}
	c := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}))

	if err := c.Health(ctx); err != nil {
		return err
	}
	// Daemons and the replica router both answer the replication
	// endpoint; only a static daemon cannot take writes.
	rs, err := c.Replication(ctx)
	if err != nil {
		return err
	}
	if *writeMix > 0 && rs.Role == api.RoleStatic {
		return fmt.Errorf("-write-mix %v needs a dynamic daemon; target is static", *writeMix)
	}
	if err := c.Warm(ctx, *k, *r); err != nil {
		return fmt.Errorf("warm %d:%g: %w", *k, *r, err)
	}

	before, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("pre-soak scrape: %w", err)
	}
	pre := client.ParseMetrics(before)

	// Client-side latency histograms, one per operation kind, built on
	// the same fixed-bucket estimator the daemon exports.
	reg := metrics.NewRegistry()
	read := &tally{lat: reg.Histogram("soak_read_seconds", "client-observed query latency", metrics.DefLatencyBuckets())}
	write := &tally{lat: reg.Histogram("soak_write_seconds", "client-observed update latency", metrics.DefLatencyBuckets())}

	fmt.Fprintf(stdout, "soaking %s: k=%d r=%g, %v at %s, %d workers, write mix %.0f%%\n",
		base, *k, *r, *duration, describeRate(*rate), *workers, *writeMix*100)

	sctx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()
	watched := make(chan counterWatch, 1)
	go func() { watched <- watchCounters(sctx, c, pre, time.Second) }()
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			soakWorker(sctx, c, workerConfig{
				k: *k, r: *r, parallelism: *parallel,
				writeMix: *writeMix,
				interval: perWorkerInterval(*rate, *workers),
				rng:      rand.New(rand.NewSource(*seed + int64(id))),
			}, read, write)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	cw := <-watched

	after, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("post-soak scrape: %w", err)
	}
	post := client.ParseMetrics(after)
	decreases := append(cw.decreases, counterDecreases(cw.last, post)...)

	report := buildReport(elapsed, read, write, pre, post)
	printReport(stdout, report)
	fmt.Fprintf(stdout, "counters: %d scrapes, %d decreases\n", cw.scrapes+2, len(decreases))

	if *maxSrvErr >= 0 && report.serverErrDelta > *maxSrvErr {
		return fmt.Errorf("daemon server_errors grew by %d over the soak (gate: %d)", report.serverErrDelta, *maxSrvErr)
	}
	if len(decreases) > 0 {
		return fmt.Errorf("counters went down during the soak: %s", strings.Join(decreases, "; "))
	}
	return nil
}

// counterWatch is what watchCounters saw: the number of scrapes it
// took, the last value seen of every series, and every counter
// decrease against those values.
type counterWatch struct {
	scrapes   int
	last      map[string]float64
	decreases []string
}

// observe compares one scrape with the last value seen of every series
// and carries the scrape's values forward, so a counter missing from
// one scrape that comes back lower still counts as a decrease.
func (cw *counterWatch) observe(next map[string]float64) {
	cw.scrapes++
	cw.decreases = append(cw.decreases, counterDecreases(cw.last, next)...)
	maps.Copy(cw.last, next)
}

// watchCounters scrapes /metrics every interval until ctx is done,
// observing each scrape, starting from a copy of prev. A failed scrape
// is skipped.
func watchCounters(ctx context.Context, c *client.Client, prev map[string]float64, every time.Duration) counterWatch {
	cw := counterWatch{last: maps.Clone(prev)}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return cw
		case <-tick.C:
		}
		text, err := c.Metrics(ctx)
		if err != nil {
			continue
		}
		cw.observe(client.ParseMetrics(text))
	}
}

// counterDecreases lists, sorted, the counters — series whose metric
// name ends in _total — present in both scrapes whose value went down.
func counterDecreases(prev, next map[string]float64) []string {
	var out []string
	for series, v := range next {
		name, _, _ := strings.Cut(series, "{")
		if old, ok := prev[series]; ok && strings.HasSuffix(name, "_total") && v < old {
			out = append(out, fmt.Sprintf("%s %g -> %g", series, old, v))
		}
	}
	sort.Strings(out)
	return out
}

// perWorkerInterval spreads the aggregate rate budget evenly across
// workers; 0 means unthrottled.
func perWorkerInterval(rate float64, workers int) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(workers) / rate * float64(time.Second))
}

func describeRate(rate float64) string {
	if rate <= 0 {
		return "max rate"
	}
	return fmt.Sprintf("%.0f q/s", rate)
}

type workerConfig struct {
	k           int
	r           float64
	parallelism int
	writeMix    float64
	interval    time.Duration
	rng         *rand.Rand
}

// soakWorker issues requests until ctx expires, pacing against its
// share of the rate budget by absolute deadlines so a slow request
// borrows from the following gap instead of skewing the whole run.
func soakWorker(ctx context.Context, c *client.Client, cfg workerConfig, read, write *tally) {
	next := time.Now()
	opts := client.Options{Parallelism: cfg.parallelism}
	for {
		if ctx.Err() != nil {
			return
		}
		if cfg.interval > 0 {
			if d := time.Until(next); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			next = next.Add(cfg.interval)
		}
		t0 := time.Now()
		var err error
		var isWrite bool
		switch {
		case cfg.writeMix > 0 && cfg.rng.Float64() < cfg.writeMix:
			// Writes grow the graph by lone vertices: always valid,
			// exercises the full journal + group-commit + invalidation
			// path, and keeps the read workload's setting comparable.
			isWrite = true
			_, err = c.ApplyBatch(ctx, []krcore.Update{krcore.AddVertexUpdate()})
		case cfg.rng.Float64() < 0.8:
			_, err = c.Enumerate(ctx, cfg.k, cfg.r, opts)
		default:
			_, err = c.FindMaximum(ctx, cfg.k, cfg.r, opts)
		}
		if ctx.Err() != nil && err != nil {
			// The deadline tore this request down mid-flight; that is
			// the harness clock, not the daemon.
			return
		}
		if isWrite {
			write.record(time.Since(t0), err)
		} else {
			read.record(time.Since(t0), err)
		}
	}
}

// selfHost builds the dataset and serves it on a loopback listener
// through the same server stack as krcored. It returns the base URL
// and a shutdown func. When useDefaultR is set, *r receives the
// dataset's default similarity threshold.
func selfHost(ctx context.Context, stdout io.Writer, data, load string, dynamic, useDefaultR bool, r *float64) (string, func() error, error) {
	d, err := dataset.Open(data, load)
	if err != nil {
		return "", nil, err
	}
	if useDefaultR {
		thr, err := d.DefaultThreshold()
		if err != nil {
			return "", nil, fmt.Errorf("%w; pass -r explicitly", err)
		}
		*r = thr
	}
	var backend server.Backend
	if dynamic {
		attrs, err := updates.Attrs(d)
		if err != nil {
			return "", nil, err
		}
		deng, err := krcore.NewDynamicEngine(d.Graph, attrs)
		if err != nil {
			return "", nil, err
		}
		backend = deng
	} else {
		backend = krcore.NewEngine(d.Graph, d.Metric())
	}
	srv, err := server.New(backend, server.Config{Dataset: d.Name})
	if err != nil {
		return "", nil, err
	}
	if deng, ok := backend.(*krcore.DynamicEngine); ok {
		deng.SetCommitObserver(srv.ObserveGroupCommit)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	g := backend.Graph()
	fmt.Fprintf(stdout, "self-hosting %s (%d vertices, %d edges) on http://%s\n", d.Name, g.N(), g.M(), ln.Addr())
	shutdown := func() error {
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// report is everything the run learned, from both ends of the wire.
type report struct {
	elapsed     time.Duration
	read, write *tally

	queriesDelta   int64
	updatesDelta   int64
	rejectedDelta  int64
	clientErrDelta int64
	serverErrDelta int64
	writeFailDelta int64
	allocDelta     int64
	gcDelta        int64
}

func buildReport(elapsed time.Duration, read, write *tally, pre, post map[string]float64) *report {
	delta := func(series string) int64 {
		return scrapeCounter(post, series) - scrapeCounter(pre, series)
	}
	rp := &report{
		elapsed:        elapsed,
		read:           read,
		write:          write,
		queriesDelta:   delta("krcored_queries_total"),
		updatesDelta:   delta("krcored_updates_applied_total"),
		rejectedDelta:  delta("krcored_rejected_total"),
		clientErrDelta: delta("krcored_client_errors_total"),
		serverErrDelta: delta("krcored_server_errors_total"),
		allocDelta:     delta(`krcored_go_memstats{stat="total_alloc_bytes"}`),
		gcDelta:        delta(`krcored_go_memstats{stat="num_gc"}`),
	}
	for series, v := range post {
		if strings.HasPrefix(series, "krcored_response_write_failures_total{") {
			rp.writeFailDelta += int64(v) - int64(pre[series])
		}
	}
	return rp
}

// quantiles renders a tally's latency percentiles; "-" when the kind
// saw no traffic.
func quantiles(t *tally) (p50, p99, p999, mean string) {
	n := t.lat.Count()
	if n == 0 {
		return "-", "-", "-", "-"
	}
	f := func(q float64) string {
		return fmtLatency(t.lat.Quantile(q))
	}
	return f(0.5), f(0.99), f(0.999), fmtLatency(t.lat.Sum() / float64(n))
}

func fmtLatency(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(10 * time.Microsecond).String()
}

func printReport(w io.Writer, rp *report) {
	line := func(name string, t *tally) {
		p50, p99, p999, mean := quantiles(t)
		rate := float64(t.ok.Load()) / rp.elapsed.Seconds()
		fmt.Fprintf(w, "%-6s %7d ok (%6.1f/s)  p50 %-9s p99 %-9s p999 %-9s mean %-9s busy %d, failed %d\n",
			name, t.ok.Load(), rate, p50, p99, p999, mean, t.busy.Load(), t.failures())
	}
	fmt.Fprintf(w, "soaked for %v\n", rp.elapsed.Round(time.Millisecond))
	line("read", rp.read)
	line("write", rp.write)
	ops := rp.read.ok.Load() + rp.write.ok.Load()
	allocPerOp := int64(0)
	if ops > 0 {
		allocPerOp = rp.allocDelta / ops
	}
	fmt.Fprintf(w, "server: %d queries, %d updates applied, %d rejected, %d client errors, %d server errors, %d response-write failures\n",
		rp.queriesDelta, rp.updatesDelta, rp.rejectedDelta, rp.clientErrDelta, rp.serverErrDelta, rp.writeFailDelta)
	fmt.Fprintf(w, "server: %d MB allocated (%d B/op), %d GC cycles\n",
		rp.allocDelta>>20, allocPerOp, rp.gcDelta)
}
