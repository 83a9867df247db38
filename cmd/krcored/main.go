// Command krcored serves (k,r)-core queries over HTTP: it loads one
// attributed social network, builds the caching serving engine and
// exposes enumerate / enumerate-containing / find-maximum / warm
// endpoints as JSON (see krcore/api for the wire format and
// krcore/client for the Go client) and its counters on /metrics. With -dynamic it serves the
// mutable engine instead and additionally accepts atomic update
// batches, so the graph can evolve under live query traffic.
//
// Usage:
//
//	krcored -data gowalla -warm 5
//	krcored -data brightkite -addr 127.0.0.1:8420 -concurrency 8
//	krcored -load mygraph.txt -dynamic -warm 4:12,5:12
//	krcored -data brightkite -warm 5 -snapshot-save checkpoint.snap
//	krcored -snapshot checkpoint.snap -addr 127.0.0.1:8420
//	krcored -load mygraph.txt -dynamic -journal updates.journal -snapshot-save checkpoint.snap
//
//	curl -s localhost:8420/v1/enumerate -d '{"k":5,"r":10}'
//	curl -s localhost:8420/metrics
//
// The daemon answers every query under a per-request deadline and node
// budget (request fields, clamped by -max-timeout / -max-nodes), bounds
// concurrent searches with an admission-control semaphore (-concurrency,
// excess requests queue up to -queue-wait, then 429), and drains
// in-flight queries before exiting on SIGINT/SIGTERM.
//
// # Observability
//
// GET /metrics serves the daemon's full metric registry in Prometheus
// text format: the served dataset and graph size, per-endpoint request
// and search latency histograms, admission-wait times and queue depth,
// cache hit/miss counters (engine-wide and per queried (k,r)
// setting), the client/server error split, group-commit coalescing,
// scoped-invalidation counters and journal fsync latency on dynamic
// daemons, and Go runtime gauges — every counter the daemon keeps, in
// one place. -pprof additionally mounts net/http/pprof under
// /debug/pprof/ for live CPU and heap profiles (opt-in; leave it off
// on exposed listeners). cmd/soak drives a daemon with sustained mixed
// load and reports latency percentiles from both sides of the wire.
//
// # Checkpoints
//
// -snapshot-save names a checkpoint file: the daemon writes its engine
// snapshot there — graph, attributes, similarity indexes, filtered
// graphs and every prepared (k,r) setting — on SIGUSR1 and again after
// the shutdown drain, atomically (temp file + rename), so a crash
// mid-write never corrupts the previous checkpoint. -snapshot starts
// the daemon from such a file instead of -data/-load, warm in
// milliseconds: every setting the checkpoint carries serves its first
// query as a cache hit. Dynamic checkpoints carry the update journal
// offset; an operator feeding the daemon from an external journal
// resumes it from that offset after a crash (kill -9) restart. A
// failed checkpoint write on SIGUSR1 is logged and serving continues;
// on the shutdown path it makes the daemon exit non-zero.
//
// # Journal
//
// -journal (dynamic only) names a write-ahead update log: every
// committed batch group is appended — one write and one fsync per
// commit round, shared by all coalesced writers — before engine state
// changes. On start the daemon replays the journal tail past the
// engine's committed offset, so a crash loses nothing that was acked.
// When -snapshot-save is also set, each checkpoint compacts the
// journal to the operations the snapshot does not yet contain, keeping
// crash-recovery replay cost proportional to the traffic since the
// last checkpoint. /metrics reports the tail length as
// krcored_journal_tail_ops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"krcore"
	"krcore/client"
	"krcore/internal/dataset"
	"krcore/internal/snapshot"
	"krcore/internal/updates"
	"krcore/replica"
	"krcore/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("krcored: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// snapshotter is the save surface shared by both engine flavours.
type snapshotter interface {
	SaveSnapshot(w io.Writer) error
}

// run executes one daemon lifetime: it serves until ctx is cancelled
// (SIGINT/SIGTERM in production, the test harness otherwise), then
// drains in-flight queries and returns. Every write on the shutdown
// path is checked: a daemon that cannot drain, log its drain, or
// persist its final checkpoint exits non-zero with the cause logged.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("krcored", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data        = fs.String("data", "", "preset dataset name (brightkite, gowalla, dblp, pokec)")
		load        = fs.String("load", "", "load a dataset file written by datagen")
		snapLoad    = fs.String("snapshot", "", "start from an engine snapshot file (instead of -data/-load)")
		snapSave    = fs.String("snapshot-save", "", "checkpoint file written on SIGUSR1 and after the shutdown drain")
		journalPath = fs.String("journal", "", "append-only update journal (dynamic only): commits are logged write-ahead, the tail past the engine's offset is replayed on start, and checkpoints compact it")
		addr        = fs.String("addr", "127.0.0.1:8420", "listen address (host:port; port 0 picks a free port)")
		dynamic     = fs.Bool("dynamic", false, "serve the mutable engine and accept /v1/update batches")
		concurrency = fs.Int("concurrency", 4, "searches running at once (admission-control limit)")
		queue       = fs.Int("queue", 64, "requests allowed to wait for a search slot before 429")
		queueWait   = fs.Duration("queue-wait", 10*time.Second, "longest a queued request waits before 429")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request search deadline")
		maxTimeout  = fs.Duration("max-timeout", 2*time.Minute, "upper clamp on per-request deadlines")
		maxNodes    = fs.Int64("max-nodes", 0, "upper clamp on per-request search-node budgets (0 = unlimited)")
		parallelCap = fs.Int("parallel-cap", 8, "upper clamp on per-request worker counts")
		warm        = fs.String("warm", "", "comma-separated settings to pre-build: k (default threshold) or k:r")
		grace       = fs.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight queries")
		withPprof   = fs.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/ (opt-in)")

		follow    = fs.String("follow", "", "replicate the leader daemon at this base URL: bootstrap from its snapshot, tail its journal, serve read-only")
		pollWait  = fs.Duration("poll-wait", 2*time.Second, "follower mode: journal long-poll duration per tail request")
		route     = fs.Bool("route", false, "run as a fleet router instead of a serving engine (requires -leader)")
		leaderF   = fs.String("leader", "", "router mode: leader base URL")
		followers = fs.String("followers", "", "router mode: comma-separated follower base URLs")
		probe     = fs.Duration("probe", time.Second, "router mode: fleet health-probe interval")
		failAfter = fs.Int("fail-after", 3, "router mode: consecutive failed leader probes before promoting the freshest follower")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *route {
		if *leaderF == "" {
			return fmt.Errorf("-route requires -leader")
		}
		return runRouter(ctx, stdout, *addr, *leaderF, *followers, *probe, *failAfter, *grace)
	}
	if *follow != "" && (*data != "" || *load != "" || *snapLoad != "") {
		return fmt.Errorf("-follow replicates the leader's state; drop -data/-load/-snapshot")
	}

	if *snapSave != "" {
		// Pure flag validation, so a misconfigured checkpoint path
		// fails in milliseconds — before the engine build the flag
		// exists to make avoidable.
		if _, err := os.Stat(filepath.Dir(*snapSave)); err != nil {
			return fmt.Errorf("-snapshot-save: %w", err)
		}
	}
	// Capture checkpoint signals before any long-running build: an
	// un-Notify'd SIGUSR1 would kill the process with its default
	// disposition. A signal arriving during warm-up queues in the
	// channel and is served once the daemon starts serving.
	usr1 := make(chan os.Signal, 1)
	if len(checkpointSignals) > 0 {
		// Registering zero signals would subscribe to all of them, so
		// the platform-gated empty set must skip Notify entirely.
		signal.Notify(usr1, checkpointSignals...)
		defer signal.Stop(usr1)
	}

	var (
		backend server.Backend
		d       *dataset.Dataset
		name    string
		journal *updates.Journal
		fol     *replica.Follower
		err     error
	)
	if *follow != "" {
		fol, journal, err = openFollower(ctx, stdout, *follow, *journalPath, *pollWait)
		if err != nil {
			return err
		}
		backend, name = fol.Engine(), "replica:"+*follow
	} else {
		backend, d, name, err = openBackend(stdout, *snapLoad, *data, *load, *dynamic)
		if err != nil {
			return err
		}
		journal, err = openJournal(stdout, backend, *journalPath, *dynamic)
		if err != nil {
			return err
		}
	}
	if journal != nil {
		defer journal.Close()
	}

	cfg := server.Config{
		Dataset:        name,
		MaxConcurrent:  *concurrency,
		MaxQueue:       *queue,
		QueueWait:      *queueWait,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxNodes:       *maxNodes,
		MaxParallelism: *parallelCap,
	}
	if journal != nil {
		cfg.JournalLen = journal.TailOps
		// Any node with a journal can serve the stream — a leader for
		// its followers, a promoted follower for the fleet's survivors.
		cfg.Tail = journal
	}
	if fol != nil {
		cfg.LeaderURL = *follow
		cfg.Lag = fol.Lag
		cfg.OnPromote = fol.Stop
	}
	if deng, ok := backend.(*krcore.DynamicEngine); ok {
		cfg.Snapshot = deng.SaveSnapshot
	}
	srv, err := server.New(backend, cfg)
	if err != nil {
		return err
	}
	// Route the write path's instrumentation into the server's metric
	// registry: group-commit coalescing from the engine, append latency
	// (write + fsync) from the journal.
	if deng, ok := backend.(*krcore.DynamicEngine); ok {
		deng.SetCommitObserver(srv.ObserveGroupCommit)
	}
	if journal != nil {
		journal.SetAppendObserver(srv.ObserveJournalAppend)
	}
	if fol != nil {
		fol.RegisterMetrics(srv.Metrics())
		// The tail loop lives for the daemon's lifetime; ctx cancellation
		// (or a promotion's Stop) ends it.
		go func() {
			if err := fol.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("follower: tail loop: %v", err)
			}
		}()
	}
	handler := http.Handler(srv.Handler())
	if *withPprof {
		// Mount the profiling handlers explicitly on a wrapper mux
		// instead of serving http.DefaultServeMux, so -pprof adds
		// exactly these five routes and nothing any other package may
		// have registered globally.
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	if *warm != "" {
		specs, err := parseWarm(*warm, d)
		if err != nil {
			return err
		}
		for _, sp := range specs {
			// Stay interruptible while warming: NotifyContext swallows
			// the default signal handling, so a SIGTERM during a long
			// warm sequence must be observed here, not only after the
			// listener is up.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted during warm-up: %w", err)
			}
			t0 := time.Now()
			if err := backend.Warm(sp.k, sp.r); err != nil {
				return fmt.Errorf("warm %d:%g: %w", sp.k, sp.r, err)
			}
			fmt.Fprintf(stdout, "warmed (k=%d, r=%.4f) in %v\n", sp.k, sp.r, time.Since(t0).Round(time.Millisecond))
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	mode := "static"
	switch {
	case fol != nil:
		mode = "follower"
	case *dynamic:
		mode = "dynamic"
	}
	g := backend.Graph()
	fmt.Fprintf(stdout, "serving %s (%d vertices, %d edges, %s engine)\n", name, g.N(), g.M(), mode)
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
serve:
	for {
		select {
		case err := <-errc:
			return err // listener failed before shutdown was requested
		case <-usr1:
			// A checkpoint failure while serving is logged, not fatal:
			// the daemon keeps answering queries and the previous
			// checkpoint file stays intact (atomic rename).
			if *snapSave == "" {
				fmt.Fprintln(stdout, "SIGUSR1 ignored: no -snapshot-save path configured")
				continue
			}
			if err := writeCheckpoint(stdout, backend, journal, *snapSave); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		case <-ctx.Done():
			break serve
		}
	}
	if err := emit(stdout, "shutting down: draining in-flight queries\n"); err != nil {
		return err
	}
	// The drain must outlive ctx (already cancelled — that is why we are
	// here), so detach explicitly instead of minting a fresh root.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if *snapSave != "" {
		// The final checkpoint runs after the drain, so it captures
		// every committed update; a write failure here must surface as
		// a non-zero exit, or a supervisor would restart from a stale
		// checkpoint without anyone noticing.
		if err := writeCheckpoint(stdout, backend, journal, *snapSave); err != nil {
			return fmt.Errorf("shutdown checkpoint: %w", err)
		}
	}
	return emit(stdout, "bye\n")
}

// emit writes one log line, surfacing the write error: the shutdown
// path treats a broken stdout (closed pipe under a supervisor) as a
// reportable failure instead of silently dropping the drain record.
func emit(w io.Writer, format string, args ...any) error {
	if _, err := fmt.Fprintf(w, format, args...); err != nil {
		return fmt.Errorf("write log: %w", err)
	}
	return nil
}

// openBackend resolves the engine source: an engine snapshot, or a
// dataset (preset or file) built from scratch. It returns the backend,
// the dataset when one was loaded (nil for snapshots; -warm then needs
// explicit k:r settings), and the serving name for the
// krcored_dataset_info series.
func openBackend(stdout io.Writer, snapLoad, data, load string, dynamic bool) (server.Backend, *dataset.Dataset, string, error) {
	if snapLoad != "" {
		if data != "" || load != "" {
			return nil, nil, "", fmt.Errorf("use -snapshot or -data/-load, not both")
		}
		f, err := os.Open(snapLoad)
		if err != nil {
			return nil, nil, "", err
		}
		defer f.Close()
		t0 := time.Now()
		var backend server.Backend
		if dynamic {
			deng, err := krcore.LoadDynamicEngine(f)
			if err != nil {
				return nil, nil, "", fmt.Errorf("load snapshot %s: %w", snapLoad, err)
			}
			fmt.Fprintf(stdout, "loaded dynamic snapshot %s in %v (journal offset %d)\n",
				snapLoad, time.Since(t0).Round(time.Microsecond), deng.JournalOffset())
			backend = deng
		} else {
			eng, err := krcore.LoadEngine(f)
			if err != nil {
				return nil, nil, "", fmt.Errorf("load snapshot %s: %w", snapLoad, err)
			}
			st := eng.Stats()
			fmt.Fprintf(stdout, "loaded snapshot %s in %v (%d thresholds, %d prepared settings)\n",
				snapLoad, time.Since(t0).Round(time.Microsecond), st.Thresholds, st.Prepared)
			backend = eng
		}
		return backend, nil, filepath.Base(snapLoad), nil
	}

	d, err := dataset.Open(data, load)
	if err != nil {
		return nil, nil, "", err
	}
	if dynamic {
		attrs, err := updates.Attrs(d)
		if err != nil {
			return nil, nil, "", err
		}
		deng, err := krcore.NewDynamicEngine(d.Graph, attrs)
		if err != nil {
			return nil, nil, "", err
		}
		return deng, d, d.Name, nil
	}
	return krcore.NewEngine(d.Graph, d.Metric()), d, d.Name, nil
}

// writeCheckpoint persists the backend's snapshot atomically (temp
// file + sync + rename, see snapshot.WriteFileAtomic), so readers and
// crash restarts only ever see complete checkpoints. With a journal
// attached, the checkpoint also compacts it: operations the snapshot
// now contains are dropped, so crash-recovery replay cost stays
// proportional to the traffic since the last checkpoint.
func writeCheckpoint(stdout io.Writer, backend server.Backend, journal *updates.Journal, path string) error {
	s, ok := backend.(snapshotter)
	if !ok {
		return fmt.Errorf("backend %T cannot snapshot", backend)
	}
	t0 := time.Now()
	if journal != nil {
		deng, ok := backend.(*krcore.DynamicEngine)
		if !ok {
			return fmt.Errorf("backend %T has a journal but no dynamic engine", backend)
		}
		dropped, err := updates.Compact(deng, journal, path)
		if err != nil {
			return err
		}
		return emit(stdout, "checkpoint saved to %s, journal compacted (%d ops dropped, %d in tail, %v)\n",
			path, dropped, journal.TailOps(), time.Since(t0).Round(time.Millisecond))
	}
	size, err := snapshot.WriteFileAtomic(path, s.SaveSnapshot)
	if err != nil {
		return err
	}
	return emit(stdout, "checkpoint saved to %s (%d bytes, %v)\n",
		path, size, time.Since(t0).Round(time.Millisecond))
}

// openJournal wires the daemon's write-ahead update journal: it opens
// (or creates) the file, replays the tail past the engine's committed
// offset — the crash-recovery path after a -snapshot restart — and
// registers the journal so every subsequent commit round appends to it
// before touching engine state.
func openJournal(stdout io.Writer, backend server.Backend, path string, dynamic bool) (*updates.Journal, error) {
	if path == "" {
		return nil, nil
	}
	if !dynamic {
		return nil, fmt.Errorf("-journal requires -dynamic")
	}
	deng, ok := backend.(*krcore.DynamicEngine)
	if !ok {
		return nil, fmt.Errorf("-journal: backend %T is not a dynamic engine", backend)
	}
	kind, err := updates.ParseKind(deng.AttributeKind())
	if err != nil {
		return nil, fmt.Errorf("-journal: %w", err)
	}
	j, err := updates.OpenJournal(path, kind)
	if err != nil {
		return nil, fmt.Errorf("-journal: %w", err)
	}
	tail, base, err := j.Tail()
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("-journal: %w", err)
	}
	off := deng.JournalOffset()
	end := base + int64(len(tail.Ups))
	switch {
	case off < base:
		j.Close()
		return nil, fmt.Errorf("-journal: engine is at offset %d but the journal was compacted past it (base %d); start from the journal's companion snapshot", off, base)
	case off >= end:
		// The engine (typically restored from -snapshot) is at or past
		// everything the journal holds: nothing to replay, but the
		// journal must restart exactly at the engine's offset — a fresh
		// or fully-contained journal left at a lower base would record
		// subsequent commits under wrong absolute offsets, silently
		// misaligning crash recovery and every streaming follower.
		if off > base || len(tail.Ups) > 0 {
			if err := j.ResetTo(off); err != nil {
				j.Close()
				return nil, fmt.Errorf("-journal: align to engine offset: %w", err)
			}
			if err := emit(stdout, "journal aligned to engine offset %d\n", off); err != nil {
				j.Close()
				return nil, err
			}
		}
	default:
		t0 := time.Now()
		if _, err := tail.ReplayStreamFrom(deng, off-base, 256); err != nil {
			j.Close()
			return nil, fmt.Errorf("-journal: replay: %w", err)
		}
		if err := emit(stdout, "replayed %d journal ops in %v (offset %d -> %d)\n",
			end-off, time.Since(t0).Round(time.Millisecond), off, end); err != nil {
			j.Close()
			return nil, err
		}
	}
	deng.SetJournal(j)
	return j, nil
}

// openFollower builds the -follow replication stack: it learns the
// leader's attribute kind, opens the local write-ahead journal (when
// -journal is set), and bootstraps from the leader's snapshot —
// retrying while the leader is still coming up.
func openFollower(ctx context.Context, stdout io.Writer, leader, journalPath string, pollWait time.Duration) (*replica.Follower, *updates.Journal, error) {
	const attempts = 60
	cl := client.New(leader)
	var j *updates.Journal
	if journalPath != "" {
		var kindName string
		err := retryStep(ctx, stdout, attempts, "fetch leader replication status", func() error {
			st, err := cl.Replication(ctx)
			if err != nil {
				return err
			}
			if st.Kind == "" {
				return fmt.Errorf("leader %s reports no attribute kind (static engine?)", leader)
			}
			kindName = st.Kind
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("-follow: %w", err)
		}
		kind, err := updates.ParseKind(kindName)
		if err != nil {
			return nil, nil, fmt.Errorf("-follow: %w", err)
		}
		if j, err = updates.OpenJournal(journalPath, kind); err != nil {
			return nil, nil, fmt.Errorf("-follow: %w", err)
		}
	}
	var fol *replica.Follower
	t0 := time.Now()
	if err := retryStep(ctx, stdout, attempts, "bootstrap from leader snapshot", func() (err error) {
		fol, err = replica.NewFollower(ctx, replica.FollowerConfig{
			Leader:   leader,
			Client:   cl,
			Journal:  j,
			PollWait: pollWait,
		})
		return err
	}); err != nil {
		if j != nil {
			j.Close()
		}
		return nil, nil, fmt.Errorf("-follow: %w", err)
	}
	if err := emit(stdout, "bootstrapped from %s in %v (journal offset %d)\n",
		leader, time.Since(t0).Round(time.Millisecond), fol.Engine().JournalOffset()); err != nil {
		if j != nil {
			j.Close()
		}
		return nil, nil, err
	}
	return fol, j, nil
}

// retryStep runs fn up to attempts times, a second apart, logging
// failures — the follower's leader may simply not be listening yet.
func retryStep(ctx context.Context, stdout io.Writer, attempts int, what string, fn func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if i == 0 {
			fmt.Fprintf(stdout, "%s: retrying: %v\n", what, err)
		}
		t := time.NewTimer(time.Second)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	return fmt.Errorf("%s: giving up after %d attempts: %w", what, attempts, err)
}

// runRouter serves the -route mode: no engine, just the fleet router
// (affinity read routing, leader write forwarding, failover) plus its
// own health and metrics endpoints.
func runRouter(ctx context.Context, stdout io.Writer, addr, leader, followers string, probe time.Duration, failAfter int, grace time.Duration) error {
	var fl []string
	for _, f := range strings.Split(followers, ",") {
		if f = strings.TrimSpace(f); f != "" {
			fl = append(fl, f)
		}
	}
	rt, err := replica.NewRouter(replica.RouterConfig{
		Leader:    leader,
		Followers: fl,
		Probe:     probe,
		FailAfter: failAfter,
		Logf:      log.Printf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "routing for leader %s and %d followers\n", leader, len(fl))
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	go func() {
		// Probe-loop lifetime is the daemon's; Run only returns on ctx.
		if err := rt.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("router: probe loop: %v", err)
		}
	}()
	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if err := emit(stdout, "shutting down router\n"); err != nil {
		return err
	}
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return emit(stdout, "bye\n")
}

// warmSpec is one pre-built (k,r) setting.
type warmSpec struct {
	k int
	r float64
}

// parseWarm parses the -warm flag: a comma-separated list of "k" (the
// dataset's default threshold) or "k:r" items. d is nil for
// snapshot-loaded engines, where only explicit k:r items resolve.
func parseWarm(s string, d *dataset.Dataset) ([]warmSpec, error) {
	var (
		specs      []warmSpec
		defaultThr float64
		haveThr    bool
	)
	defThreshold := func() (float64, error) {
		if haveThr {
			return defaultThr, nil
		}
		if d == nil {
			return 0, fmt.Errorf("-warm %q: a snapshot has no default threshold; use k:r", s)
		}
		thr, err := d.DefaultThreshold()
		if err != nil {
			return 0, fmt.Errorf("-warm %q: %w; use k:r", s, err)
		}
		defaultThr, haveThr = thr, true
		return defaultThr, nil
	}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		ks, rs, hasR := strings.Cut(item, ":")
		k, err := strconv.Atoi(ks)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("-warm %q: bad k %q", s, ks)
		}
		var r float64
		if hasR {
			r, err = strconv.ParseFloat(rs, 64)
			if err != nil {
				return nil, fmt.Errorf("-warm %q: bad r %q", s, rs)
			}
		} else if r, err = defThreshold(); err != nil {
			return nil, err
		}
		specs = append(specs, warmSpec{k: k, r: r})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-warm %q: no settings", s)
	}
	return specs, nil
}
