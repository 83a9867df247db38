// Package server implements the HTTP serving layer behind the krcored
// daemon: JSON endpoints for the (k,r)-core queries of krcore.Engine
// and krcore.DynamicEngine, with the production plumbing the in-process
// engines leave to the caller — per-request deadlines and node budgets
// mapped onto Limits and context cancellation, an admission-control
// semaphore bounding concurrent searches (excess requests queue
// briefly, then 429), and a full metrics pipeline: per-endpoint and
// per-stage latency histograms, admission-queue gauges, cache and
// write-path counters, all exported in Prometheus text format at GET
// /metrics (see Metrics for the registry).
//
// Error accounting splits blame: client_errors (bad JSON, invalid
// parameters, cancelled-while-queued 408s) versus server_errors
// (engine faults such as a failed write-ahead journal append, served
// as 5xx) — so an error-rate alert on server_errors never fires on a
// client's typo. Admission-control rejections (429) stay their own
// series.
//
// The package serves an http.Handler; listener lifecycle and graceful
// shutdown belong to the embedding process (see cmd/krcored, which
// drains in-flight queries on SIGTERM via http.Server.Shutdown).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"krcore"
	"krcore/api"
	"krcore/internal/metrics"
)

// Backend is the query surface a server fronts. krcore.Engine and
// krcore.DynamicEngine both implement it.
type Backend interface {
	EnumerateContext(ctx context.Context, k int, r float64, opt krcore.EnumOptions) (*krcore.Result, error)
	EnumerateContainingContext(ctx context.Context, k int, r float64, v int32, opt krcore.EnumOptions) (*krcore.Result, error)
	FindMaximumContext(ctx context.Context, k int, r float64, opt krcore.MaxOptions) (*krcore.Result, error)
	Warm(k int, r float64) error
	Stats() krcore.EngineStats
	SettingsStats() []krcore.SettingStats
	Graph() *krcore.Graph
}

// Updater is the optional mutation surface: when the backend also
// implements it (krcore.DynamicEngine does), the server exposes the
// batch update endpoint.
type Updater interface {
	ApplyBatch(batch []krcore.Update) error
	DynamicStats() krcore.DynamicStats
}

// Config parameterises a Server. The zero value of every field has a
// serviceable default.
type Config struct {
	// Dataset names the served dataset in the krcored_dataset_info
	// series (cosmetic).
	Dataset string

	// MaxConcurrent bounds the searches running at once; further
	// requests wait in the admission queue. Default 4.
	MaxConcurrent int
	// MaxQueue bounds the requests waiting for a search slot; beyond
	// it requests are rejected immediately with 429. Default 64.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before a 429. Default 10s.
	QueueWait time.Duration

	// DefaultTimeout is the per-request search deadline applied when a
	// request carries none. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request deadline. Default 2m.
	MaxTimeout time.Duration
	// MaxNodes, when > 0, clamps the per-request node budget; requests
	// carrying none then run under exactly this cap.
	MaxNodes int64
	// MaxParallelism clamps per-request worker counts. Default 8.
	MaxParallelism int

	// JournalLen, when set, reports the operation count of the daemon's
	// update journal tail as the krcored_journal_tail_ops gauge (see
	// cmd/krcored -journal).
	JournalLen func() int64

	// Snapshot, when set, enables GET PathSnapshot: the hook streams one
	// complete engine snapshot (krsnap format, journal offset embedded).
	// Typically DynamicEngine.SaveSnapshot.
	Snapshot func(w io.Writer) error
	// Tail, when set, enables GET PathJournal serving the committed
	// journal tail (typically the daemon's *updates.Journal).
	Tail TailSource
	// LeaderURL, when non-empty, starts the server as a read-only
	// follower of the leader at that base URL: writes answer 503 with
	// the leader in the error body until PathPromote flips the node
	// writable.
	LeaderURL string
	// Lag, when set, reports the follower's last observed distance
	// behind its leader in operations (PathReplication and the
	// replication_lag_ops gauge).
	Lag func() int64
	// OnPromote, when set, runs inside POST PathPromote before the node
	// starts accepting writes — a follower stops tailing its old leader
	// here. An error aborts the promotion.
	OnPromote func(ctx context.Context) error
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = 8
	}
	return c
}

// Server serves one backend over HTTP. Create with New, mount via
// Handler.
type Server struct {
	cfg     Config
	backend Backend
	updater Updater // nil on static engines
	mux     *http.ServeMux

	slots    chan struct{}
	waiters  atomic.Int64
	inFlight atomic.Int64
	peak     atomic.Int64

	// readOnly gates writes while the node follows a leader.
	readOnly atomic.Bool
	// promoteMu's contract IS serialising the promotion side effects:
	// OnPromote (which blocks until the follower's tail loop drains)
	// must finish before the gate opens, and concurrent promotions must
	// run it exactly once. krlint:iolock
	promoteMu sync.Mutex

	reg        *metrics.Registry
	queries    *metrics.Counter
	rejected   *metrics.Counter
	clientErrs *metrics.Counter
	serverErrs *metrics.Counter
	applied    *metrics.Counter
	redirected *metrics.Counter
	writeFails *metrics.CounterVec // cause: disconnect | encode

	reqSeconds    *metrics.HistogramVec // endpoint
	searchSeconds *metrics.HistogramVec // endpoint
	admissionWait *metrics.Histogram

	commitBatches *metrics.Histogram
	commitOps     *metrics.Histogram
	journalOps    *metrics.Counter
	journalWrite  *metrics.Histogram
}

// New returns a server fronting the backend. If the backend also
// implements Updater (krcore.DynamicEngine), the update endpoint is
// enabled.
func New(b Backend, cfg Config) (*Server, error) {
	if b == nil {
		return nil, errors.New("server: nil backend")
	}
	s := &Server{cfg: cfg.withDefaults(), backend: b}
	s.updater, _ = b.(Updater)
	if s.cfg.LeaderURL != "" {
		if s.updater == nil {
			return nil, errors.New("server: a follower needs a dynamic backend to apply the tail")
		}
		s.readOnly.Store(true)
	}
	s.slots = make(chan struct{}, s.cfg.MaxConcurrent)
	s.initMetrics()
	s.mux = http.NewServeMux()
	s.handle("GET "+api.PathHealth, "health", s.handleHealth)
	s.handle("GET "+api.PathMetrics, "metrics", s.handleMetrics)
	s.handle("GET "+api.PathReplication, "replication", s.handleReplication)
	s.handle("POST "+api.PathEnumerate, "enumerate", s.handleEnumerate)
	s.handle("POST "+api.PathMaximum, "maximum", s.handleMaximum)
	s.handle("POST "+api.PathWarm, "warm", s.handleWarm)
	if s.cfg.Snapshot != nil {
		s.handle("GET "+api.PathSnapshot, "snapshot", s.handleSnapshot)
	}
	if s.cfg.Tail != nil {
		s.handle("GET "+api.PathJournal, "journal", s.handleJournal)
	}
	if s.updater != nil {
		s.handle("POST "+api.PathUpdate, "update", s.handleUpdate)
		s.handle("POST "+api.PathPromote, "promote", s.handlePromote)
	}
	return s, nil
}

// handle mounts one endpoint wrapped in the whole-request latency
// histogram (admission wait, search and response writing included).
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	hist := s.reqSeconds.With(endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		hist.Observe(time.Since(t0).Seconds())
	})
}

// initMetrics registers every serving series. Push-style instruments
// measure the request path; pull-style families read engine, queue and
// runtime state at scrape time.
func (s *Server) initMetrics() {
	reg := metrics.NewRegistry()
	s.reg = reg
	lat := metrics.DefLatencyBuckets()

	s.queries = reg.Counter("krcored_queries_total", "search queries answered successfully")
	s.rejected = reg.Counter("krcored_rejected_total", "requests turned away by admission control (429)")
	s.clientErrs = reg.Counter("krcored_client_errors_total", "requests failed by the client: bad JSON, invalid parameters, cancelled while queued")
	s.serverErrs = reg.Counter("krcored_server_errors_total", "requests failed by the server (5xx): engine or journal faults")
	s.applied = reg.Counter("krcored_updates_applied_total", "update operations committed")
	s.writeFails = reg.CounterVec("krcored_response_write_failures_total", "response bodies that failed mid-write after the status was committed, by cause (disconnect: client went away; encode: server-side encoding bug)", "cause")

	s.reqSeconds = reg.HistogramVec("krcored_http_request_seconds", "whole-request latency by endpoint (admission wait included)", lat, "endpoint")
	s.searchSeconds = reg.HistogramVec("krcored_search_seconds", "backend search/warm duration by endpoint (admission excluded)", lat, "endpoint")
	s.admissionWait = reg.Histogram("krcored_admission_wait_seconds", "time admitted requests spent waiting for a search slot", lat)

	s.commitBatches = reg.Histogram("krcored_group_commit_batches", "ApplyBatch calls coalesced per commit round", metrics.ExponentialBuckets(1, 2, 9))
	s.commitOps = reg.Histogram("krcored_group_commit_ops", "update operations per commit round", metrics.ExponentialBuckets(1, 2, 12))
	s.journalOps = reg.Counter("krcored_journal_appended_ops_total", "operations appended to the write-ahead journal")
	s.journalWrite = reg.Histogram("krcored_journal_append_seconds", "write-ahead journal append latency (write + fsync) per commit round", lat)

	gaugeOf := func(name, help string, get func() int64) {
		reg.SampleFunc(name, help, metrics.KindGauge, nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(get())}}
		})
	}
	gaugeOf("krcored_queue_depth", "requests waiting in the admission queue right now", s.waiters.Load)
	gaugeOf("krcored_in_flight", "searches running right now", s.inFlight.Load)
	gaugeOf("krcored_peak_in_flight", "highest concurrent-search count observed", s.peak.Load)
	gaugeOf("krcored_search_slots", "admission-control concurrency limit", func() int64 { return int64(s.cfg.MaxConcurrent) })

	gaugeOf("krcored_graph_vertices", "vertices in the served graph", func() int64 { return int64(s.backend.Graph().N()) })
	gaugeOf("krcored_graph_edges", "undirected edges in the served graph", func() int64 { return int64(s.backend.Graph().M()) })
	reg.SampleFunc("krcored_dataset_info", "always 1; the dataset label names the served dataset", metrics.KindGauge, []string{"dataset"}, func() []metrics.Sample {
		return []metrics.Sample{{Labels: []string{s.cfg.Dataset}, Value: 1}}
	})

	engineOf := func(name, help string, kind metrics.Kind, get func(krcore.EngineStats) float64) {
		reg.SampleFunc(name, help, kind, nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: get(s.backend.Stats())}}
		})
	}
	engineOf("krcored_engine_cache_hits_total", "queries served from fully-prepared cached state", metrics.KindCounter,
		func(st krcore.EngineStats) float64 { return float64(st.Hits) })
	engineOf("krcored_engine_cache_misses_total", "queries that paid preparation latency", metrics.KindCounter,
		func(st krcore.EngineStats) float64 { return float64(st.Misses) })
	engineOf("krcored_engine_thresholds", "distinct r thresholds with cached oracle state", metrics.KindGauge,
		func(st krcore.EngineStats) float64 { return float64(st.Thresholds) })
	engineOf("krcored_engine_prepared", "distinct (k,r) settings with cached candidate components", metrics.KindGauge,
		func(st krcore.EngineStats) float64 { return float64(st.Prepared) })

	settingOf := func(name, help string, get func(krcore.SettingStats) float64) {
		reg.SampleFunc(name, help, metrics.KindCounter, []string{"k", "r"}, func() []metrics.Sample {
			stats := s.backend.SettingsStats()
			out := make([]metrics.Sample, 0, len(stats))
			for _, st := range stats {
				out = append(out, metrics.Sample{
					Labels: []string{strconv.Itoa(st.K), strconv.FormatFloat(st.R, 'g', -1, 64)},
					Value:  get(st),
				})
			}
			return out
		})
	}
	settingOf("krcored_engine_setting_hits_total", "cache hits per (k,r) setting",
		func(st krcore.SettingStats) float64 { return float64(st.Hits) })
	settingOf("krcored_engine_setting_misses_total", "cache misses per (k,r) setting",
		func(st krcore.SettingStats) float64 { return float64(st.Misses) })

	if s.updater != nil {
		dynOf := func(name, help string, kind metrics.Kind, get func(krcore.DynamicStats) int64) {
			reg.SampleFunc(name, help, kind, nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(get(s.updater.DynamicStats()))}}
			})
		}
		dynOf("krcored_dynamic_updates_total", "individual update operations accepted", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.Updates })
		dynOf("krcored_dynamic_batches_total", "ApplyBatch commits", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.Batches })
		dynOf("krcored_dynamic_group_commits_total", "commit rounds (concurrent batches coalesce)", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.GroupCommits })
		dynOf("krcored_dynamic_version", "published graph snapshot version", metrics.KindGauge,
			func(st krcore.DynamicStats) int64 { return st.Version })
		dynOf("krcored_dynamic_patches_incremental_total", "cached settings maintained by bounded core repair", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.PatchesIncremental })
		dynOf("krcored_dynamic_patches_full_total", "cached settings maintained by full recompute fallback", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.PatchesFull })
		dynOf("krcored_dynamic_indexes_kept_total", "per-threshold similarity indexes carried across a commit", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.IndexesKept })
		dynOf("krcored_dynamic_indexes_rebuilt_total", "per-threshold similarity indexes rebuilt by a commit", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.IndexesRebuilt })
		dynOf("krcored_dynamic_components_reused_total", "prepared (k,r) candidate components carried across a commit", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.ComponentsReused })
		dynOf("krcored_dynamic_components_rebuilt_total", "prepared (k,r) candidate components rebuilt by a commit", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.ComponentsRebuilt })
		dynOf("krcored_dynamic_core_visited_total", "vertices scanned by incremental core maintenance", metrics.KindCounter,
			func(st krcore.DynamicStats) int64 { return st.CoreVisited })
	}
	if s.cfg.JournalLen != nil {
		gaugeOf("krcored_journal_tail_ops", "operations in the journal tail (crash-recovery replay cost)", s.cfg.JournalLen)
	}
	s.initReplicationMetrics(gaugeOf)

	reg.SampleFunc("krcored_go_goroutines", "live goroutines in the daemon", metrics.KindGauge, nil, func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(runtime.NumGoroutine())}}
	})
	reg.SampleFunc("krcored_go_memstats", "daemon allocator state by stat (one runtime.ReadMemStats per scrape)", metrics.KindGauge, []string{"stat"}, func() []metrics.Sample {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return []metrics.Sample{
			{Labels: []string{"heap_alloc_bytes"}, Value: float64(ms.HeapAlloc)},
			{Labels: []string{"heap_objects"}, Value: float64(ms.HeapObjects)},
			{Labels: []string{"total_alloc_bytes"}, Value: float64(ms.TotalAlloc)},
			{Labels: []string{"sys_bytes"}, Value: float64(ms.Sys)},
			{Labels: []string{"num_gc"}, Value: float64(ms.NumGC)},
			{Labels: []string{"gc_pause_seconds_total"}, Value: float64(ms.PauseTotalNs) / 1e9},
		}
	})
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metric registry — the families behind
// GET /metrics. The embedding daemon may register additional series on
// it before serving.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// ObserveGroupCommit records one committed write round's coalescing
// shape. Wire it as the dynamic engine's commit observer
// (krcore.DynamicEngine.SetCommitObserver) to populate the
// group-commit histograms.
func (s *Server) ObserveGroupCommit(ci krcore.CommitInfo) {
	s.commitBatches.Observe(float64(ci.Batches))
	s.commitOps.Observe(float64(ci.Ops))
}

// ObserveJournalAppend records one durable journal append. Wire it as
// the journal's append observer (updates.Journal.SetAppendObserver) to
// populate the journal ops counter and fsync-latency histogram.
func (s *Server) ObserveJournalAppend(ops int, elapsed time.Duration) {
	s.journalOps.Add(int64(ops))
	s.journalWrite.Observe(elapsed.Seconds())
}

// errBusy reports an admission-control rejection.
var errBusy = errors.New("server: all search slots busy")

// acquire takes one search slot, waiting in the bounded admission
// queue when none is free. It fails with errBusy when the queue is
// full or the wait exceeds QueueWait, and with ctx.Err() when the
// request is cancelled while queued. Admitted requests record their
// wait in the admission histogram; rejections surface through the
// rejected/client-error counters instead.
func (s *Server) acquire(ctx context.Context) error {
	t0 := time.Now()
	select {
	case s.slots <- struct{}{}:
		s.admissionWait.Observe(time.Since(t0).Seconds())
		return nil
	default:
	}
	if s.waiters.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiters.Add(-1)
		return errBusy
	}
	defer s.waiters.Add(-1)
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		s.admissionWait.Observe(time.Since(t0).Seconds())
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return errBusy
	}
}

// release returns a search slot.
func (s *Server) release() { <-s.slots }

// trackInFlight bumps the in-flight gauge and its observed peak; the
// returned func undoes the bump.
func (s *Server) trackInFlight() func() {
	cur := s.inFlight.Add(1)
	for {
		p := s.peak.Load()
		if cur <= p || s.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	return func() { s.inFlight.Add(-1) }
}

// writeJSON writes one JSON response body. By the time the body
// writes, the status header is committed — a failure here cannot
// change the response, so it is surfaced on the write-failure metric
// instead, split by blame: encoding bugs (a server-side type the
// encoder rejects) versus disconnects (the client stopped reading).
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.writeFails.With(writeFailCause(err)).Inc()
	}
}

// writeFailCause classifies a mid-body response failure: the JSON
// encoder's own error types mean the server tried to serialise
// something unserialisable; anything else is the transport, i.e. the
// client went away.
func writeFailCause(err error) string {
	var ute *json.UnsupportedTypeError
	var uve *json.UnsupportedValueError
	var me *json.MarshalerError
	if errors.As(err, &ute) || errors.As(err, &uve) || errors.As(err, &me) {
		return "encode"
	}
	return "disconnect"
}

// fail writes an error body and counts it: 429s as admission
// rejections, 5xx as server errors, everything else as client errors.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	switch {
	case status == http.StatusTooManyRequests:
		s.rejected.Inc()
	case status >= 500:
		s.serverErrs.Inc()
	default:
		s.clientErrs.Inc()
	}
	s.writeJSON(w, status, api.Error{Error: fmt.Sprintf(format, args...)})
}

// decode parses one JSON request body into dst.
func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.TextContentType)
	if err := s.reg.WriteText(w); err != nil {
		// Samples were gathered before the first byte was written, so
		// the only failure mode is the transport.
		s.writeFails.With("disconnect").Inc()
	}
}

// validateSetting checks a (k,r) pair — the one rejection policy for
// every endpoint that names a setting (queries and warm alike).
func validateSetting(k int, r float64) error {
	if k < 1 {
		return fmt.Errorf("k must be >= 1, got %d", k)
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return errors.New("r must be a finite number")
	}
	return nil
}

// validateQuery checks the request fields shared by both query kinds.
func validateQuery(q *api.QueryRequest) error {
	if err := validateSetting(q.K, q.R); err != nil {
		return err
	}
	if q.TimeoutMS < 0 || q.MaxNodes < 0 || q.Parallelism < 0 {
		return errors.New("timeout_ms, max_nodes and parallelism must be >= 0")
	}
	return nil
}

// queryContext derives the per-request search context and limits from
// the request fields, clamped to the server's configuration.
func (s *Server) queryContext(r *http.Request, q *api.QueryRequest) (context.Context, context.CancelFunc, krcore.Limits, int) {
	timeout := s.cfg.DefaultTimeout
	if q.TimeoutMS > 0 {
		// Clamp in milliseconds BEFORE converting: a huge timeout_ms
		// would overflow time.Duration's int64 nanoseconds to a
		// negative value and dodge a post-conversion clamp.
		ms := q.TimeoutMS
		if maxMS := s.cfg.MaxTimeout.Milliseconds(); ms > maxMS {
			ms = maxMS
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	limits := krcore.Limits{MaxNodes: q.MaxNodes}
	if s.cfg.MaxNodes > 0 && (limits.MaxNodes == 0 || limits.MaxNodes > s.cfg.MaxNodes) {
		limits.MaxNodes = s.cfg.MaxNodes
	}
	par := q.Parallelism
	if par > s.cfg.MaxParallelism {
		par = s.cfg.MaxParallelism
	}
	return ctx, cancel, limits, par
}

// admit takes one admission slot for the request, writing the 429/408
// rejection itself when none can be had; the caller must release()
// when admit returns true. One chokepoint for every slot-holding
// endpoint (queries, warms, updates) so the rejection policy cannot
// drift between them.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	err := s.acquire(r.Context())
	switch {
	case err == nil:
		return true
	case errors.Is(err, errBusy):
		s.fail(w, http.StatusTooManyRequests, "all %d search slots busy, queue full or wait exceeded", s.cfg.MaxConcurrent)
	default:
		s.fail(w, http.StatusRequestTimeout, "cancelled while queued: %v", err)
	}
	return false
}

// runQuery applies admission control around fn and renders its result,
// timing the search stage into the per-endpoint histogram.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, endpoint string, fn func() (*krcore.Result, error)) {
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	defer s.trackInFlight()()
	t0 := time.Now()
	res, err := fn()
	s.searchSeconds.With(endpoint).Observe(time.Since(t0).Seconds())
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.queries.Inc()
	st := res.Summarize()
	s.writeJSON(w, http.StatusOK, api.QueryResponse{
		Cores:     res.Cores,
		Count:     st.Count,
		MaxSize:   st.MaxSize,
		AvgSize:   st.AvgSize,
		Nodes:     res.Nodes,
		TimedOut:  res.TimedOut,
		ElapsedUS: res.Elapsed.Microseconds(),
	})
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	var q api.QueryRequest
	if err := decode(r, &q); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := validateQuery(&q); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.runQuery(w, r, "enumerate", func() (*krcore.Result, error) {
		ctx, cancel, limits, par := s.queryContext(r, &q)
		defer cancel()
		opt := krcore.EnumOptions{Limits: limits, Parallelism: par}
		if q.Vertex != nil {
			return s.backend.EnumerateContainingContext(ctx, q.K, q.R, *q.Vertex, opt)
		}
		return s.backend.EnumerateContext(ctx, q.K, q.R, opt)
	})
}

func (s *Server) handleMaximum(w http.ResponseWriter, r *http.Request) {
	var q api.QueryRequest
	if err := decode(r, &q); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := validateQuery(&q); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.runQuery(w, r, "maximum", func() (*krcore.Result, error) {
		ctx, cancel, limits, par := s.queryContext(r, &q)
		defer cancel()
		return s.backend.FindMaximumContext(ctx, q.K, q.R, krcore.MaxOptions{Limits: limits, Parallelism: par})
	})
}

func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var q api.WarmRequest
	if err := decode(r, &q); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := validateSetting(q.K, q.R); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Warming is preparation work, not search work, but it still
	// occupies a slot so a warm storm cannot starve live queries.
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	t0 := time.Now()
	err := s.backend.Warm(q.K, q.R)
	s.searchSeconds.With("warm").Observe(time.Since(t0).Seconds())
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, api.WarmResponse{Prepared: s.backend.Stats().Prepared})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	// A read-only follower redirects writes before spending any work on
	// them; the body is not even parsed.
	if s.readOnly.Load() {
		s.redirectWrite(w)
		return
	}
	var q api.UpdateRequest
	if err := decode(r, &q); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := make([]krcore.Update, 0, len(q.Updates))
	for i, wu := range q.Updates {
		up, err := wu.ToUpdate()
		if err != nil {
			s.fail(w, http.StatusBadRequest, "update %d: %v", i, err)
			return
		}
		batch = append(batch, up)
	}
	// Mutations go through admission control too: an update storm must
	// be sheddable with 429 like any other load. Admitted batches run
	// concurrently on purpose — the engine's group commit coalesces
	// simultaneous ApplyBatch calls into one commit round, so the
	// server must not serialise them. The acked Version is therefore
	// the engine version at ack time: it includes this batch's effects,
	// but concurrent batches may share it or have advanced it.
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	t0 := time.Now()
	err := s.updater.ApplyBatch(batch)
	s.searchSeconds.With("update").Observe(time.Since(t0).Seconds())
	version := s.updater.DynamicStats().Version
	g := s.backend.Graph()
	if err != nil {
		var be *krcore.BatchError
		if errors.As(err, &be) {
			s.fail(w, http.StatusBadRequest, "update %d (%s): %v (batch discarded)", be.Index, be.Op, be.Err)
		} else {
			// Not a validation rejection: the engine itself failed the
			// round — a write-ahead journal append error, typically.
			// That is the server's fault, so it serves (and counts) as
			// a 5xx, keeping client_errors clean for alerting.
			s.fail(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.applied.Add(int64(len(batch)))
	s.writeJSON(w, http.StatusOK, api.UpdateResponse{
		Applied: len(batch),
		Version: version,
		N:       g.N(),
		M:       g.M(),
	})
}
