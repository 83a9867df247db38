package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krcore"
	"krcore/client"
	"krcore/internal/metrics"
)

// testDynamic builds a dynamic engine over the same two-cluster geo
// instance as testEngine.
func testDynamic(t *testing.T) *krcore.DynamicEngine {
	t.Helper()
	const n = 40
	b := krcore.NewGraphBuilder(n)
	for c := 0; c < 2; c++ {
		base := int32(c * 20)
		for i := int32(0); i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				if (i+j)%3 != 0 {
					b.AddEdge(base+i, base+j)
				}
			}
		}
	}
	geo := krcore.NewGeoAttributes(n)
	for u := int32(0); u < n; u++ {
		geo.Set(u, float64(u/20)*100, float64(u%20))
	}
	d, err := krcore.NewDynamicEngine(b.Build(), geo)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// faultyUpdater wraps a dynamic engine but fails every ApplyBatch with
// a non-BatchError — the shape of a write-ahead journal append failure.
type faultyUpdater struct {
	*krcore.DynamicEngine
}

func (f *faultyUpdater) ApplyBatch([]krcore.Update) error {
	return errors.New("journal append: disk full")
}

// TestErrorCounterSplit is the regression test for splitting the
// lumped errs counter: client faults land in client_errors, engine
// faults in server_errors, admission rejections in neither.
func TestErrorCounterSplit(t *testing.T) {
	s, c := newTestServer(t, &faultyUpdater{testDynamic(t)}, Config{})
	ctx := context.Background()

	// Client fault 1: malformed JSON body.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/enumerate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Client fault 2: invalid parameters.
	if _, err := c.Enumerate(ctx, 0, 25, client.Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Server fault: the engine fails the batch with a non-validation
	// error; pre-split this was lumped with the client's typos.
	_, err = c.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(0, 1)})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("journal-style fault returned %v, want APIError 500", err)
	}

	if got := s.clientErrs.Value(); got != 2 {
		t.Fatalf("client errors = %d, want 2", got)
	}
	if got := s.serverErrs.Value(); got != 1 {
		t.Fatalf("server errors = %d, want 1", got)
	}
	if got := s.rejected.Value(); got != 0 {
		t.Fatalf("rejected = %d, want 0", got)
	}

	// The split must survive the export too.
	samples := scrape(t, c)
	if ce, se := samples["krcored_client_errors_total"], samples["krcored_server_errors_total"]; ce != 2 || se != 1 {
		t.Fatalf("exported errors = %v client, %v server, want 2 and 1", ce, se)
	}
}

// TestRejectionNotAnError pins that a 429 increments the rejected
// counter only — neither error counter moves.
func TestRejectionNotAnError(t *testing.T) {
	eng, _ := testEngine(t)
	s, _ := newTestServer(t, eng, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 10 * time.Millisecond})
	// Occupy the only slot and fill the queue slot so the next request
	// is turned away immediately.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	s.waiters.Add(1)
	defer s.waiters.Add(-1)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/enumerate", strings.NewReader(`{"k":3,"r":25}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if r, ce, se := s.rejected.Value(), s.clientErrs.Value(), s.serverErrs.Value(); r != 1 || ce != 0 || se != 0 {
		t.Fatalf("after 429: rejected=%d client errors=%d server errors=%d, want 1, 0, 0", r, ce, se)
	}
}

// brokenWriter is a ResponseWriter whose connection has gone away:
// every body write fails with a transport error.
type brokenWriter struct {
	h http.Header
}

func (b *brokenWriter) Header() http.Header {
	if b.h == nil {
		b.h = make(http.Header)
	}
	return b.h
}
func (b *brokenWriter) WriteHeader(int) {}
func (b *brokenWriter) Write([]byte) (int, error) {
	return 0, errors.New("write tcp: broken pipe")
}

// TestWriteJSONFailureMetrics checks response-write failures are no
// longer discarded: transport failures count as disconnects, encoder
// rejections as encode bugs, and successes count as neither.
func TestWriteJSONFailureMetrics(t *testing.T) {
	eng, _ := testEngine(t)
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}

	s.writeJSON(&brokenWriter{}, http.StatusOK, map[string]string{"ok": "yes"})
	if got := s.writeFails.With("disconnect").Value(); got != 1 {
		t.Fatalf("disconnect failures = %d, want 1", got)
	}
	if got := s.writeFails.With("encode").Value(); got != 0 {
		t.Fatalf("encode failures = %d, want 0", got)
	}

	// A channel is unserialisable: the encoder itself fails even though
	// the writer is fine — that is a server-side bug, not a disconnect.
	s.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]any{"ch": make(chan int)})
	if got := s.writeFails.With("encode").Value(); got != 1 {
		t.Fatalf("encode failures = %d, want 1", got)
	}

	s.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]string{"ok": "yes"})
	if d, e := s.writeFails.With("disconnect").Value(), s.writeFails.With("encode").Value(); d != 1 || e != 1 {
		t.Fatalf("counters moved on a successful write: disconnect=%d encode=%d", d, e)
	}
}

// TestAdmissionAccountingStress hammers the admission path from many
// goroutines — immediate grabs, queued waits, cancelled contexts and
// timed-out waits all interleaved — then checks the books balance: the
// waiters gauge returns to zero, no slot leaks, in-flight drains, and
// the recorded peak is monotonic and at least the maximum concurrency
// actually observed. Run with -race to check the accounting is also
// data-race-free.
func TestAdmissionAccountingStress(t *testing.T) {
	eng, _ := testEngine(t)
	s, err := New(eng, Config{MaxConcurrent: 3, MaxQueue: 8, QueueWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	const iters = 150
	var maxSeen atomic.Int64
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < iters; n++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(4) {
				case 0: // cancelled while queued
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				case 1: // already dead on arrival
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				err := s.acquire(ctx)
				cancel()
				if err != nil {
					rejected.Add(1)
					continue
				}
				admitted.Add(1)
				done := s.trackInFlight()
				cur := s.inFlight.Load()
				for {
					m := maxSeen.Load()
					if cur <= m || maxSeen.CompareAndSwap(m, cur) {
						break
					}
				}
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				}
				done()
				s.release()
			}
		}(int64(i))
	}
	wg.Wait()

	if got := s.waiters.Load(); got != 0 {
		t.Errorf("waiters gauge = %d after drain, want 0", got)
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0", got)
	}
	if got := len(s.slots); got != 0 {
		t.Errorf("%d search slots leaked", got)
	}
	peak := s.peak.Load()
	if peak < maxSeen.Load() {
		t.Errorf("peak %d below observed concurrency %d", peak, maxSeen.Load())
	}
	if peak > int64(s.cfg.MaxConcurrent) {
		t.Errorf("peak %d exceeds the admission limit %d", peak, s.cfg.MaxConcurrent)
	}
	if admitted.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("stress exercised only one path: admitted=%d rejected=%d", admitted.Load(), rejected.Load())
	}
	// One more acquire must still work: no slot was lost.
	if err := s.acquire(context.Background()); err != nil {
		t.Fatalf("post-stress acquire failed: %v", err)
	}
	s.release()
}

// TestMetricsEndpoint drives real traffic through the server and
// checks the Prometheus export end to end: content type, well-formed
// families, live query counters, per-endpoint histograms and
// per-setting cache series.
func TestMetricsEndpoint(t *testing.T) {
	eng, _ := testEngine(t)
	s, c := newTestServer(t, eng, Config{Dataset: "toy"})
	ctx := context.Background()

	if err := c.Warm(ctx, 3, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Enumerate(ctx, 3, 25, client.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.FindMaximum(ctx, 3, 25, client.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Enumerate(ctx, 0, 25, client.Options{}); err == nil {
		t.Fatal("invalid query accepted")
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("content type %q, want %q", ct, metrics.TextContentType)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "# TYPE krcored_queries_total counter") ||
		!strings.Contains(text, "# TYPE krcored_http_request_seconds histogram") {
		t.Fatalf("export missing TYPE headers:\n%s", text)
	}
	samples := client.ParseMetrics(text)
	checks := []struct {
		series string
		want   float64
	}{
		{"krcored_queries_total", 4},
		{"krcored_client_errors_total", 1},
		{"krcored_server_errors_total", 0},
		{`krcored_http_request_seconds_count{endpoint="enumerate"}`, 4},
		{`krcored_search_seconds_count{endpoint="maximum"}`, 1},
		{"krcored_admission_wait_seconds_count", 5},
		{`krcored_engine_setting_hits_total{k="3",r="25"}`, 4},
		{`krcored_engine_setting_misses_total{k="3",r="25"}`, 1},
		{"krcored_search_slots", 4},
		{"krcored_queue_depth", 0},
	}
	for _, ck := range checks {
		got, ok := samples[ck.series]
		if !ok {
			t.Errorf("series %s missing from export", ck.series)
			continue
		}
		if got != ck.want {
			t.Errorf("%s = %v, want %v", ck.series, got, ck.want)
		}
	}
	// Histogram plumbing: the +Inf bucket of the request histogram must
	// agree with its _count.
	inf := samples[`krcored_http_request_seconds_bucket{endpoint="enumerate",le="+Inf"}`]
	if inf != samples[`krcored_http_request_seconds_count{endpoint="enumerate"}`] {
		t.Errorf("+Inf bucket %v disagrees with count", inf)
	}
	if _, ok := samples["krcored_go_goroutines"]; !ok {
		t.Error("runtime gauges missing from export")
	}
}

// TestDynamicMetricsWiring checks the dynamic-only series: update
// counters, group-commit observers routed from the engine, the journal
// gauge fed by Config.JournalLen, and the scoped-invalidation counters
// of DynamicStats.
func TestDynamicMetricsWiring(t *testing.T) {
	d := testDynamic(t)
	var tail atomic.Int64
	s, c := newTestServer(t, d, Config{JournalLen: tail.Load})
	d.SetCommitObserver(s.ObserveGroupCommit)
	ctx := context.Background()

	if err := c.Warm(ctx, 3, 25); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyBatch(ctx, []krcore.Update{krcore.AddVertexUpdate()}); err != nil {
		t.Fatal(err)
	}
	s.ObserveJournalAppend(1, 250*time.Microsecond)
	tail.Store(7)

	samples := scrape(t, c)
	for series, want := range map[string]float64{
		"krcored_updates_applied_total":        1,
		"krcored_dynamic_batches_total":        1,
		"krcored_dynamic_group_commits_total":  1,
		"krcored_group_commit_batches_count":   1,
		"krcored_group_commit_ops_sum":         1,
		"krcored_journal_appended_ops_total":   1,
		"krcored_journal_append_seconds_count": 1,
		"krcored_journal_tail_ops":             7,
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// A structure-only batch after the growth batch: the growth rebuilt
	// the warmed index, this one keeps it, so every scoped-invalidation
	// counter has moved and none of the checks below compares 0 with 0.
	if _, err := c.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(0, 3)}); err != nil {
		t.Fatal(err)
	}
	ds := d.DynamicStats()
	if ds.IndexesKept == 0 || ds.IndexesRebuilt == 0 || ds.ComponentsReused == 0 || ds.ComponentsRebuilt == 0 {
		t.Fatalf("writes left a scoped-invalidation counter at zero: %+v", ds)
	}
	samples = scrape(t, c)
	for series, want := range map[string]int64{
		"krcored_dynamic_indexes_kept_total":       ds.IndexesKept,
		"krcored_dynamic_indexes_rebuilt_total":    ds.IndexesRebuilt,
		"krcored_dynamic_components_reused_total":  ds.ComponentsReused,
		"krcored_dynamic_components_rebuilt_total": ds.ComponentsRebuilt,
		"krcored_dynamic_core_visited_total":       ds.CoreVisited,
		"krcored_graph_vertices":                   41,
	} {
		if got, ok := samples[series]; !ok || got != float64(want) {
			t.Errorf("%s = %v (exported: %v), want %d", series, got, ok, want)
		}
	}
}

// scrape fetches and parses the server's /metrics export.
func scrape(t *testing.T, c *client.Client) map[string]float64 {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return client.ParseMetrics(text)
}

// TestParseMetrics pins the client-side scraper on a hand-written
// export, including labeled series, comments and malformed lines.
func TestParseMetrics(t *testing.T) {
	text := "# HELP x help\n# TYPE x counter\nx 41\n" +
		"h_bucket{le=\"+Inf\"} 3\nh_sum 0.5\n" +
		"bad line with no number trailing\n\n"
	got := client.ParseMetrics(text)
	want := map[string]float64{
		"x":                   41,
		`h_bucket{le="+Inf"}`: 3,
		"h_sum":               0.5,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if fmt.Sprint(got["missing"]) != "0" {
		t.Error("missing series should read zero")
	}
}
