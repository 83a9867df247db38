package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"krcore"
	"krcore/api"
	"krcore/client"
)

// testEngine builds a small two-cluster geo instance and a static
// engine over it.
func testEngine(t *testing.T) (*krcore.Engine, *krcore.Graph) {
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
	b.AddEdge(19, 20)
	g := b.Build()
	geo := krcore.NewGeoAttributes(n)
	for u := int32(0); u < n; u++ {
		geo.Set(u, float64(u/20)*100, float64(u%20))
	}
	return krcore.NewEngine(g, geo.Metric()), g
}

func newTestServer(t *testing.T, b Backend, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, client.New(hs.URL)
}

func TestServerQueryRoundTrip(t *testing.T) {
	eng, g := testEngine(t)
	s, c := newTestServer(t, eng, Config{Dataset: "toy"})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Warm(ctx, 3, 25); err != nil {
		t.Fatal(err)
	}

	want, err := eng.Enumerate(3, 25, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Enumerate(ctx, 3, 25, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) {
		t.Fatalf("HTTP enumerate diverged: %v != %v", got.Cores, want.Cores)
	}
	if got.Nodes != want.Nodes {
		t.Fatalf("HTTP node count diverged: %d != %d", got.Nodes, want.Nodes)
	}
	st := want.Summarize()
	if got.Count != st.Count || got.MaxSize != st.MaxSize || got.AvgSize != st.AvgSize {
		t.Fatalf("summary diverged: %+v vs %+v", got, st)
	}

	wantMax, err := eng.FindMaximum(3, 25, krcore.MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotMax, err := c.FindMaximum(ctx, 3, 25, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotMax.Cores) != fmt.Sprint(wantMax.Cores) {
		t.Fatalf("HTTP maximum diverged: %v != %v", gotMax.Cores, wantMax.Cores)
	}

	v := int32(3)
	wantV, err := eng.EnumerateContaining(3, 25, v, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotV, err := c.EnumerateContaining(ctx, 3, 25, v, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotV.Cores) != fmt.Sprint(wantV.Cores) {
		t.Fatalf("HTTP containing diverged: %v != %v", gotV.Cores, wantV.Cores)
	}

	samples := scrape(t, c)
	est := eng.Stats()
	for series, want := range map[string]float64{
		"krcored_graph_vertices":              float64(g.N()),
		"krcored_graph_edges":                 float64(g.M()),
		`krcored_dataset_info{dataset="toy"}`: 1,
		"krcored_engine_cache_hits_total":     float64(est.Hits),
		"krcored_engine_cache_misses_total":   float64(est.Misses),
		"krcored_queries_total":               3,
		"krcored_rejected_total":              0,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("%s = %v (exported: %v), want %v", series, got, ok, want)
		}
	}
	for series := range samples {
		if strings.HasPrefix(series, "krcored_dynamic_") {
			t.Errorf("static engine exports dynamic series %s", series)
		}
	}
	if s.updater != nil {
		t.Fatal("static engine reported dynamic")
	}
}

func TestServerValidation(t *testing.T) {
	eng, _ := testEngine(t)
	_, c := newTestServer(t, eng, Config{})
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
	}{
		{"k=0", func() error { _, err := c.Enumerate(ctx, 0, 10, client.Options{}); return err }},
		{"negative nodes", func() error {
			_, err := c.Enumerate(ctx, 2, 10, client.Options{MaxNodes: -1})
			return err
		}},
		{"out-of-range vertex", func() error {
			_, err := c.EnumerateContaining(ctx, 2, 10, 4000, client.Options{})
			return err
		}},
		{"warm k=0", func() error { return c.Warm(ctx, 0, 10) }},
	}
	for _, tc := range cases {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "krcored: 4") {
			t.Errorf("%s: not an API error: %v", tc.name, err)
		}
	}
	// NaN r never reaches the engine: JSON cannot encode it, so the
	// client fails locally; raw bad JSON gets a 400.
	resp, err := http.Post(srvURL(t, eng)+api.PathEnumerate, "application/json", strings.NewReader(`{"k":2,"r":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON got %d", resp.StatusCode)
	}
	// Unknown endpoint and wrong method 404/405.
	resp2, err := http.Get(srvURL(t, eng) + "/v1/enumerate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("GET on a POST endpoint succeeded")
	}
	// /metrics is the only stats surface: there is no JSON stats
	// endpoint.
	resp3, err := http.Get(srvURL(t, eng) + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats got %d, want 404", resp3.StatusCode)
	}
}

// srvURL spins one extra throwaway server (some subtests need a raw
// URL rather than a client).
func srvURL(t *testing.T, b Backend) string {
	t.Helper()
	s, err := New(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

// blockingBackend parks every query until released, so tests can fill
// the admission slots deterministically.
type blockingBackend struct {
	*krcore.Engine
	release chan struct{}
	entered chan struct{}
}

func (b *blockingBackend) EnumerateContext(ctx context.Context, k int, r float64, opt krcore.EnumOptions) (*krcore.Result, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Engine.EnumerateContext(ctx, k, r, opt)
}

func TestServerAdmissionControl(t *testing.T) {
	eng, _ := testEngine(t)
	if err := eng.Warm(3, 25); err != nil {
		t.Fatal(err)
	}
	bb := &blockingBackend{
		Engine:  eng,
		release: make(chan struct{}),
		entered: make(chan struct{}, 16),
	}
	s, c := newTestServer(t, bb, Config{
		MaxConcurrent: 2,
		MaxQueue:      1,
		QueueWait:     100 * time.Millisecond,
	})
	ctx := context.Background()

	// Fill both slots with blocked searches.
	var wg sync.WaitGroup
	results := make(chan error, 3)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Enumerate(ctx, 3, 25, client.Options{})
			results <- err
		}()
	}
	<-bb.entered
	<-bb.entered

	// The third request queues (queue capacity 1) and times out after
	// QueueWait with 429; it never reaches the backend.
	_, err := c.Enumerate(ctx, 3, 25, client.Options{})
	if !client.IsBusy(err) {
		t.Fatalf("queued request did not get 429: %v", err)
	}

	// With the queue drained, a fourth immediate request has the queue
	// to itself, waits, and is also rejected after QueueWait.
	_, err = c.Enumerate(ctx, 3, 25, client.Options{})
	if !client.IsBusy(err) {
		t.Fatalf("second queued request did not get 429: %v", err)
	}

	close(bb.release)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.rejected.Value(); got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
	if got := s.peak.Load(); got > 2 {
		t.Fatalf("peak in-flight %d exceeded the limit 2", got)
	}
	if got := s.queries.Value(); got != 2 {
		t.Fatalf("queries = %d, want 2", got)
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge did not return to 0: %d", got)
	}
}

func TestServerRequestDeadline(t *testing.T) {
	eng, _ := testEngine(t)
	_, c := newTestServer(t, eng, Config{})
	// A 1ms budget cannot finish a cold query; the daemon reports a
	// truncated result rather than an error, mirroring Limits.
	res, err := c.Enumerate(context.Background(), 3, 25, client.Options{Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Skip("machine fast enough to finish within 1ms; nothing to assert")
	}
}

// TestServerHugeTimeoutClamped regresses the timeout_ms overflow: a
// raw request deadline large enough that ms-to-nanoseconds conversion
// would overflow time.Duration must clamp to MaxTimeout, not wrap
// negative and abort the search instantly. (The Go client cannot
// produce such a value — its Timeout is already a Duration — so the
// test speaks raw JSON like a non-Go client would.)
func TestServerHugeTimeoutClamped(t *testing.T) {
	eng, _ := testEngine(t)
	url := srvURL(t, eng)
	resp, err := http.Post(url+api.PathEnumerate, "application/json",
		strings.NewReader(`{"k":3,"r":25,"timeout_ms":10000000000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var q api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.TimedOut {
		t.Fatalf("huge timeout_ms wrapped negative and aborted the search: %+v", q)
	}
	if len(q.Cores) == 0 {
		t.Fatal("no cores returned")
	}
}

func TestServerMaxNodesClamp(t *testing.T) {
	eng, _ := testEngine(t)
	_, c := newTestServer(t, eng, Config{MaxNodes: 1})
	// The server clamp caps even requests that ask for more.
	res, err := c.Enumerate(context.Background(), 3, 25, client.Options{MaxNodes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 1 {
		t.Fatalf("node clamp ignored: %d nodes", res.Nodes)
	}
}

func TestServerDynamicUpdates(t *testing.T) {
	const n = 30
	b := krcore.NewGraphBuilder(n)
	for i := int32(0); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			b.AddEdge(i, j)
		}
	}
	g := b.Build()
	geo := krcore.NewGeoAttributes(n)
	for u := int32(0); u < n; u++ {
		geo.Set(u, float64(u), 0)
	}
	deng, err := krcore.NewDynamicEngine(g, geo)
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, deng, Config{})
	ctx := context.Background()
	if s.updater == nil {
		t.Fatal("dynamic engine not detected")
	}

	resp, err := c.ApplyBatch(ctx, []krcore.Update{
		krcore.AddEdgeUpdate(10, 11),
		krcore.AddEdgeUpdate(11, 12),
		krcore.SetAttributesUpdate(10, krcore.VertexAttributes{X: 1, Y: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 3 || resp.M != g.M()+2 || resp.Version != 1 {
		t.Fatalf("bad update ack: %+v", resp)
	}

	// An invalid op rejects the whole batch atomically; the error names
	// the offender and the graph is unchanged.
	before := deng.M()
	_, err = c.ApplyBatch(ctx, []krcore.Update{
		krcore.AddEdgeUpdate(1, 2),
		krcore.AddEdgeUpdate(0, 9999),
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if !strings.Contains(err.Error(), "update 1") || !strings.Contains(err.Error(), "batch discarded") {
		t.Fatalf("rejection does not name the offender: %v", err)
	}
	if deng.M() != before {
		t.Fatal("rejected batch partially committed")
	}

	// Queries serve the mutated snapshot; /metrics reports dynamic state.
	want, err := deng.Enumerate(2, 5, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Enumerate(ctx, 2, 5, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) {
		t.Fatalf("dynamic HTTP enumerate diverged: %v != %v", got.Cores, want.Cores)
	}
	samples := scrape(t, c)
	updates, ok := samples["krcored_dynamic_updates_total"]
	if !ok {
		t.Fatal("/metrics missing the dynamic series")
	}
	if applied := samples["krcored_updates_applied_total"]; updates != 3 || applied != 3 {
		t.Fatalf("update counters: dynamic %v, applied %v, want 3 and 3", updates, applied)
	}

	// A static server has no update endpoint at all.
	eng, _ := testEngine(t)
	_, cs := newTestServer(t, eng, Config{})
	if _, err := cs.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(0, 1)}); err == nil {
		t.Fatal("static daemon accepted an update")
	}
}

// TestServerRejectsBadWeights checks /v1/update on a weighted engine: a
// negative weight is a 400 that names the update and applies nothing,
// and the snapshot served afterwards loads as a new engine.
func TestServerRejectsBadWeights(t *testing.T) {
	const n = 6
	b := krcore.NewGraphBuilder(n)
	for u := int32(1); u < n; u++ {
		b.AddEdge(u-1, u)
	}
	ws := krcore.NewWeightedKeywordAttributes(n)
	for u := int32(0); u < n; u++ {
		ws.Set(u, []int32{1, 2}, []float64{1, 2})
	}
	deng, err := krcore.NewDynamicEngine(b.Build(), ws)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, deng, Config{Snapshot: deng.SaveSnapshot})
	ctx := context.Background()
	body := `{"updates":[{"op":"sa","u":1,"keys":[3]},{"op":"sa","u":2,"keys":[1],"weights":[-3]}]}`
	resp, err := http.Post(srvURL(t, deng)+api.PathUpdate, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "update 1") {
		t.Fatalf("negative weight: %d %s, want 400 naming update 1", resp.StatusCode, msg)
	}
	if v := deng.DynamicStats().Version; v != 0 {
		t.Fatalf("a rejected batch committed: version %d", v)
	}
	if _, err := c.ApplyBatch(ctx, []krcore.Update{krcore.SetAttributesUpdate(2, krcore.VertexAttributes{Keys: []int32{1}, Weights: []float64{0.5}})}); err != nil {
		t.Fatal(err)
	}
	rc, _, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := krcore.LoadDynamicEngine(rc); err != nil {
		t.Fatalf("served snapshot does not load: %v", err)
	}
}

func TestServerNilBackend(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil backend accepted")
	}
}
