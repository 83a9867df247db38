package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"krcore"
	"krcore/client"
	"krcore/server"
)

// startDaemon serves a small two-cluster geo instance over an
// in-process HTTP server and returns a client plus the mirrored
// in-process engine.
func startDaemon(t *testing.T, dynamic bool) (*client.Client, *krcore.Engine) {
	t.Helper()
	const n = 30
	build := func() (*krcore.Graph, *krcore.GeoAttributes) {
		b := krcore.NewGraphBuilder(n)
		for c := 0; c < 2; c++ {
			base := int32(c * 15)
			for i := int32(0); i < 15; i++ {
				for j := i + 1; j < 15; j++ {
					if (i+j)%4 != 0 {
						b.AddEdge(base+i, base+j)
					}
				}
			}
		}
		g := b.Build()
		geo := krcore.NewGeoAttributes(n)
		for u := int32(0); u < n; u++ {
			geo.Set(u, float64(u/15)*1000, float64(u%15))
		}
		return g, geo
	}
	g, geo := build()
	var backend server.Backend
	if dynamic {
		deng, err := krcore.NewDynamicEngine(g, geo)
		if err != nil {
			t.Fatal(err)
		}
		backend = deng
	} else {
		backend = krcore.NewEngine(g, geo.Metric())
	}
	s, err := server.New(backend, server.Config{Dataset: "toy"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	g2, geo2 := build()
	return client.New(hs.URL), krcore.NewEngine(g2, geo2.Metric())
}

func TestClientRoundTrip(t *testing.T) {
	c, local := startDaemon(t, false)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Warm(ctx, 3, 20); err != nil {
		t.Fatal(err)
	}
	want, err := local.Enumerate(3, 20, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Enumerate(ctx, 3, 20, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
		t.Fatalf("enumerate diverged: %+v vs %+v", got, want)
	}

	wantMax, err := local.FindMaximum(3, 20, krcore.MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotMax, err := c.FindMaximum(ctx, 3, 20, client.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotMax.Cores) != fmt.Sprint(wantMax.Cores) {
		t.Fatalf("maximum diverged: %+v vs %+v", gotMax, wantMax)
	}

	v := want.Cores[0][0]
	gotV, err := c.EnumerateContaining(ctx, 3, 20, v, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range gotV.Cores {
		found := false
		for _, u := range core {
			if u == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("containing core misses v=%d: %v", v, core)
		}
	}

	st := scrape(t, c)
	if st[`krcored_dataset_info{dataset="toy"}`] != 1 || st["krcored_engine_prepared"] < 1 || st["krcored_queries_total"] != 3 {
		t.Fatalf("bad metrics: dataset_info %v, prepared %v, queries %v",
			st[`krcored_dataset_info{dataset="toy"}`], st["krcored_engine_prepared"], st["krcored_queries_total"])
	}
}

// scrape fetches and parses a daemon's /metrics export.
func scrape(t *testing.T, c *client.Client) map[string]float64 {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return client.ParseMetrics(text)
}

func TestClientApplyBatch(t *testing.T) {
	c, _ := startDaemon(t, true)
	ctx := context.Background()
	resp, err := c.ApplyBatch(ctx, []krcore.Update{
		krcore.AddVertexUpdate(),
		krcore.SetAttributesUpdate(30, krcore.VertexAttributes{X: 5, Y: 5}),
		krcore.AddEdgeUpdate(30, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 3 || resp.N != 31 {
		t.Fatalf("bad ack: %+v", resp)
	}
	// A locally-invalid update fails before any HTTP traffic.
	if _, err := c.ApplyBatch(ctx, []krcore.Update{{Op: krcore.UpdateOp(99)}}); err == nil {
		t.Fatal("unserialisable op accepted")
	}
	// A server-side-invalid update is rejected with an APIError.
	_, err = c.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(0, 4000)})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 APIError, got %v", err)
	}
}

func TestClientErrors(t *testing.T) {
	ctx := context.Background()

	// 429 surfaces through IsBusy.
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"busy"}`)
	}))
	defer busy.Close()
	c := client.New(busy.URL)
	_, err := c.Enumerate(ctx, 2, 1, client.Options{})
	if !client.IsBusy(err) {
		t.Fatalf("want busy, got %v", err)
	}
	if !strings.Contains(err.Error(), "busy") {
		t.Fatalf("lost the daemon's message: %v", err)
	}
	if client.IsBusy(fmt.Errorf("plain")) {
		t.Fatal("IsBusy on a non-API error")
	}

	// Non-JSON error bodies fall back to the HTTP status.
	raw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer raw.Close()
	if err := client.New(raw.URL).Health(ctx); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("want 500 error, got %v", err)
	}

	// Garbage success bodies are a decode error.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "not json")
	}))
	defer garbage.Close()
	if err := client.New(garbage.URL).Health(ctx); err == nil {
		t.Fatal("garbage body decoded")
	}

	// Unreachable daemons fail with a transport error.
	if err := client.New("http://127.0.0.1:1").Health(ctx); err == nil {
		t.Fatal("unreachable daemon healthy")
	}

	// A cancelled context aborts the round-trip.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer slow.Close()
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := client.New(slow.URL).Health(cctx); err == nil {
		t.Fatal("cancelled context ignored")
	}

	// An unhealthy status is an error even on HTTP 200.
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"draining"}`)
	}))
	defer sick.Close()
	if err := client.New(sick.URL).Health(ctx); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("unhealthy status accepted: %v", err)
	}
}

func TestClientWithHTTPClient(t *testing.T) {
	hits := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer hs.Close()
	hc := &http.Client{Timeout: time.Second}
	c := client.New(hs.URL+"/", client.WithHTTPClient(hc))
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("custom http.Client not used: %d hits", hits)
	}
	ae := &client.APIError{StatusCode: 429, Message: "x"}
	if !strings.Contains(ae.Error(), "429") {
		t.Fatal(ae.Error())
	}
}

// TestClientMetrics scrapes a real daemon's Prometheus export and
// round-trips it through ParseMetrics.
func TestClientMetrics(t *testing.T) {
	c, _ := startDaemon(t, false)
	ctx := context.Background()
	if _, err := c.Enumerate(ctx, 3, 20, client.Options{}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "# TYPE krcored_queries_total counter") {
		t.Fatalf("export missing TYPE header:\n%s", text)
	}
	samples := client.ParseMetrics(text)
	if samples["krcored_queries_total"] != 1 {
		t.Fatalf("krcored_queries_total = %v, want 1", samples["krcored_queries_total"])
	}
	if samples[`krcored_http_request_seconds_count{endpoint="enumerate"}`] != 1 {
		t.Fatalf("enumerate histogram missing: %v", samples)
	}
}

// TestClientMetricsErrors pins the scrape's failure modes: non-2xx
// responses surface as APIError, dead daemons as transport errors.
func TestClientMetricsErrors(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no metrics here", http.StatusNotFound)
	}))
	defer hs.Close()
	ctx := context.Background()
	_, err := client.New(hs.URL).Metrics(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("got %v, want APIError 404", err)
	}
	hs.Close()
	if _, err := client.New(hs.URL).Metrics(ctx); err == nil {
		t.Fatal("scrape of a dead daemon succeeded")
	}
}

// TestParseMetricsSkipsNoise checks the parser tolerates comments,
// blanks and malformed lines without failing the scrape.
func TestParseMetricsSkipsNoise(t *testing.T) {
	got := client.ParseMetrics("# HELP a b\na 1\n\nnot a sample at all\nb{x=\"y\"} 2.5\nbad NaNish trailing-word\n")
	if len(got) != 2 || got["a"] != 1 || got[`b{x="y"}`] != 2.5 {
		t.Fatalf("parsed %v", got)
	}
}
