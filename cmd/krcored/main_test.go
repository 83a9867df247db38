package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"krcore"
	"krcore/client"
	"krcore/internal/dataset"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the
// daemon's stdout while it runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRe = regexp.MustCompile(`listening on http://([^\s]+)`)

// startDaemon runs the daemon in-process and returns a client bound to
// its ephemeral port plus a shutdown func that asserts a clean drain.
func startDaemon(t *testing.T, args ...string) (*client.Client, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &out, &out) }()

	deadline := time.Now().Add(30 * time.Second)
	var addr string
	for addr == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never listened:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutdown := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon shutdown: %v\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon did not drain:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "draining in-flight queries") {
			t.Fatalf("no graceful drain logged:\n%s", out.String())
		}
	}
	return client.New("http://" + addr), shutdown
}

// scrape fetches and parses the daemon's /metrics export.
func scrape(t *testing.T, c *client.Client) map[string]float64 {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return client.ParseMetrics(text)
}

func TestDaemonSmoke(t *testing.T) {
	c, shutdown := startDaemon(t,
		"-data", "brightkite", "-addr", "127.0.0.1:0", "-warm", "5,4:25", "-concurrency", "2")
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st := scrape(t, c)
	_, dynamic := st["krcored_dynamic_version"]
	if st[`krcored_dataset_info{dataset="brightkite"}`] != 1 || st["krcored_engine_prepared"] != 2 || dynamic {
		t.Fatalf("bad metrics after warm: dataset_info %v, prepared %v, dynamic %v",
			st[`krcored_dataset_info{dataset="brightkite"}`], st["krcored_engine_prepared"], dynamic)
	}

	// Round-trip a warmed query and compare with an in-process engine.
	d, err := dataset.Load("brightkite")
	if err != nil {
		t.Fatal(err)
	}
	eng := krcore.NewEngine(d.Graph, d.Metric())
	want, err := eng.Enumerate(5, 10, krcore.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Enumerate(ctx, 5, 10, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) || got.Nodes != want.Nodes {
		t.Fatal("daemon result differs from in-process engine")
	}
	// The warmed setting was a cache hit.
	if hits := scrape(t, c)["krcored_engine_cache_hits_total"]; hits < 1 {
		t.Fatalf("warmed query was not a hit: %v hits", hits)
	}
	shutdown()
}

func TestDaemonDynamic(t *testing.T) {
	dir := t.TempDir()
	cfg, err := dataset.Preset("gowalla")
	if err != nil {
		t.Fatal(err)
	}
	cfg.N = 200
	cfg.NumCommunities = 6
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c, shutdown := startDaemon(t, "-load", path, "-dynamic", "-addr", "127.0.0.1:0", "-warm", "4:12")
	ctx := context.Background()
	st := scrape(t, c)
	if _, dynamic := st["krcored_dynamic_version"]; !dynamic || st["krcored_graph_vertices"] != 200 {
		t.Fatalf("bad dynamic metrics: dynamic %v, %v vertices", dynamic, st["krcored_graph_vertices"])
	}
	if _, err := c.ApplyBatch(ctx, []krcore.Update{
		krcore.AddVertexUpdate(),
		krcore.AddEdgeUpdate(200, 0),
	}); err != nil {
		t.Fatal(err)
	}
	st = scrape(t, c)
	if st["krcored_graph_vertices"] != 201 || st["krcored_dynamic_updates_total"] != 2 {
		t.Fatalf("update not visible: %v vertices, %v updates", st["krcored_graph_vertices"], st["krcored_dynamic_updates_total"])
	}
	if _, err := c.Enumerate(ctx, 4, 12, client.Options{}); err != nil {
		t.Fatal(err)
	}
	shutdown()
}

func TestDaemonErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("zz nonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                                                // no dataset
		{"-data", "gowalla", "-load", bad},                // both sources
		{"-data", "nosuch"},                               // unknown preset
		{"-load", filepath.Join(dir, "no")},               // missing file
		{"-load", bad},                                    // unparseable dataset
		{"-data", "brightkite", "-warm", "x"},             // bad warm k
		{"-data", "brightkite", "-warm", "5:x"},           // bad warm r
		{"-data", "brightkite", "-warm", ","},             // empty warm
		{"-data", "brightkite", "-warm", "0:10"},          // k < 1
		{"-data", "brightkite", "-addr", "nonsense:port"}, // unlistenable
		{"-badflag"},                                      // flag error
	}
	for _, args := range cases {
		var out bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := run(ctx, args, &out, &out)
		cancel()
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestParseWarmDefaults(t *testing.T) {
	d, err := dataset.Load("brightkite")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := parseWarm("5, 6:42.5", d)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != (warmSpec{k: 5, r: 10}) || specs[1] != (warmSpec{k: 6, r: 42.5}) {
		t.Fatalf("bad specs: %+v", specs)
	}
	// Keyword presets resolve their default threshold via permille.
	cfg, err := dataset.Preset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	cfg.N = 300
	cfg.NumCommunities = 8
	dk, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, err = parseWarm("3", dk)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].k != 3 || specs[0].r <= 0 || specs[0].r > 1 {
		t.Fatalf("bad permille default: %+v", specs)
	}
}
