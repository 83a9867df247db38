package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestSoakSelfHosted runs the whole harness end to end against a
// self-hosted daemon: short mixed soak, server-error gate armed, report
// printed with real read latencies.
func TestSoakSelfHosted(t *testing.T) {
	var buf strings.Builder
	err := run(context.Background(), []string{
		"-data", "brightkite", "-dynamic",
		"-k", "5", "-duration", "400ms", "-rate", "80", "-workers", "3",
		"-write-mix", "0.2", "-max-server-errors", "0",
	}, &buf)
	if err != nil {
		t.Fatalf("soak failed: %v\noutput:\n%s", err, buf.String())
	}
	text := buf.String()
	for _, want := range []string{"self-hosting brightkite", "soaked for", "server:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// The read line must report real quantiles, not the no-traffic
	// placeholder.
	var readLine string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "read ") {
			readLine = line
		}
	}
	if readLine == "" || strings.Contains(readLine, "p50 - ") {
		t.Fatalf("no read latency recorded: %q\noutput:\n%s", readLine, text)
	}
}

// TestSoakFlagValidation pins the harness's refusal modes.
func TestSoakFlagValidation(t *testing.T) {
	var buf strings.Builder
	cases := [][]string{
		{"-url", "http://127.0.0.1:1", "-duration", "100ms"}, // no -r with -url
		{"-data", "brightkite", "-write-mix", "1.5"},         // mix out of range
		{"-data", "brightkite", "-write-mix", "0.5",
			"-duration", "100ms"}, // writes against a static self-host
		{"-data", "brightkite", "-load", "x"}, // both sources
		{"-data", "brightkite", "-workers", "0"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestPerWorkerInterval(t *testing.T) {
	if got := perWorkerInterval(0, 8); got != 0 {
		t.Fatalf("unthrottled interval = %v", got)
	}
	if got := perWorkerInterval(100, 4); got != 40*time.Millisecond {
		t.Fatalf("interval = %v, want 40ms (4 workers sharing 100 q/s)", got)
	}
}

func TestFmtLatency(t *testing.T) {
	if got := fmtLatency(0.00425); got != "4.25ms" {
		t.Fatalf("fmtLatency = %q", got)
	}
}

// TestCounterDecreases pins the monotonicity comparison: only _total
// series present in both scrapes count, any decrease is reported, and
// a series missing from a scrape is compared with its last value seen
// when it comes back.
func TestCounterDecreases(t *testing.T) {
	prev := map[string]float64{
		"krcored_queries_total":                           10,
		`krcored_engine_setting_hits_total{k="5",r="10"}`: 7,
		`krcored_engine_setting_miss_total{k="5",r="10"}`: 2,
		"krcored_inflight_queries":                        3, // a gauge may go down
		`krcored_engine_setting_hits_total{k="6",r="10"}`: 4, // gone from the next scrape
		"krcored_queries_total_bytes":                     9, // not a counter name
	}
	next := map[string]float64{
		"krcored_queries_total":                           12,
		`krcored_engine_setting_hits_total{k="5",r="10"}`: 6,
		`krcored_engine_setting_miss_total{k="5",r="10"}`: 0,
		"krcored_inflight_queries":                        1,
		`krcored_engine_setting_hits_total{k="7",r="10"}`: 0, // new series
		"krcored_queries_total_bytes":                     1,
	}
	got := counterDecreases(prev, next)
	want := []string{
		`krcored_engine_setting_hits_total{k="5",r="10"} 7 -> 6`,
		`krcored_engine_setting_miss_total{k="5",r="10"} 2 -> 0`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("counterDecreases = %q, want %q", got, want)
	}
	if got := counterDecreases(next, next); len(got) != 0 {
		t.Fatalf("unchanged scrape reported decreases: %q", got)
	}

	const vanishing = `krcored_engine_setting_hits_total{k="6",r="10"}`
	cw := counterWatch{last: map[string]float64{vanishing: 4}}
	cw.observe(map[string]float64{})
	cw.observe(map[string]float64{vanishing: 1})
	if want := vanishing + " 4 -> 1"; strings.Join(cw.decreases, "\n") != want {
		t.Fatalf("three scrapes (4, absent, 1) reported %q, want %q", cw.decreases, want)
	}
}
