package expr

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"krcore"
	"krcore/client"
	"krcore/server"
)

// Serve measures the HTTP serving daemon end to end (PR 4): sustained
// query throughput through the full stack — JSON encoding, the
// admission-control semaphore, per-request deadlines, the (corrected)
// cache counters — with more concurrent clients than search slots, on
// warmed presets where every query is a cache hit.
//
// The experiment doubles as an invariant check: the observed peak of
// concurrent searches must never exceed the admission limit, and with
// a warm cache every served query must be a hit (misses would mean the
// serving layer re-prepared state it already had).
func Serve(r *Runner) *Report {
	const (
		clients       = 16
		perClient     = 60
		maxConcurrent = 4
	)
	rep := &Report{
		ID: "serve",
		Title: fmt.Sprintf("HTTP serving: %d concurrent clients, %d-slot admission control (warmed, default r, k=%d)",
			clients, maxConcurrent, servingK),
		XLabel: "dataset",
		// Geo presets: default thresholds need no permille calibration,
		// so the cells measure serving cost, not setup.
		Xs: []string{"brightkite", "gowalla"},
	}
	var qps, lat, peak, hitRate, rejected []string
	for _, name := range rep.Xs {
		d := r.Dataset(name)
		thr := presetThreshold(r, name)
		eng := krcore.NewEngine(d.Graph, d.Metric())
		if err := eng.Warm(servingK, thr); err != nil {
			panic(err)
		}
		srv, err := server.New(eng, server.Config{
			Dataset:       name,
			MaxConcurrent: maxConcurrent,
			MaxQueue:      clients * 2, // every client may queue; none should be rejected
			QueueWait:     time.Minute,
		})
		if err != nil {
			panic(err)
		}
		hs := httptest.NewServer(srv.Handler())
		c := client.New(hs.URL)
		ctx := context.Background()

		var (
			wg      sync.WaitGroup
			totalNS atomic.Int64
		)
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for q := 0; q < perClient; q++ {
					t0 := time.Now()
					var err error
					if (w+q)%2 == 0 {
						_, err = c.FindMaximum(ctx, servingK, thr, client.Options{})
					} else {
						_, err = c.Enumerate(ctx, servingK, thr, client.Options{})
					}
					if err != nil {
						panic(fmt.Sprintf("%s: client %d: %v", name, w, err))
					}
					totalNS.Add(int64(time.Since(t0)))
				}
			}(w)
		}
		wg.Wait()
		wall := time.Since(start)
		text, err := c.Metrics(ctx)
		hs.Close()
		if err != nil {
			panic(fmt.Sprintf("%s: scrape: %v", name, err))
		}

		const total = clients * perClient
		samples := client.ParseMetrics(text)
		queries, peakInFlight := int(samples["krcored_queries_total"]), int(samples["krcored_peak_in_flight"])
		est := eng.Stats()
		if queries != total {
			panic(fmt.Sprintf("%s: served %d of %d queries", name, queries, total))
		}
		if peakInFlight > maxConcurrent {
			panic(fmt.Sprintf("%s: admission control leaked: peak %d > limit %d", name, peakInFlight, maxConcurrent))
		}
		if est.Misses > 1 { // the single Warm is the only allowed miss
			panic(fmt.Sprintf("%s: warmed serving missed the cache: %+v", name, est))
		}
		qps = append(qps, fmt.Sprintf("%.0f q/s", float64(total)/wall.Seconds()))
		lat = append(lat, fmtDuration(time.Duration(totalNS.Load()/total), false))
		peak = append(peak, fmt.Sprintf("%d (cap %d)", peakInFlight, maxConcurrent))
		hitRate = append(hitRate, fmt.Sprintf("%.1f%%", 100*float64(est.Hits)/float64(est.Hits+est.Misses)))
		rejected = append(rejected, fmt.Sprintf("%.0f", samples["krcored_rejected_total"]))
	}
	rep.AddSeries("throughput", qps)
	rep.AddSeries("mean latency (incl. queueing)", lat)
	rep.AddSeries("peak concurrent searches", peak)
	rep.AddSeries("cache-hit rate", hitRate)
	rep.AddSeries("rejected (429)", rejected)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("measured with GOMAXPROCS=%d; on one CPU searches serialise, so the observed peak sits below the cap",
			runtime.GOMAXPROCS(0)),
		fmt.Sprintf("%d clients each issue %d queries (alternating maximum / enumerate) over real HTTP", clients, perClient),
		"every query is a cache hit on the warmed setting: service time is search + JSON, zero re-preparation",
		fmt.Sprintf("the admission semaphore bounds concurrent searches at %d; excess requests queue (none rejected)", maxConcurrent),
		"mean latency includes client-side queueing delay behind the semaphore — throughput is the serving metric")
	return rep
}
