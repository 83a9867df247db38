package client_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"krcore"
	"krcore/client"
	"krcore/server"
)

// ExampleClient queries a krcored daemon: in production the daemon is
// a separate `krcored -data ... -warm ...` process; here an in-process
// HTTP server stands in so the example is runnable.
func ExampleClient() {
	// Two friend groups bridged by one edge, 100km apart.
	b := krcore.NewGraphBuilder(9)
	groups := [][]int32{{0, 1, 2, 3, 4}, {5, 6, 7, 8}}
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				b.AddEdge(g[i], g[j])
			}
		}
	}
	b.AddEdge(4, 5)
	geo := krcore.NewGeoAttributes(9)
	for _, v := range groups[0] {
		geo.Set(v, 0, float64(v))
	}
	for _, v := range groups[1] {
		geo.Set(v, 100, float64(v))
	}

	// The daemon side (what krcored does for you).
	srv, _ := server.New(krcore.NewEngine(b.Build(), geo.Metric()), server.Config{Dataset: "demo"})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// The client side.
	ctx := context.Background()
	c := client.New(hs.URL)
	if err := c.Warm(ctx, 2, 10); err != nil { // pre-build the hot setting
		fmt.Println("warm:", err)
		return
	}

	res, _ := c.Enumerate(ctx, 2, 10, client.Options{})
	fmt.Println("communities:", res.Count)

	max, _ := c.FindMaximum(ctx, 2, 10, client.Options{})
	fmt.Println("maximum community:", max.Cores[0])

	one, _ := c.EnumerateContaining(ctx, 2, 10, 7, client.Options{})
	fmt.Println("communities of user 7:", one.Count)

	text, _ := c.Metrics(ctx)
	st := client.ParseMetrics(text)
	fmt.Printf("served %.0f queries, %.0f cache hits\n", st["krcored_queries_total"], st["krcored_engine_cache_hits_total"])
	// Output:
	// communities: 2
	// maximum community: [0 1 2 3 4]
	// communities of user 7: 1
	// served 3 queries, 3 cache hits
}
