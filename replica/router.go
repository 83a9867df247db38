package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"krcore/api"
	"krcore/client"
	"krcore/internal/metrics"
)

// RouterConfig parameterises a Router.
type RouterConfig struct {
	// Leader is the write node's base URL (required).
	Leader string
	// Followers are the read replicas' base URLs.
	Followers []string
	// HTTPClient overrides the forwarding client.
	HTTPClient *http.Client
	// Probe is the health-probe interval of Run. Default 1s.
	Probe time.Duration
	// FailAfter is how many consecutive failed leader probes trigger a
	// failover. Default 3.
	FailAfter int
	// Logf, when set, receives failover and probe transitions.
	Logf func(format string, args ...any)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.Probe <= 0 {
		c.Probe = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// nodeState is one backend's last probed condition.
type nodeState struct {
	healthy bool
	applied int64
}

// Router fronts a replicated fleet behind one URL: queries are
// (k,r)-affinity-routed across healthy followers (the same setting
// always lands on the same replica, keeping its per-(k,r) cache hot),
// writes forward to the leader, and when the leader stops answering
// probes the follower with the highest applied offset is promoted in
// its place. Create with NewRouter, mount Handler, and run the probe
// loop with Run.
type Router struct {
	cfg RouterConfig
	hc  *http.Client
	mux *http.ServeMux

	// mu guards the routing table only — probes and forwards do their
	// I/O outside it and write results back under a brief lock.
	mu       sync.Mutex
	leader   string
	nodes    map[string]*nodeState
	leaderNG int // consecutive failed leader probes

	reg       *metrics.Registry
	forwarded *metrics.CounterVec // role: read | write | control
	proxyErrs *metrics.Counter
	failovers *metrics.Counter
}

// NewRouter returns a router over the fleet. Every node (leader and
// followers) starts out presumed healthy until the first probe.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Leader == "" {
		return nil, errors.New("replica: router needs a leader URL")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:    cfg,
		hc:     cfg.HTTPClient,
		leader: cfg.Leader,
		nodes:  make(map[string]*nodeState),
	}
	rt.nodes[cfg.Leader] = &nodeState{healthy: true}
	for _, f := range cfg.Followers {
		rt.nodes[f] = &nodeState{healthy: true}
	}
	rt.initMetrics()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET "+api.PathHealth, rt.handleHealth)
	rt.mux.HandleFunc("GET "+api.PathMetrics, rt.handleMetrics)
	rt.mux.HandleFunc("GET "+api.PathReplication, rt.handleReplication)
	rt.mux.HandleFunc("POST "+api.PathEnumerate, rt.handleRead)
	rt.mux.HandleFunc("POST "+api.PathMaximum, rt.handleRead)
	rt.mux.HandleFunc("POST "+api.PathWarm, rt.handleRead)
	rt.mux.HandleFunc("POST "+api.PathUpdate, rt.handleWrite)
	rt.mux.HandleFunc("GET "+api.PathSnapshot, rt.handleToLeader)
	rt.mux.HandleFunc("GET "+api.PathJournal, rt.handleToLeader)
	return rt, nil
}

func (rt *Router) initMetrics() {
	rt.reg = metrics.NewRegistry()
	rt.forwarded = rt.reg.CounterVec("krcored_router_forwarded_total", "requests forwarded, by role (read: affinity-routed query; write: leader update; control: snapshot/journal)", "role")
	rt.proxyErrs = rt.reg.Counter("krcored_router_proxy_errors_total", "forwards that failed to reach any backend (502)")
	rt.failovers = rt.reg.Counter("krcored_router_failovers_total", "leader promotions performed after probe failures")
	rt.reg.SampleFunc("krcored_router_backend_healthy", "1 per backend answering probes", metrics.KindGauge, []string{"backend"}, func() []metrics.Sample {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		out := make([]metrics.Sample, 0, len(rt.nodes))
		for url, st := range rt.nodes {
			v := 0.0
			if st.healthy {
				v = 1
			}
			out = append(out, metrics.Sample{Labels: []string{url}, Value: v})
		}
		return out
	})
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics returns the router's metric registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// Leader returns the current write node.
func (rt *Router) Leader() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.leader
}

// Run probes the fleet until ctx is cancelled, marking node health
// and promoting the freshest follower when the leader stays down for
// FailAfter consecutive probes.
func (rt *Router) Run(ctx context.Context) error {
	t := time.NewTicker(rt.cfg.Probe)
	defer t.Stop()
	for {
		rt.probeOnce(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// probeOnce checks every node's replication endpoint (health and
// applied offset in one call), then applies the results — including a
// failover — under the lock.
func (rt *Router) probeOnce(ctx context.Context) {
	rt.mu.Lock()
	leader := rt.leader
	urls := make([]string, 0, len(rt.nodes))
	for u := range rt.nodes {
		urls = append(urls, u)
	}
	rt.mu.Unlock()

	type probe struct {
		url     string
		ok      bool
		applied int64
		role    string
	}
	results := make([]probe, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.Probe)
			defer cancel()
			st, err := client.New(u, client.WithHTTPClient(rt.hc)).Replication(pctx)
			if err != nil {
				results[i] = probe{url: u}
				return
			}
			results[i] = probe{url: u, ok: true, applied: st.AppliedOffset, role: st.Role}
		}(i, u)
	}
	wg.Wait()

	var freshest string
	var freshestApplied int64 = -1
	leaderOK := false
	rt.mu.Lock()
	for _, p := range results {
		st := rt.nodes[p.url]
		if st == nil {
			continue
		}
		st.healthy = p.ok
		st.applied = p.applied
		if p.url == leader {
			leaderOK = p.ok
			continue
		}
		if p.ok && p.applied > freshestApplied {
			freshest, freshestApplied = p.url, p.applied
		}
	}
	if leaderOK {
		rt.leaderNG = 0
		rt.mu.Unlock()
		return
	}
	rt.leaderNG++
	doFailover := rt.leaderNG >= rt.cfg.FailAfter && freshest != ""
	rt.mu.Unlock()
	if !doFailover {
		return
	}

	// Promotion happens outside the lock; the routing table flips only
	// after the new leader acknowledged.
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.Probe)
	pr, err := client.New(freshest, client.WithHTTPClient(rt.hc)).Promote(pctx)
	cancel()
	if err != nil {
		rt.cfg.Logf("router: promote %s failed: %v", freshest, err)
		return
	}
	rt.mu.Lock()
	// Re-check under the lock: another failover may have won the race.
	won := rt.leader == leader
	if won {
		rt.leader = freshest
		rt.leaderNG = 0
		rt.failovers.Inc()
	}
	rt.mu.Unlock()
	if won {
		rt.cfg.Logf("router: promoted %s (applied offset %d) after leader %s failed %d probes",
			freshest, pr.AppliedOffset, leader, rt.cfg.FailAfter)
	}
}

// readTarget picks the serving node for a (k,r) setting: rendezvous
// hashing over the healthy followers — every follower gets a stable
// slice of the settings space, so its per-(k,r) cache stays hot — with
// the leader as the fallback when no follower is healthy.
func (rt *Router) readTarget(k int, r float64) string {
	key := strconv.Itoa(k) + "/" + strconv.FormatFloat(r, 'g', -1, 64)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var best string
	var bestScore uint64
	for url, st := range rt.nodes {
		if !st.healthy || url == rt.leader {
			continue
		}
		h := fnv.New64a()
		io.WriteString(h, url)
		io.WriteString(h, "|")
		io.WriteString(h, key)
		if s := h.Sum64(); best == "" || s > bestScore {
			best, bestScore = url, s
		}
	}
	if best == "" {
		return rt.leader
	}
	return best
}

// forward replays the request against target and relays the response.
// A transport failure answers 502.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, target string, body []byte) {
	resp, err := rt.send(r, target, body)
	if err != nil {
		if r.Context().Err() != nil {
			// The caller went away (disconnect or deadline) and the
			// abort propagated into the forward. Nobody is listening
			// for a 502, and the backend was never shown unreachable —
			// counting this as a proxy error would make every client
			// timeout look like fleet trouble.
			return
		}
		rt.proxyErrs.Inc()
		writeError(w, http.StatusBadGateway, fmt.Sprintf("router: %s unreachable: %v", target, err))
		return
	}
	defer resp.Body.Close()
	relay(w, resp)
}

// send issues the forwarded request.
func (rt *Router) send(r *http.Request, target string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return rt.hc.Do(req)
}

// relay copies a backend response through to the caller.
func relay(w http.ResponseWriter, resp *http.Response) {
	h := w.Header()
	for _, k := range []string{"Content-Type", api.HeaderKind, api.HeaderOffset, api.HeaderEnd} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.Error{Error: msg})
}

// handleRead affinity-routes a query by its (k,r) setting. The body is
// decoded just enough to learn the setting, then forwarded verbatim.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("router: read body: %v", err))
		return
	}
	var setting struct {
		K int     `json:"k"`
		R float64 `json:"r"`
	}
	if err := json.Unmarshal(body, &setting); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("router: bad query body: %v", err))
		return
	}
	rt.forwarded.With("read").Inc()
	rt.forward(w, r, rt.readTarget(setting.K, setting.R), body)
}

// handleWrite forwards an update to the leader. A 503 leader redirect
// or transport failure retries once against the redirect target (or
// the freshest follower the probe loop has since promoted).
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("router: read body: %v", err))
		return
	}
	rt.forwarded.With("write").Inc()
	leader := rt.Leader()
	resp, err := rt.send(r, leader, body)
	if err == nil && resp.StatusCode != http.StatusServiceUnavailable {
		defer resp.Body.Close()
		relay(w, resp)
		return
	}
	// First try failed. A redirect body names the real leader; adopt it.
	retry := rt.Leader()
	if err == nil {
		var ae api.Error
		dec := json.NewDecoder(io.LimitReader(resp.Body, 1<<20))
		if dec.Decode(&ae) == nil && ae.Leader != "" {
			retry = ae.Leader
			rt.adoptLeader(retry)
		}
		resp.Body.Close()
	}
	if retry == leader && err != nil {
		if r.Context().Err() != nil {
			// Client-initiated abort, not a leader failure (see forward).
			return
		}
		// No new target yet: surface the transport failure.
		rt.proxyErrs.Inc()
		writeError(w, http.StatusBadGateway, fmt.Sprintf("router: leader %s unreachable: %v", leader, err))
		return
	}
	rt.forward(w, r, retry, body)
}

// adoptLeader flips the routing table to a leader learned from a
// redirect, registering it if it was not in the configured fleet.
func (rt *Router) adoptLeader(url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.nodes[url] == nil {
		rt.nodes[url] = &nodeState{healthy: true}
	}
	if rt.leader != url {
		rt.leader = url
		rt.leaderNG = 0
	}
}

// handleToLeader forwards control-plane reads (snapshot, journal) to
// the leader.
func (rt *Router) handleToLeader(w http.ResponseWriter, r *http.Request) {
	rt.forwarded.With("control").Inc()
	rt.forward(w, r, rt.Leader(), nil)
}

// handleHealth reports the router healthy while any backend is.
func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	any := false
	for _, st := range rt.nodes {
		if st.healthy {
			any = true
			break
		}
	}
	rt.mu.Unlock()
	if !any {
		writeError(w, http.StatusServiceUnavailable, "router: no healthy backend")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(api.HealthResponse{Status: "ok"})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.TextContentType)
	rt.reg.WriteText(w)
}

// handleReplication reports the router's view of the fleet: its role
// is "router" and Leader names the current write node.
func (rt *Router) handleReplication(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	st := api.ReplicationStatus{Role: "router", Leader: rt.leader}
	if ls := rt.nodes[rt.leader]; ls != nil {
		st.AppliedOffset = ls.applied
	}
	rt.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
