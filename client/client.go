// Package client is the Go client for the krcored serving daemon: a
// thin, dependency-free wrapper over the JSON-over-HTTP wire format of
// krcore/api, exposing the same query surface as the in-process
// krcore.Engine — Enumerate, EnumerateContaining, FindMaximum, Warm —
// plus the batch update endpoint of dynamic daemons. Counters come from
// the daemon's Prometheus export: see Metrics and ParseMetrics.
//
// Responses are bit-identical to in-process results: cores arrive as
// the same sorted int32 vertex ids the engine would return. A Client is
// safe for concurrent use; per-call deadlines come from the context
// and, server-side, from Options.Timeout.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"krcore"
	"krcore/api"
)

// Client talks to one krcored daemon.
type Client struct {
	base string
	hc   *http.Client
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8420").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx daemon response.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the daemon's error string.
	Message string
	// Leader is the leader base URL carried by a read-only follower's
	// write redirect (503), empty otherwise. See IsReadOnly.
	Leader string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("krcored: %d: %s", e.StatusCode, e.Message)
}

// IsBusy reports whether the error is an admission-control rejection
// (HTTP 429): the daemon's search slots and queue were full. Busy
// requests are safe to retry after a backoff.
func IsBusy(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
}

// Options bounds one query, mirroring the request fields of
// api.QueryRequest. The zero value uses the daemon's defaults.
type Options struct {
	// Parallelism is the worker count within this one query.
	Parallelism int
	// Timeout is the server-side search deadline (clamped by the
	// daemon); the context passed to the call bounds the whole HTTP
	// round-trip independently.
	Timeout time.Duration
	// MaxNodes caps the query's search-tree nodes (clamped by the
	// daemon).
	MaxNodes int64
}

func (o Options) request(k int, r float64) api.QueryRequest {
	ms := o.Timeout.Milliseconds()
	if ms == 0 && o.Timeout > 0 {
		// Sub-millisecond timeouts round up to the wire granularity;
		// truncating to 0 would silently mean "server default".
		ms = 1
	}
	return api.QueryRequest{
		K:           k,
		R:           r,
		Parallelism: o.Parallelism,
		TimeoutMS:   ms,
		MaxNodes:    o.MaxNodes,
	}
}

// do posts one JSON request and decodes the response into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s: %w", path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// decodeAPIError turns a non-2xx response into an *APIError, reading
// the api.Error body when one is present.
func decodeAPIError(resp *http.Response) *APIError {
	var ae api.Error
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ae) == nil && ae.Error != "" {
		msg = ae.Error
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg, Leader: ae.Leader}
}

// Health checks the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	var h api.HealthResponse
	if err := c.do(ctx, http.MethodGet, api.PathHealth, nil, &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("client: daemon unhealthy: %q", h.Status)
	}
	return nil
}

// Metrics fetches the daemon's Prometheus text-format metric export
// (api.PathMetrics) verbatim — histograms, counters and gauges as
// served to a scraper. Parse individual series with ParseMetrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+api.PathMetrics, nil)
	if err != nil {
		return "", fmt.Errorf("client: %s: %w", api.PathMetrics, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: %s: %w", api.PathMetrics, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", fmt.Errorf("client: %s: %w", api.PathMetrics, err)
	}
	if resp.StatusCode/100 != 2 {
		return "", &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return string(body), nil
}

// ParseMetrics extracts the sample lines of a Prometheus text-format
// export into a flat map from series (metric name plus any label
// block, exactly as rendered — e.g. "krcored_queries_total" or
// `krcored_http_request_seconds_bucket{endpoint="enumerate",le="0.1"}`)
// to sample value. Comment and blank lines are skipped; malformed
// sample lines are ignored rather than failing the scrape.
func ParseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// Warm prepares the (k,r) setting on the daemon ahead of traffic.
func (c *Client) Warm(ctx context.Context, k int, r float64) error {
	return c.do(ctx, http.MethodPost, api.PathWarm, api.WarmRequest{K: k, R: r}, &api.WarmResponse{})
}

// Enumerate returns all maximal (k,r)-cores at the given setting.
func (c *Client) Enumerate(ctx context.Context, k int, r float64, opt Options) (*api.QueryResponse, error) {
	req := opt.request(k, r)
	var resp api.QueryResponse
	if err := c.do(ctx, http.MethodPost, api.PathEnumerate, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EnumerateContaining returns the maximal (k,r)-cores containing vertex
// v — the community-search flavour.
func (c *Client) EnumerateContaining(ctx context.Context, k int, r float64, v int32, opt Options) (*api.QueryResponse, error) {
	req := opt.request(k, r)
	req.Vertex = &v
	var resp api.QueryResponse
	if err := c.do(ctx, http.MethodPost, api.PathEnumerate, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// FindMaximum returns the maximum (k,r)-core at the given setting.
func (c *Client) FindMaximum(ctx context.Context, k int, r float64, opt Options) (*api.QueryResponse, error) {
	req := opt.request(k, r)
	var resp api.QueryResponse
	if err := c.do(ctx, http.MethodPost, api.PathMaximum, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ApplyBatch commits one atomic batch of updates on a dynamic daemon:
// either every update commits as one new snapshot or none does (a
// rejected batch returns an *APIError naming the offending update).
func (c *Client) ApplyBatch(ctx context.Context, batch []krcore.Update) (*api.UpdateResponse, error) {
	req := api.UpdateRequest{Updates: make([]api.Update, 0, len(batch))}
	for i, up := range batch {
		wu, err := api.FromUpdate(up)
		if err != nil {
			return nil, fmt.Errorf("client: update %d: %w", i, err)
		}
		req.Updates = append(req.Updates, wu)
	}
	var resp api.UpdateResponse
	if err := c.do(ctx, http.MethodPost, api.PathUpdate, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
