// Package client is the typed Go client for the cvserve HTTP API. It
// compiles against the same versioned contract package as the server
// (internal/api/v1), so client and server cannot drift apart on the
// wire format, and it decodes every non-2xx response into an *APIError
// whose contract code resolves to a sentinel (errors.go) — callers
// branch with errors.Is, never by string-matching messages.
//
//	c, _ := client.New("http://localhost:8080", nil)
//	sample, err := c.BuildSample(ctx, apiv1.BuildRequest{
//	    Table:   "sales",
//	    Queries: []apiv1.QuerySpec{{GroupBy: []string{"region"}, Aggs: []apiv1.Agg{{Column: "amount"}}}},
//	    Rate:    0.01,
//	})
//	if errors.Is(err, client.ErrTableNotFound) { ... }
//
// Every method takes a context and honors its cancellation/deadline.
// cmd/cvquery and cmd/cvsample use this package for their -server
// (remote) mode; the facade re-exports it as repro.Client.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/obs"
)

// Client talks to one cvserve daemon. It is safe for concurrent use;
// all state is the base URL, the underlying *http.Client and the
// retry policy.
type Client struct {
	base     string
	hc       *http.Client
	retry    RetryPolicy
	apiToken string
}

// New returns a client for the daemon at baseURL (scheme + host
// [+ port], e.g. "http://localhost:8080"; a path prefix is kept, for
// daemons behind a routing proxy). hc == nil uses http.DefaultClient.
// Builds and autoscale searches can run long, so callers wanting
// timeouts should set them per call via context rather than a blanket
// http.Client.Timeout. Idempotent requests retry transient failures
// under DefaultRetry unless WithRetry overrides it (retry.go).
func New(baseURL string, hc *http.Client, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad server URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: server URL %q must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: server URL %q has no host", baseURL)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: hc, retry: DefaultRetry}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// BaseURL returns the normalized server base URL.
func (c *Client) BaseURL() string { return c.base }

// do sends one request and decodes the response: into out on 2xx, into
// an *APIError otherwise. in == nil sends no body. Idempotent requests
// retry transient failures (transport errors, 502/503/504) under the
// client's RetryPolicy; non-idempotent ones get exactly one attempt.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding %s %s: %w", method, path, err)
		}
	}
	// one ID for all attempts of one logical request, so the server's
	// logs show the retries as what they are
	reqID := obs.NewRequestID()
	attempts := 1
	if idempotent {
		attempts = c.retry.MaxAttempts
	}
	for attempt := 0; ; attempt++ {
		err, retryable := c.attempt(ctx, method, path, reqID, data, in != nil, out)
		if err == nil {
			return nil
		}
		if !retryable || attempt+1 >= attempts || ctx.Err() != nil {
			return err
		}
		wait := c.retry.backoff(attempt)
		// an overloaded server's Retry-After is a floor, not a hint to
		// ignore: hammering it sooner only deepens the queue it is
		// shedding
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > wait {
			wait = apiErr.RetryAfter
		}
		if sleepCtx(ctx, wait) != nil {
			return err // canceled mid-backoff: report the attempt's error
		}
	}
}

// attempt runs one HTTP round trip. retryable reports whether the
// failure is transient enough that an idempotent request may try again.
func (c *Client) attempt(ctx context.Context, method, path, reqID string, data []byte, hasBody bool, out any) (err error, retryable bool) {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err), false
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	// every request carries an ID the server adopts as its trace ID and
	// echoes back; on failure it lands in APIError.RequestID, so one
	// string ties a client-side error to the server's logs and traces
	req.Header.Set(apiv1.HeaderRequestID, reqID)
	if c.apiToken != "" {
		req.Header.Set(apiv1.HeaderAPIToken, c.apiToken)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// a transport error means the request may never have arrived;
		// the retry loop checks ctx itself, so cancellation stops here
		return fmt.Errorf("client: %s %s: %w", method, path, err), true
	}
	defer func() {
		// drain what the decoder left (a trailing newline, a chunked
		// terminator) so the transport can reuse the connection
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp), retryableStatus(resp.StatusCode)
	}
	if out != nil {
		if err := decodeBody(resp, out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err), false
		}
	}
	return nil, false
}

// maxPresize caps how far Content-Length presizes a query answer's
// buffer, so a wrong header cannot allocate before the bytes arrive.
// 16 MiB is over ten times the benchmark's widest answer (1.4 MB); a
// larger body still reads whole, the buffer growing as bytes arrive.
const maxPresize = 16 << 20

// decodeBody decodes a 2xx body into out. A query answer, the one body
// that grows with the data, is read whole (presized from
// Content-Length) and decoded by the wire contract's hand decoder;
// every other body streams through encoding/json.
func decodeBody(resp *http.Response, out any) error {
	qr, ok := out.(*apiv1.QueryResponse)
	if !ok {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return apiv1.DecodeQueryResponse(buf.Bytes(), qr)
}

// decodeError turns a non-2xx response into an *APIError. A body that
// is not the contract envelope (a proxy's error page, a truncated
// response) still yields an APIError carrying the status and the raw
// text, so the caller always gets the status to branch on. The echoed
// X-Request-ID (when present) rides along for log correlation.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	id := resp.Header.Get(apiv1.HeaderRequestID)
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get(apiv1.HeaderRetryAfter)); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	var env apiv1.Error
	if err := json.Unmarshal(data, &env); err == nil && env.Message != "" {
		return &APIError{Status: resp.StatusCode, Code: env.Code, Message: env.Message, RequestID: id, RetryAfter: retryAfter}
	}
	return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data)), RequestID: id, RetryAfter: retryAfter}
}

// tablePath resolves a /v1/tables/{name}/... route constant against a
// concrete table, escaping the name so a table called "a/b" cannot
// traverse the route space.
func tablePath(route, name string) string {
	return strings.Replace(apiv1.Path(route), "{name}", url.PathEscape(name), 1)
}

// Healthz reports the daemon's liveness, build identity (version, Go
// runtime) and registry/latency counters.
func (c *Client) Healthz(ctx context.Context) (*apiv1.Health, error) {
	var out apiv1.Health
	if err := c.do(ctx, http.MethodGet, apiv1.Path(apiv1.RouteHealthz), nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tables lists the registered tables; live ones carry stream state.
func (c *Client) Tables(ctx context.Context) ([]apiv1.Table, error) {
	var out apiv1.TablesList
	if err := c.do(ctx, http.MethodGet, apiv1.Path(apiv1.RouteTables), nil, &out, true); err != nil {
		return nil, err
	}
	return out.Tables, nil
}

// Samples lists the built samples plus the daemon's sample-memory
// counters.
func (c *Client) Samples(ctx context.Context) (*apiv1.SamplesList, error) {
	var out apiv1.SamplesList
	if err := c.do(ctx, http.MethodGet, apiv1.Path(apiv1.RouteListSamples), nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// BuildSample registers a sample for a table + workload + sizing
// (budget, rate or autoscaled target_cv), or fetches the cached one an
// equal request built before; Sample.Cached distinguishes the two.
func (c *Client) BuildSample(ctx context.Context, req apiv1.BuildRequest) (*apiv1.Sample, error) {
	var out apiv1.Sample
	if err := c.do(ctx, http.MethodPost, apiv1.Path(apiv1.RouteBuildSample), req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query answers a SQL group-by query — from the best covering sample,
// exactly, or from an autoscaled sample when req.TargetCV is set.
func (c *Client) Query(ctx context.Context, req apiv1.QueryRequest) (*apiv1.QueryResponse, error) {
	var out apiv1.QueryResponse
	if err := c.do(ctx, http.MethodPost, apiv1.Path(apiv1.RouteQuery), req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// MakeStreaming converts a registered table into a live (streaming)
// one; generation 1 publishes before it returns.
func (c *Client) MakeStreaming(ctx context.Context, table string, req apiv1.StreamRequest) (*apiv1.StreamState, error) {
	var out apiv1.StreamState
	if err := c.do(ctx, http.MethodPost, tablePath(apiv1.RouteStreamTable, table), req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// AppendRows batch-appends rows (schema order, loosely typed) to a
// streaming table. The batch is atomic: on ErrAppendFailed nothing was
// appended.
func (c *Client) AppendRows(ctx context.Context, table string, rows [][]any) (*apiv1.AppendResponse, error) {
	var out apiv1.AppendResponse
	if err := c.do(ctx, http.MethodPost, tablePath(apiv1.RouteAppendRows, table), apiv1.AppendRequest{Rows: rows}, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Refresh forces a streaming table to publish a fresh sample
// generation now and returns the freshly installed sample.
func (c *Client) Refresh(ctx context.Context, table string) (*apiv1.Sample, error) {
	var out apiv1.Sample
	if err := c.do(ctx, http.MethodPost, tablePath(apiv1.RouteRefreshTable, table), nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}
