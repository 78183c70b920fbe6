package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	apiv1 "repro/internal/api/v1"
	"repro/internal/client"
	"repro/internal/serve"
	"repro/internal/table"
)

func salesTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("sales", table.Schema{
		{Name: "region", Kind: table.String},
		{Name: "product", Kind: table.String},
		{Name: "amount", Kind: table.Float},
	})
	add := func(region, product string, n int, base float64) {
		for i := 0; i < n; i++ {
			v := base + float64(i%17) - 8
			if err := tbl.AppendRow(region, product, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("NA", "widget", 2000, 100)
	add("NA", "gadget", 900, 70)
	add("EU", "widget", 500, 80)
	add("EU", "gadget", 300, 120)
	add("APAC", "widget", 40, 300)
	return tbl
}

// startServer spins up a real serve.Server over a sales registry and a
// client pointed at it.
func startServer(t *testing.T) (*client.Client, string) {
	t.Helper()
	reg := serve.NewRegistry()
	t.Cleanup(reg.Close)
	if err := reg.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(reg))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, ts.URL
}

func TestNewValidatesURL(t *testing.T) {
	for _, bad := range []string{"", "localhost:8080", "ftp://host", "http://", "://x"} {
		if _, err := client.New(bad, nil); err == nil {
			t.Errorf("New(%q) should fail", bad)
		}
	}
	c, err := client.New("http://localhost:8080/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.BaseURL() != "http://localhost:8080" {
		t.Fatalf("base URL not normalized: %q", c.BaseURL())
	}
}

// Every contract error code must round-trip through the wire into the
// right typed sentinel: the server (stubbed here so each code is
// reachable unconditionally) writes {code, error} at its canonical
// status, and the decoded *APIError must carry both and unwrap to the
// code's sentinel — and to no other.
func TestErrorCodeMappingRoundTrip(t *testing.T) {
	for _, code := range apiv1.Codes {
		t.Run(code, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(apiv1.StatusOf(code))
				_ = json.NewEncoder(w).Encode(apiv1.Error{Code: code, Message: "synthetic " + code})
			}))
			defer ts.Close()
			c, err := client.New(ts.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Healthz(context.Background())
			if err == nil {
				t.Fatal("expected an error")
			}
			want := client.SentinelFor(code)
			if want == nil {
				t.Fatalf("no sentinel registered for code %q", code)
			}
			if !errors.Is(err, want) {
				t.Fatalf("errors.Is(%v, sentinel %v) = false", err, want)
			}
			var ae *client.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("error %T is not *APIError", err)
			}
			if ae.Code != code || ae.Status != apiv1.StatusOf(code) {
				t.Fatalf("APIError = %+v, want code %q status %d", ae, code, apiv1.StatusOf(code))
			}
			if ae.Message != "synthetic "+code {
				t.Fatalf("message lost: %+v", ae)
			}
			// no cross-talk: the error must not satisfy any other code's
			// sentinel
			for _, other := range apiv1.Codes {
				if other != code && errors.Is(err, client.SentinelFor(other)) {
					t.Fatalf("code %q error also matches sentinel for %q", code, other)
				}
			}
		})
	}
}

// A non-envelope error body (a proxy's HTML page, a truncated
// response) still yields an APIError with the status and raw text.
func TestErrorDecodeFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		_, _ = w.Write([]byte("<html>bad gateway</html>"))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Tables(context.Background())
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *APIError", err)
	}
	if ae.Status != http.StatusBadGateway || ae.Code != "" {
		t.Fatalf("APIError = %+v", ae)
	}
	if !strings.Contains(ae.Error(), "502") {
		t.Fatalf("Error() should carry the status: %q", ae.Error())
	}
	for _, code := range apiv1.Codes {
		if errors.Is(err, client.SentinelFor(code)) {
			t.Fatalf("code-less error matches sentinel for %q", code)
		}
	}
}

// Organic error triggers against the real server: each typed sentinel
// is produced by an actual misuse of the API, not a stub — this is the
// contract the remote CLIs branch on.
func TestTypedErrorsAgainstRealServer(t *testing.T) {
	c, base := startServer(t)
	ctx := context.Background()
	workload := []apiv1.QuerySpec{{GroupBy: []string{"region"}, Aggs: []apiv1.Agg{{Column: "amount"}}}}

	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"unknown table", func() error {
			_, err := c.BuildSample(ctx, apiv1.BuildRequest{Table: "nope", Queries: workload, Budget: 10})
			return err
		}, client.ErrTableNotFound},
		{"budget and rate", func() error {
			_, err := c.BuildSample(ctx, apiv1.BuildRequest{Table: "sales", Queries: workload, Budget: 10, Rate: 0.1})
			return err
		}, client.ErrBudgetConflict},
		{"no sizing", func() error {
			_, err := c.BuildSample(ctx, apiv1.BuildRequest{Table: "sales", Queries: workload})
			return err
		}, client.ErrBudgetConflict},
		{"target_cv with rate", func() error {
			_, err := c.BuildSample(ctx, apiv1.BuildRequest{Table: "sales", Queries: workload, Rate: 0.1, TargetCV: 0.05})
			return err
		}, client.ErrBudgetConflict},
		{"bad norm", func() error {
			_, err := c.BuildSample(ctx, apiv1.BuildRequest{Table: "sales", Queries: workload, Budget: 10, Norm: "l7"})
			return err
		}, client.ErrInvalidRequest},
		{"unknown agg column", func() error {
			_, err := c.BuildSample(ctx, apiv1.BuildRequest{
				Table:   "sales",
				Queries: []apiv1.QuerySpec{{GroupBy: []string{"region"}, Aggs: []apiv1.Agg{{Column: "nope"}}}},
				Budget:  10,
			})
			return err
		}, client.ErrBuildFailed},
		{"bad sql", func() error {
			_, err := c.Query(ctx, apiv1.QueryRequest{SQL: "not sql"})
			return err
		}, client.ErrQueryFailed},
		{"append to static table", func() error {
			_, err := c.AppendRows(ctx, "sales", [][]any{{"NA", "widget", 1.0}})
			return err
		}, client.ErrNotStreaming},
		{"refresh unknown table", func() error {
			_, err := c.Refresh(ctx, "nope")
			return err
		}, client.ErrTableNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(_, %v)", err, tc.want)
			}
		})
	}

	// streaming conflicts and atomic append rejection
	if _, err := c.MakeStreaming(ctx, "sales", apiv1.StreamRequest{Queries: workload, Rate: 0.05}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if _, err := c.MakeStreaming(ctx, "sales", apiv1.StreamRequest{Queries: workload, Rate: 0.05}); !errors.Is(err, client.ErrAlreadyStreaming) {
		t.Fatalf("double stream: got %v, want ErrAlreadyStreaming", err)
	}
	if _, err := c.AppendRows(ctx, "sales", [][]any{{"NA", "widget"}}); !errors.Is(err, client.ErrAppendFailed) {
		t.Fatalf("short row: got %v, want ErrAppendFailed", err)
	}

	// oversized body → 413 body_too_large
	big := make([][]any, 0, 60000)
	for i := 0; i < 60000; i++ {
		big = append(big, []any{"NA", "widget", 100.5})
	}
	if _, err := c.AppendRows(ctx, "sales", big); !errors.Is(err, client.ErrBodyTooLarge) {
		t.Fatalf("giant batch: got %v, want ErrBodyTooLarge", err)
	}

	// raw requests the typed client cannot produce: a non-JSON
	// Content-Type → 415, malformed JSON → 400 invalid_body — both
	// decoded by the same client error path
	resp, err := http.Post(base+"/v1/query", "text/plain", strings.NewReader("sql?"))
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeAs(resp, client.ErrUnsupportedMedia); err != nil {
		t.Fatalf("text/plain POST: %v", err)
	}
	resp, err = http.Post(base+"/v1/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeAs(resp, client.ErrInvalidBody); err != nil {
		t.Fatalf("malformed JSON POST: %v", err)
	}
}

// decodeAs runs a raw response through the client's error decoding and
// checks the sentinel.
func decodeAs(resp *http.Response, want error) error {
	defer resp.Body.Close()
	err := client.DecodeErrorForTest(resp)
	if !errors.Is(err, want) {
		return errors.New("decoded " + err.Error())
	}
	return nil
}

// The full surface, happy path: every client method against a live
// server, including the streaming lifecycle.
func TestClientRoundTrip(t *testing.T) {
	c, _ := startServer(t)
	ctx := context.Background()
	workload := []apiv1.QuerySpec{{GroupBy: []string{"region"}, Aggs: []apiv1.Agg{{Column: "amount"}}}}

	tables, err := c.Tables(ctx)
	if err != nil || len(tables) != 1 || tables[0].Name != "sales" || tables[0].Rows != 3740 {
		t.Fatalf("Tables = %+v, %v", tables, err)
	}

	s, err := c.BuildSample(ctx, apiv1.BuildRequest{Table: "sales", Queries: workload, Budget: 300, Seed: 7})
	if err != nil {
		t.Fatalf("BuildSample: %v", err)
	}
	if s.Cached || s.Rows == 0 || s.Key == "" || s.Budget != 300 {
		t.Fatalf("fresh sample: %+v", s)
	}
	again, err := c.BuildSample(ctx, apiv1.BuildRequest{Table: "sales", Queries: workload, Budget: 300, Seed: 7})
	if err != nil || !again.Cached || again.Key != s.Key {
		t.Fatalf("cached rebuild: %+v, %v", again, err)
	}

	list, err := c.Samples(ctx)
	if err != nil || len(list.Samples) != 1 || list.Samples[0].Key != s.Key {
		t.Fatalf("Samples = %+v, %v", list, err)
	}
	if list.Samples[0].Hits == 0 {
		t.Fatalf("cached fetch should count as a hit: %+v", list.Samples[0])
	}

	qr, err := c.Query(ctx, apiv1.QueryRequest{SQL: "SELECT region, AVG(amount) FROM sales GROUP BY region"})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if qr.Exact || qr.SampleKey != s.Key || len(qr.Groups) != 3 {
		t.Fatalf("query should answer from the sample: %+v", qr)
	}
	for _, g := range qr.Groups {
		if len(g.Aggs) != 1 || g.Aggs[0] == nil || len(g.SE) != 1 || g.SE[0] == nil {
			t.Fatalf("group %v missing estimate or SE", g.Key)
		}
	}

	// autoscaled query: the server picks the budget and reports the
	// a-priori guarantee
	aq, err := c.Query(ctx, apiv1.QueryRequest{SQL: "SELECT region, SUM(amount) FROM sales GROUP BY region", TargetCV: 0.05})
	if err != nil {
		t.Fatalf("autoscaled Query: %v", err)
	}
	if aq.TargetCV != 0.05 || aq.ChosenBudget <= 0 || aq.AchievedCV == nil || *aq.AchievedCV > 0.05 {
		t.Fatalf("autoscale fields: %+v", aq)
	}

	// streaming lifecycle: stream → append → refresh advances the
	// generation and the queried answer follows it
	st, err := c.MakeStreaming(ctx, "sales", apiv1.StreamRequest{Queries: workload, Rate: 0.05})
	if err != nil || !st.Streaming || st.Generation != 1 {
		t.Fatalf("MakeStreaming = %+v, %v", st, err)
	}
	ap, err := c.AppendRows(ctx, "sales", [][]any{
		{"NA", "widget", 105.5}, {"EU", "gadget", 82.0}, {"APAC", "widget", 290.0},
	})
	if err != nil || ap.Appended != 3 || ap.Pending != 3 {
		t.Fatalf("AppendRows = %+v, %v", ap, err)
	}
	ref, err := c.Refresh(ctx, "sales")
	if err != nil || ref.Generation != 2 {
		t.Fatalf("Refresh = %+v, %v", ref, err)
	}

	// health last: build identity plus the latency digests fed by all
	// the requests above
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if h.Status != "ok" || h.Version != "dev" || !strings.HasPrefix(h.Go, "go") {
		t.Fatalf("health identity: %+v", h)
	}
	if h.Tables != 1 || h.Streams != 1 || h.Builds == 0 {
		t.Fatalf("health counters: %+v", h)
	}
	lat, ok := h.Latency[apiv1.RouteQuery]
	if !ok || lat.Count < 2 || lat.P99MS < lat.P50MS || lat.P50MS <= 0 {
		t.Fatalf("latency digest for %s implausible: %+v (all: %+v)", apiv1.RouteQuery, lat, h.Latency)
	}
}

// Context cancellation must abort a call with a non-API error.
func TestContextCancellation(t *testing.T) {
	c, _ := startServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Healthz(ctx)
	if err == nil {
		t.Fatal("canceled context should fail")
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		t.Fatalf("cancellation surfaced as APIError: %+v", ae)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled: %v", err)
	}
}

// Request identification: every call carries a minted X-Request-ID,
// and on failure the server's echoed ID lands in APIError.RequestID so
// an operator can grep the daemon's request log for the exact request.
func TestClientRequestIDOnErrors(t *testing.T) {
	var sent string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent = r.Header.Get(apiv1.HeaderRequestID)
		w.Header().Set(apiv1.HeaderRequestID, sent)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(apiv1.StatusOf(apiv1.CodeTableNotFound))
		_ = json.NewEncoder(w).Encode(apiv1.Error{Code: apiv1.CodeTableNotFound, Message: "nope"})
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Tables(context.Background())
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(sent) {
		t.Fatalf("client sent request id %q, want 16 hex chars", sent)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *APIError", err)
	}
	if ae.RequestID != sent {
		t.Fatalf("APIError.RequestID = %q, want the echoed %q", ae.RequestID, sent)
	}

	// against the real server: an organic error carries the ID too
	rc, _ := startServer(t)
	_, err = rc.Query(context.Background(), apiv1.QueryRequest{SQL: "SELECT region, AVG(amount) FROM nope GROUP BY region"})
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *APIError", err)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(ae.RequestID) {
		t.Fatalf("real-server APIError.RequestID = %q, want 16 hex chars", ae.RequestID)
	}
}

// The client must leave each connection reusable: a body the decoder
// stops short of (json.Decoder leaves the trailing newline; a chunked
// body its terminator) is drained before Close, or the transport
// drops the connection and every call pays a new TCP handshake.
func TestClientReusesConnection(t *testing.T) {
	var groups []apiv1.Group
	var samples []apiv1.Sample
	for i := 0; i < 200; i++ {
		groups = append(groups, apiv1.Group{Key: []string{fmt.Sprint("region-", i)}, Aggs: apiv1.Float64s([]float64{float64(i) / 3})})
		samples = append(samples, apiv1.Sample{Key: fmt.Sprint("sample-", i), Table: "sales", GroupBy: []string{"region"}})
	}
	bodies := map[string]any{
		apiv1.Path(apiv1.RouteQuery):       apiv1.QueryResponse{Table: "sales", Sets: [][]string{{"region"}}, Groups: groups},
		apiv1.Path(apiv1.RouteListSamples): apiv1.SamplesList{Samples: samples},
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, err := json.Marshal(bodies[r.URL.Path])
		if err != nil || len(data) < 8<<10 {
			t.Errorf("%s: body of %d bytes (err %v), want > 8 KB", r.URL.Path, len(data), err)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(bodies[r.URL.Path]) // chunked: no Content-Length
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if resp, err := c.Query(ctx, apiv1.QueryRequest{SQL: "SELECT 1"}); err != nil || len(resp.Groups) != len(groups) {
			t.Fatalf("Query: %v", err)
		}
		if list, err := c.Samples(ctx); err != nil || len(list.Samples) != len(samples) {
			t.Fatalf("Samples: %v", err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("40 sequential calls opened %d connections, want 1", n)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestQueryPresizeIsCapped: a Content-Length far above the body (a
// wrong header, a misbehaving proxy) must not make Query allocate it
// before any byte arrives.
func TestQueryPresizeIsCapped(t *testing.T) {
	const claimed = 128 << 20
	body := `{"table":"sales","exact":true,"sets":[["region"]],"agg_labels":["AVG(amount)"],"groups":[{"set":0,"key":["NA"],"aggs":[1.5]}]}`
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}},
			ContentLength: claimed, Body: io.NopCloser(strings.NewReader(body)), Request: r}, nil
	})}
	c, err := client.New("http://cvserve.test", hc)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := c.Query(context.Background(), apiv1.QueryRequest{SQL: "SELECT 1"})
	runtime.ReadMemStats(&after)
	if err != nil || len(resp.Groups) != 1 {
		t.Fatalf("Query: %+v, %v", resp, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= claimed/2 {
		t.Fatalf("a %d B body claiming %d B allocated %d B", len(body), claimed, n)
	}
}
