package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	apiv1 "repro/internal/api/v1"
	"repro/internal/serve"
	"repro/internal/wal"
)

// getBody fetches a URL and returns status and raw body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b.String()
}

// metricValue extracts the value of an exact series line ("name 3" or
// `name{label="x"} 3`) from a Prometheus exposition body; -1 if absent.
func metricValue(body, series string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v
			}
		}
	}
	return -1
}

// Every request carries X-Request-ID: a client-supplied ID is adopted
// and echoed; absent one, the server mints an ID. Error responses
// carry the header too — that is what lets a client stamp APIErrors.
func TestServerRequestIDRoundTrip(t *testing.T) {
	ts, _ := startServer(t)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(apiv1.HeaderRequestID, "client-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(apiv1.HeaderRequestID); got != "client-chose-this" {
		t.Fatalf("echoed id = %q, want the client's", got)
	}

	// no ID sent: the server mints one (16 hex chars)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(apiv1.HeaderRequestID)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Fatalf("minted id = %q, want 16 hex chars", minted)
	}

	// error responses are identified too
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(apiv1.HeaderRequestID) == "" {
		t.Fatalf("error response: status=%d id=%q", resp.StatusCode, resp.Header.Get(apiv1.HeaderRequestID))
	}
}

// GET /metrics speaks the Prometheus text exposition and its series
// advance under a real workload: builds, cache hits, queries, and the
// per-route request counters all move.
func TestServerMetricsEndpoint(t *testing.T) {
	ts, _ := startServer(t)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	// drain before closing so the connection is reused: the server then
	// finishes counting this request before it reads the next one, and
	// the self-count assertion below cannot race the instrument's tail
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}

	// workload: one real build, one cached rebuild, three queries
	if code := post(t, ts.URL+"/v1/samples", buildBody, nil); code != http.StatusCreated {
		t.Fatalf("build: %d", code)
	}
	if code := post(t, ts.URL+"/v1/samples", buildBody, nil); code != http.StatusOK {
		t.Fatalf("rebuild: %d", code)
	}
	for i := 0; i < 3; i++ {
		if code := post(t, ts.URL+"/v1/query",
			`{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region"}`, nil); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
	}

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	checks := []struct {
		series string
		want   float64
	}{
		{"repro_builds_total", 1},
		{"repro_build_cache_misses_total", 1},
		{"repro_build_cache_hits_total", 1},
		{"repro_build_duration_seconds_count", 1},
		{"repro_find_hits_total", 3},
		{"repro_samples", 1},
		{"repro_tables", 1},
		{`repro_http_requests_total{route="POST /v1/query",code="200"}`, 3},
		{`repro_http_requests_total{route="POST /v1/samples",code="201"}`, 1},
		{`repro_http_request_duration_seconds_count{route="POST /v1/query"}`, 3},
	}
	for _, c := range checks {
		if got := metricValue(body, c.series); got != c.want {
			t.Errorf("%s = %g, want %g", c.series, got, c.want)
		}
	}
	// every metric family is typed: no series without # TYPE
	if !strings.Contains(body, "# TYPE repro_build_duration_seconds histogram") {
		t.Errorf("build duration histogram untyped:\n%s", body)
	}
	// /metrics instruments itself: the second scrape sees the first
	if got := metricValue(body, `repro_http_requests_total{route="`+apiv1.RouteMetrics+`",code="200"}`); got < 1 {
		t.Errorf("metrics route not self-counted: %g", got)
	}
}

// debug=true returns an inline per-phase trace whose spans fit inside
// the measured duration; /debug/requests then lists the same request
// newest-first under its route pattern.
func TestServerInlineTraceAndDebugRequests(t *testing.T) {
	ts, _ := startServer(t)

	var built struct {
		Trace *apiv1.RequestTrace `json:"trace"`
	}
	if code := post(t, ts.URL+"/v1/samples",
		strings.Replace(buildBody, `"seed": 7`, `"seed": 7, "debug": true`, 1), &built); code != http.StatusCreated {
		t.Fatalf("build: %d", code)
	}
	if built.Trace == nil {
		t.Fatal("debug build response missing trace")
	}
	if built.Trace.Route != apiv1.RouteBuildSample || built.Trace.RequestID == "" {
		t.Fatalf("trace header: %+v", built.Trace)
	}
	var names []string
	var spanSum float64
	for _, sp := range built.Trace.Spans {
		names = append(names, sp.Name)
		spanSum += sp.DurationMS
	}
	// a fixed-budget build on a cold cache: decode, the sample draw,
	// encode — exactly, in order (build_wait only appears when a request
	// waits on an in-flight build)
	if got := strings.Join(names, ", "); got != "decode, draw, encode" {
		t.Errorf("budgeted build trace phases = %s, want decode, draw, encode", got)
	}
	// a target_cv build runs the same pipeline with the budget search
	// between the statistics pass and the draw
	if code := post(t, ts.URL+"/v1/samples", `{
		"table": "sales",
		"queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}],
		"target_cv": 0.2, "debug": true
	}`, &built); code != http.StatusCreated {
		t.Fatalf("autoscaled build: %d", code)
	}
	names = names[:0]
	for _, sp := range built.Trace.Spans {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ", "); got != "decode, autoscale, draw, encode" {
		t.Errorf("autoscaled build trace phases = %s, want decode, autoscale, draw, encode", got)
	}
	// the inline trace is snapshotted mid-flight (before the response
	// is written), so spans sum to at most the final duration — and
	// they must account for real time, not zeros
	if spanSum <= 0 {
		t.Fatalf("trace spans sum to %g ms", spanSum)
	}

	var qr struct {
		Trace *apiv1.RequestTrace `json:"trace"`
	}
	if code := post(t, ts.URL+"/v1/query",
		`{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region", "debug": true}`, &qr); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if qr.Trace == nil {
		t.Fatal("debug query response missing trace")
	}
	qphases := map[string]bool{}
	for _, sp := range qr.Trace.Spans {
		qphases[sp.Name] = true
	}
	for _, want := range []string{"decode", "parse", "find", "exec", "encode"} {
		if !qphases[want] {
			t.Errorf("query trace missing phase %q: %+v", want, qr.Trace.Spans)
		}
	}
	// non-debug requests carry no trace
	var plain struct {
		Trace *apiv1.RequestTrace `json:"trace"`
	}
	if code := post(t, ts.URL+"/v1/query",
		`{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region"}`, &plain); code != http.StatusOK || plain.Trace != nil {
		t.Fatalf("plain query: code=%d trace=%+v", code, plain.Trace)
	}

	var dbg apiv1.DebugRequests
	if code := get(t, ts.URL+"/debug/requests", &dbg); code != http.StatusOK {
		t.Fatalf("debug/requests: %d", code)
	}
	recent, ok := dbg.Routes[apiv1.RouteQuery]
	if !ok || len(recent) != 2 {
		t.Fatalf("debug/requests for %s: %+v", apiv1.RouteQuery, dbg.Routes)
	}
	// newest-first: the plain query is listed before the debug one,
	// and completed traces carry their status
	if recent[0].Status != http.StatusOK || len(recent[0].Spans) == 0 {
		t.Fatalf("recorded trace: %+v", recent[0])
	}
	if recent[1].RequestID != qr.Trace.RequestID {
		t.Fatalf("ordering: second entry id %q, want the earlier debug query %q",
			recent[1].RequestID, qr.Trace.RequestID)
	}
	if _, ok := dbg.Routes[apiv1.RouteBuildSample]; !ok {
		t.Fatalf("build route missing from debug/requests: %+v", dbg.Routes)
	}
}

// The debug listener handler mounts pprof, /metrics and
// /debug/requests on a separate mux for the -debug-addr listener.
func TestServerDebugHandler(t *testing.T) {
	reg := newSalesRegistry(t)
	app := serve.NewServer(reg)
	ts := httptest.NewServer(app.DebugHandler())
	t.Cleanup(ts.Close)

	for _, path := range []string{"/debug/pprof/", "/metrics", "/debug/requests"} {
		code, body := getBody(t, ts.URL+path)
		if code != http.StatusOK || body == "" {
			t.Errorf("%s: status=%d len=%d", path, code, len(body))
		}
	}
	// the main API is deliberately NOT on the debug listener
	if code, _ := getBody(t, ts.URL+"/v1/tables"); code != http.StatusNotFound {
		t.Errorf("debug listener serves the API: /v1/tables = %d", code)
	}
}

// Satellite: /healthz stream_tables reports per-stream generation and
// refresh duration, and both advance across an append+refresh cycle.
// The same advancement is visible as repro_stream_* series.
func TestHealthzStreamTablesAdvance(t *testing.T) {
	ts, reg := startServer(t)
	t.Cleanup(reg.Close)

	if code := post(t, ts.URL+"/v1/tables/sales/stream", `{
		"queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}],
		"budget": 300, "seed": 9, "refresh_rows": 100000
	}`, nil); code != http.StatusCreated {
		t.Fatalf("stream: %d", code)
	}

	var health struct {
		StreamTables map[string]apiv1.StreamHealth `json:"stream_tables"`
	}
	if code := get(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	before, ok := health.StreamTables["sales"]
	if !ok || before.Generation != 1 || before.RefreshErrors != 0 {
		t.Fatalf("pre-refresh stream health: %+v", health.StreamTables)
	}

	if code := post(t, ts.URL+"/v1/tables/sales/rows",
		`{"rows": [["NA", "widget", 101.5], ["EU", "gadget", 88]]}`, nil); code != http.StatusOK {
		t.Fatalf("rows: %d", code)
	}
	if code := post(t, ts.URL+"/v1/tables/sales/refresh", "", nil); code != http.StatusOK {
		t.Fatalf("refresh: %d", code)
	}

	if code := get(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	after := health.StreamTables["sales"]
	if after.Generation != before.Generation+1 {
		t.Fatalf("generation %d → %d, want advancement by one", before.Generation, after.Generation)
	}
	if after.LastRefreshMS <= 0 {
		t.Fatalf("last_refresh_ms = %g after a refresh, want > 0", after.LastRefreshMS)
	}
	if after.Pending != 0 {
		t.Fatalf("pending = %d after refresh", after.Pending)
	}

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	// publications count the initial build too, so two refreshes at
	// generation two
	for series, want := range map[string]float64{
		`repro_stream_generation{table="sales"}`:                     2,
		`repro_stream_refreshes_total{table="sales"}`:                2,
		`repro_stream_refresh_duration_seconds_count{table="sales"}`: 2,
		`repro_ingest_rows_appended_total{table="sales"}`:            2,
		`repro_streams`: 1,
	} {
		if got := metricValue(body, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
}

// WithLogger routes the per-request structured log through the
// caller's slog handler, one line per request with route, request id,
// status code and duration.
func TestServerStructuredRequestLog(t *testing.T) {
	reg := newSalesRegistry(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts := httptest.NewServer(serve.NewServer(reg, serve.WithLogger(logger)))
	t.Cleanup(ts.Close)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(apiv1.HeaderRequestID, "logline-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := buf.String()
	for _, want := range []string{
		`"msg":"request"`,
		`"route":"GET /healthz"`,
		`"request_id":"logline-id"`,
		`"code":200`,
		`"duration"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("request log missing %s:\n%s", want, line)
		}
	}
	// WithLogger(nil) keeps the discard default rather than panicking
	srv := serve.NewServer(reg, serve.WithLogger(nil))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("nil-logger server: %d", rec.Code)
	}
}

// TestHealthzAndMetricsAgree drives one durable registry through every
// event that is reported on both ops surfaces — a build, a cached
// build, a sample eviction, a plan eviction, a spill save, checkpoints
// with segment truncation, and a Close with rows still pending — then
// boots a second registry off a crash image of the same data dir (a
// torn WAL tail, an unreadable spill, a spill load, a replay) and
// closes it the same way. On both, every number the registry's ops
// accessors report (what /healthz renders) must equal the series
// /metrics renders for it.
func TestHealthzAndMetricsAgree(t *testing.T) {
	ctx := context.Background()
	po := serve.PersistOptions{
		Dir:             t.TempDir(),
		Fsync:           wal.SyncAlways,
		CheckpointBytes: 16 << 10,
		SegmentBytes:    4 << 10,
	}
	// the pinned streaming sample (300 rows x 28 B) plus one static
	// sample (200 rows x 24 B) fit the byte budget, a second static one
	// does not; one plan per shard makes the second query shape evict
	opts := []serve.Option{serve.WithPersistence(po), serve.WithMaxSampleBytes(14000), serve.WithMaxPlans(1)}
	agree := func(reg *serve.Registry, nonzero ...string) {
		t.Helper()
		ps, ok := reg.PersistenceStatus()
		if !ok {
			t.Fatal("no persistence status")
		}
		var b strings.Builder
		reg.Obs().Render(&b)
		for series, healthz := range map[string]int64{
			serve.MetricBuilds:               reg.Builds(),
			serve.MetricEvictions:            reg.Evictions(),
			serve.MetricEvictedBytes:         reg.EvictedBytes(),
			serve.MetricPlanEvictions:        reg.PlanEvictions(),
			serve.MetricWalCheckpoints:       ps.Checkpoints,
			serve.MetricWalTruncatedSegments: ps.TruncatedSegments,
			serve.MetricWalSpillSaves:        ps.SpillSaves,
			serve.MetricWalSpillLoads:        ps.SpillLoads,
			serve.MetricWalReplayedRecords:   ps.ReplayedRecords,
			serve.MetricWalTornTails:         ps.TornTails,
			serve.MetricWalErrors:            ps.Errors,
		} {
			if got := metricValue(b.String(), series); got != float64(healthz) {
				t.Errorf("%s renders %g, the registry reports %d", series, got, healthz)
			}
		}
		for _, series := range nonzero {
			if metricValue(b.String(), series) <= 0 {
				t.Errorf("%s = %g: the scenario no longer exercises it", series, metricValue(b.String(), series))
			}
		}
	}
	// drive appends a batch of pending rows after each of `rounds`
	// append+refresh cycles, so Close has something to flush
	drive := func(reg *serve.Registry, rounds int) {
		t.Helper()
		st, _ := reg.StreamStatus("sales")
		rows := st.Rows
		for i := 0; i <= rounds; i++ {
			if _, err := reg.Append("sales", streamRows(rows, 200)); err != nil {
				t.Fatal(err)
			}
			rows += 200
			if i < rounds {
				if _, err := reg.Refresh("sales"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	regA := serve.NewRegistry(opts...)
	t.Cleanup(regA.Close)
	if err := regA.RegisterTable(evictTable(t, "static", 3000)); err != nil {
		t.Fatal(err)
	}
	kept := evictBuild("static", 200)
	for _, wantCached := range []bool{false, true} {
		if _, cached, err := regA.Build(ctx, kept); err != nil || cached != wantCached {
			t.Fatalf("build: cached=%v err=%v, want cached=%v", cached, err, wantCached)
		}
	}
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	evicted := evictBuild("static", 200)
	evicted.Seed = 8 // never hit, so it is the one the byte budget evicts
	if _, _, err := regA.Build(ctx, evicted); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT region, AVG(amount) FROM static GROUP BY region",
		"SELECT region, SUM(amount) FROM static GROUP BY region",
	} {
		if _, err := regA.Query(ctx, sql, serve.QueryOptions{Mode: serve.ModeExact}); err != nil {
			t.Fatal(err)
		}
	}
	drive(regA, 20)

	// the crash image: the data dir as it is now, plus what a kill -9
	// mid-write leaves behind
	image := t.TempDir()
	if err := os.CopyFS(image, os.DirFS(po.Dir)); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(image, "tables", "sales", "wal", "*.seg"))
	if len(segs) == 0 {
		t.Fatal("no wal segments in the crash image")
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(image, "samples", "deadbeefdeadbeef.smp"), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}

	regA.Close()
	agree(regA, serve.MetricBuilds, serve.MetricEvictions, serve.MetricEvictedBytes, serve.MetricPlanEvictions,
		serve.MetricWalCheckpoints, serve.MetricWalTruncatedSegments, serve.MetricWalSpillSaves)

	po.Dir = image
	regB := serve.NewRegistry(serve.WithPersistence(po))
	t.Cleanup(regB.Close)
	if err := regB.RegisterTable(evictTable(t, "static", 3000)); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := regB.Build(ctx, kept); err != nil || !cached {
		t.Fatalf("post-recovery build should load the spill: cached=%v err=%v", cached, err)
	}
	drive(regB, 0)
	regB.Close()
	agree(regB, serve.MetricWalCheckpoints, serve.MetricWalSpillLoads, serve.MetricWalReplayedRecords,
		serve.MetricWalTornTails, serve.MetricWalErrors)
}
