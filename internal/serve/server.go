package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/qos"
	"repro/internal/sqlparse"
)

// Version identifies the daemon build in /healthz; override it at link
// time ("dev" otherwise):
//
//	go build -ldflags "-X repro/internal/serve.Version=v1.2.3" ./cmd/cvserve
var Version = "dev"

// Server is the HTTP/JSON front end of a Registry. Every request,
// response and error body on the wire is a type from the versioned
// contract package internal/api/v1 — this file maps HTTP onto the
// registry and declares no wire structs of its own. The routes
// (apiv1.Routes):
//
//	GET  /healthz                   — liveness, build identity, counters, per-route latency
//	GET  /metrics                   — Prometheus text exposition of every repro_* series
//	GET  /debug/requests            — recent per-route request traces, newest first
//	GET  /v1/tables                 — registered tables (live ones carry stream state)
//	GET  /v1/samples                — built samples with per-entry hit counts
//	POST /v1/samples                — register (build or fetch cached) a sample
//	POST /v1/query                  — answer a SQL group-by query
//	POST /v1/tables/{name}/stream   — make a registered table live (streaming)
//	POST /v1/tables/{name}/rows     — batch-append rows to a live table
//	POST /v1/tables/{name}/refresh  — publish a fresh sample generation now
//
// Every route runs inside the instrument wrapper: the request gets a
// trace ID (the client's X-Request-ID, or a fresh one) echoed on the
// response, a phase trace recorded in the per-route ring
// (GET /debug/requests), a latency observation, per-route request
// counters, and one structured log line.
//
// A Server is safe for concurrent use; beyond the registry it holds
// only bounded trace rings.
type Server struct {
	reg *Registry
	mux *http.ServeMux
	// tracer keeps the most recent request traces per route for
	// GET /debug/requests.
	tracer *obs.Tracer
	// logger receives one structured line per served request. The
	// default discards; cvserve wires a text or JSON handler here.
	logger *slog.Logger
	// defaultTargetCV, when positive, autoscales POST /v1/samples
	// requests that specify none of budget/rate/target_cv (the daemon
	// operator's accuracy default, cvserve -default-target-cv).
	defaultTargetCV float64
	// qos, when non-nil, is the heavy-traffic front end gating the build
	// and query routes: admission control (429 + Retry-After past the
	// inflight and queue bounds), per-tenant token buckets keyed by
	// X-API-Token, window-batched query coalescing, and load shedding of
	// target_cv queries onto resident samples. nil = no gating (the
	// default; cvserve wires it from -max-inflight).
	qos *qos.FrontEnd
	// ingestHorizonRows, when positive, is the per-stream resident row
	// count above which /healthz carries a warning (cvserve
	// -ingest-horizon-rows).
	ingestHorizonRows int
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithDefaultTargetCV sets the per-group CV goal applied when a POST
// /v1/samples request names no budget, rate or target_cv of its own:
// instead of a 400, the sample is autoscaled to this target. cv <= 0
// (the default) keeps sizing mandatory.
func WithDefaultTargetCV(cv float64) ServerOption {
	return func(s *Server) { s.defaultTargetCV = cv }
}

// WithLogger sets the structured logger that receives one line per
// served request (route, request_id, code, duration). A nil logger
// keeps the default, which discards.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.logger = l
		}
	}
}

// WithQoS installs a QoS front end on the build and query routes and
// registers its repro_qos_* metric series on the registry's exposition.
// nil disables gating (the default).
func WithQoS(fe *qos.FrontEnd) ServerOption {
	return func(s *Server) { s.qos = fe }
}

// WithIngestHorizonRows sets the per-stream resident row count above
// which /healthz reports a warning for that stream — the "this buffer
// will not fit forever" tripwire. n <= 0 (the default) disables the
// warning.
func WithIngestHorizonRows(n int) ServerOption {
	return func(s *Server) { s.ingestHorizonRows = n }
}

// NewServer wraps a registry in its HTTP API.
func NewServer(reg *Registry, opts ...ServerOption) *Server {
	s := &Server{
		reg:    reg,
		mux:    http.NewServeMux(),
		tracer: obs.NewTracer(obs.DefaultRingSize),
		logger: slog.New(slog.DiscardHandler),
	}
	for _, o := range opts {
		o(s)
	}
	if s.qos != nil {
		registerQoSMetrics(reg.Obs(), s.qos)
	}
	s.route(apiv1.RouteHealthz, s.handleHealthz)
	s.route(apiv1.RouteMetrics, s.reg.Obs().ServeHTTP)
	s.route(apiv1.RouteDebugReqs, s.handleDebugRequests)
	s.route(apiv1.RouteTables, s.handleTables)
	s.route(apiv1.RouteListSamples, s.handleListSamples)
	s.route(apiv1.RouteBuildSample, s.handleBuildSample)
	s.route(apiv1.RouteQuery, s.handleQuery)
	s.route(apiv1.RouteStreamTable, s.handleStreamTable)
	s.route(apiv1.RouteAppendRows, s.handleAppendRows)
	s.route(apiv1.RouteRefreshTable, s.handleRefreshTable)
	return s
}

// route registers a handler under its contract pattern, wrapped in the
// request instrument, keyed by the pattern (not the concrete URL, so
// /v1/tables/{name}/rows is one series no matter how many tables
// exist).
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.instrument(pattern, w, r, h)
	})
}

// statusRecorder captures the response status code for the instrument
// wrapper. Unwrap exposes the underlying writer so
// http.NewResponseController — the write-deadline resets on the build,
// stream and query routes — still reaches the real connection.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument runs one request end to end: it adopts the client's
// X-Request-ID (minting one when absent) as the trace ID and echoes it
// on the response, threads a phase trace through the request context,
// and — after the handler returns — records the trace, the latency
// digest, the per-route/per-code counters and one structured log line.
func (s *Server) instrument(pattern string, w http.ResponseWriter, r *http.Request, h http.HandlerFunc) {
	start := time.Now()
	id := r.Header.Get(apiv1.HeaderRequestID)
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set(apiv1.HeaderRequestID, id)
	tr := obs.NewTrace(id, pattern)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h(rec, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
	d := time.Since(start)
	tr.End(rec.status)
	s.tracer.Record(tr)
	s.reg.metrics.httpRequests.With(pattern, strconv.Itoa(rec.status)).Inc()
	s.reg.metrics.httpDuration.With(pattern).Observe(d)
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("route", pattern),
		slog.String("request_id", id),
		slog.Int("code", rec.status),
		slog.Duration("duration", d))
}

// latencyGateLabel is the synthetic latency-series key for requests
// the Content-Type gate rejects before routing: a fleet of
// misconfigured clients flooding 415s must show up in /healthz, not
// vanish because no route ever ran.
const latencyGateLabel = "POST (unsupported_media_type)"

// ServeHTTP implements http.Handler. The POST Content-Type gate lives
// here — one check shared by every POST handler: a body declared as
// anything other than JSON is a 415 before any handler runs (counted
// under latencyGateLabel in the /healthz latency map). A missing
// Content-Type is accepted and treated as JSON (bare scripted clients;
// the strict decoder still 400s non-JSON payloads), so only an
// affirmatively wrong declaration is rejected.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		if ct := r.Header.Get("Content-Type"); ct != "" {
			if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
				start := time.Now()
				writeError(w, apiv1.CodeUnsupportedMedia,
					"unsupported Content-Type %q: request bodies must be application/json", ct)
				d := time.Since(start)
				s.reg.metrics.httpRequests.With(latencyGateLabel,
					strconv.Itoa(http.StatusUnsupportedMediaType)).Inc()
				s.reg.metrics.httpDuration.With(latencyGateLabel).Observe(d)
				return
			}
		}
	}
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError sends the apiv1.Error envelope; the HTTP status is
// derived from the code (apiv1.StatusOf), so status and code cannot
// disagree on the wire.
func writeError(w http.ResponseWriter, code string, format string, args ...any) {
	writeJSON(w, apiv1.StatusOf(code), apiv1.Error{Code: code, Message: fmt.Sprintf(format, args...)})
}

// writeOverloaded sends the 429 overloaded envelope with its
// Retry-After hint — whole seconds, floor 1, per the wire contract
// (the client uses the hint as a backoff floor).
func writeOverloaded(w http.ResponseWriter, retryAfter time.Duration, format string, args ...any) {
	secs := int((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set(apiv1.HeaderRetryAfter, strconv.Itoa(secs))
	writeError(w, apiv1.CodeOverloaded, format, args...)
}

// admitTenant charges the request to its tenant's token bucket (the
// X-API-Token header; absent means the unauthenticated tenant). It
// writes the 429 itself and returns false when the bucket is empty.
// No-op without a QoS front end or tenant limits.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) bool {
	if s.qos == nil || s.qos.Tenants == nil {
		return true
	}
	token := r.Header.Get(apiv1.HeaderAPIToken)
	ok, retry := s.qos.Tenants.Allow(token)
	if !ok {
		writeOverloaded(w, retry, "tenant rate limit exceeded; retry in %s", retry)
	}
	return ok
}

// maxBodyBytes caps request bodies: the largest legitimate request is
// a workload spec, far under 1 MiB, and the daemon must not buffer an
// unbounded body from one client.
const maxBodyBytes = 1 << 20

// decodeJSON decodes a request body strictly (unknown fields are
// errors, catching typos like "buget" before they silently build the
// wrong sample) and bounded by maxBodyBytes. On failure it writes the
// error response (body_too_large for oversized bodies, invalid_body
// otherwise) and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, apiv1.CodeBodyTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		} else {
			writeError(w, apiv1.CodeInvalidBody, "bad request body: %v", err)
		}
		return false
	}
	return true
}

// durMS renders a duration as every duration goes on the wire.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// wireGuarantee renders an entry's autoscale guarantee for the sample
// and query responses alike; all zero (so off the wire) for an
// explicit-budget entry.
func wireGuarantee(e *Entry) (targetCV float64, chosenBudget int, achievedCV *float64, targetMet *bool) {
	if e.TargetCV <= 0 {
		return 0, 0, nil, nil
	}
	met := e.TargetMet && !e.GuaranteeStale()
	return e.TargetCV, e.Budget, apiv1.Float64(e.AchievedCV), &met
}

// toWireSample renders one registry entry as its contract type.
func toWireSample(e *Entry, cached bool) apiv1.Sample {
	out := apiv1.Sample{
		Key:        e.Key,
		Table:      e.Table,
		Budget:     e.Budget,
		Rows:       e.Sample.Len(),
		GroupBy:    e.GroupAttrs(),
		BuiltAt:    e.BuiltAt,
		BuildMS:    durMS(e.BuildDuration),
		Hits:       e.Hits.Load(),
		SizeBytes:  e.SizeBytes(),
		Generation: e.Generation,
		Cached:     cached,
	}
	out.TargetCV, out.ChosenBudget, out.AchievedCV, out.TargetMet = wireGuarantee(e)
	return out
}

// traceToWire renders one recorded trace as its contract type.
func traceToWire(td obs.TraceData) apiv1.RequestTrace {
	out := apiv1.RequestTrace{
		RequestID:  td.ID,
		Route:      td.Route,
		Status:     td.Status,
		Start:      td.Start,
		DurationMS: durMS(td.Duration),
		Spans:      make([]apiv1.TraceSpan, len(td.Spans)),
	}
	for i, sp := range td.Spans {
		out.Spans[i] = apiv1.TraceSpan{Name: sp.Name, StartMS: durMS(sp.Start), DurationMS: durMS(sp.Duration)}
	}
	return out
}

// handleDebugRequests lists the most recent traces per route, newest
// first, bounded by each route's ring capacity.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	out := apiv1.DebugRequests{Routes: map[string][]apiv1.RequestTrace{}}
	for _, route := range s.tracer.Routes() {
		traces := s.tracer.Recent(route)
		wire := make([]apiv1.RequestTrace, len(traces))
		for i, td := range traces {
			wire[i] = traceToWire(td)
		}
		out.Routes[route] = wire
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tables, samples := s.reg.Counts()
	h := apiv1.Health{
		Status:              "ok",
		Version:             Version,
		Go:                  runtime.Version(),
		Tables:              tables,
		Samples:             samples,
		Builds:              s.reg.Builds(),
		Streams:             s.reg.StreamCount(),
		Refreshes:           s.reg.Refreshes(),
		SampleHits:          s.reg.TotalHits(),
		Shards:              s.reg.Shards(),
		ResidentSampleBytes: s.reg.ResidentSampleBytes(),
		MaxSampleBytes:      s.reg.MaxSampleBytes(),
		Evictions:           s.reg.Evictions(),
	}
	// the per-route digests come from the same histograms /metrics
	// exposes: one latency recorder per request
	h.Latency = make(map[string]apiv1.LatencySummary)
	s.reg.metrics.httpDuration.Each(func(route []string, hist *obs.Histogram) {
		sum := hist.Summary()
		if sum.Count == 0 {
			return
		}
		h.Latency[route[0]] = apiv1.LatencySummary{
			Count: sum.Count,
			P50MS: durMS(sum.P50),
			P95MS: durMS(sum.P95),
			P99MS: durMS(sum.P99),
		}
	})
	if sts := s.reg.StreamStatuses(); len(sts) > 0 {
		h.StreamTables = make(map[string]apiv1.StreamHealth, len(sts))
		for _, st := range sts {
			h.StreamTables[st.Table] = apiv1.StreamHealth{
				Generation:    st.Generation,
				LastRefreshMS: durMS(st.LastRefresh),
				Pending:       st.Pending,
				RefreshErrors: st.RefreshErrors,
				ResidentRows:  st.Rows,
			}
			if s.ingestHorizonRows > 0 && st.Rows > s.ingestHorizonRows {
				h.Warnings = append(h.Warnings, fmt.Sprintf(
					"stream %q holds %d resident rows, past the %d-row horizon",
					st.Table, st.Rows, s.ingestHorizonRows))
			}
		}
	}
	if s.qos != nil {
		st := s.qos.Stats()
		h.QoS = &apiv1.QoSHealth{
			MaxInflight:    st.MaxInflight,
			MaxQueue:       st.MaxQueue,
			Inflight:       st.Inflight,
			Queued:         st.Queued,
			Admitted:       st.Admitted,
			Rejected:       st.Rejected,
			Shed:           st.Shed,
			Coalesced:      st.Coalesced,
			Batches:        st.Batches,
			TenantRejected: st.TenantRejected,
		}
	}
	if ps, ok := s.reg.PersistenceStatus(); ok {
		h.Persistence = &apiv1.PersistenceHealth{
			Dir:               ps.Dir,
			Fsync:             ps.Fsync,
			WalSegments:       ps.WalSegments,
			WalBytes:          ps.WalBytes,
			WalLagRecords:     ps.WalLagRecords,
			Checkpoints:       ps.Checkpoints,
			TruncatedSegments: ps.TruncatedSegments,
			SpilledSamples:    ps.SpilledSamples,
			RecoveredTables:   ps.RecoveredTables,
			ReplayedRecords:   ps.ReplayedRecords,
			TornTails:         ps.TornTails,
			ReplayMS:          durMS(ps.ReplayDuration),
			Errors:            ps.Errors,
		}
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	out := apiv1.TablesList{Tables: []apiv1.Table{}}
	for _, name := range s.reg.TableNames() {
		tbl, _ := s.reg.Table(name)
		tj := apiv1.Table{Name: name, Rows: tbl.NumRows(), Cols: tbl.NumCols()}
		if st, ok := s.reg.StreamStatus(name); ok {
			tj.Streaming = true
			tj.Generation = st.Generation
			tj.Pending = st.Pending
			tj.Rows = st.Rows
		}
		out.Tables = append(out.Tables, tj)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleListSamples(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Entries()
	out := apiv1.SamplesList{
		Samples:       make([]apiv1.Sample, len(entries)),
		ResidentBytes: s.reg.ResidentSampleBytes(),
		MaxBytes:      s.reg.MaxSampleBytes(),
		Evictions:     s.reg.Evictions(),
	}
	for i, e := range entries {
		out.Samples[i] = toWireSample(e, false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleBuildSample(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFromContext(r.Context())
	tr.Phase("decode")
	var req apiv1.BuildRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if !s.admitTenant(w, r) {
		return
	}
	// a CVOPT build on a production-sized table can outlast any
	// server-wide WriteTimeout; clear this route's write deadline so a
	// slow build still delivers its response (best-effort: not every
	// ResponseWriter supports it)
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	if req.Table == "" {
		writeError(w, apiv1.CodeInvalidRequest, "table is required")
		return
	}
	tbl, ok := s.reg.Table(req.Table)
	if !ok {
		writeError(w, apiv1.CodeTableNotFound, "unknown table %q", req.Table)
		return
	}
	budget, targetCV := req.Budget, req.TargetCV
	switch {
	case budget < 0:
		writeError(w, apiv1.CodeInvalidRequest, "budget must be positive, got %d", budget)
		return
	case targetCV < 0:
		writeError(w, apiv1.CodeInvalidRequest, "target_cv must be positive, got %g", targetCV)
		return
	case req.MaxBudget < 0:
		writeError(w, apiv1.CodeInvalidRequest, "max_budget must be non-negative, got %d", req.MaxBudget)
		return
	case targetCV != 0 && (budget != 0 || req.Rate != 0):
		writeError(w, apiv1.CodeBudgetConflict, "target_cv is mutually exclusive with budget and rate: the server chooses the budget")
		return
	case req.MaxBudget != 0 && targetCV == 0:
		writeError(w, apiv1.CodeBudgetConflict, "max_budget caps an autoscaled build; it requires target_cv")
		return
	case budget != 0 && req.Rate != 0:
		writeError(w, apiv1.CodeBudgetConflict, "set budget or rate, not both")
		return
	case budget == 0 && req.Rate == 0 && targetCV == 0:
		if s.defaultTargetCV > 0 {
			// the operator configured an accuracy default: size-free
			// requests autoscale to it
			targetCV = s.defaultTargetCV
			break
		}
		writeError(w, apiv1.CodeBudgetConflict, "one of budget, rate or target_cv is required")
		return
	case req.Rate != 0:
		if req.Rate < 0 || req.Rate > 1 {
			writeError(w, apiv1.CodeInvalidRequest, "rate must be in (0, 1], got %g", req.Rate)
			return
		}
		budget = int(float64(tbl.NumRows()) * req.Rate)
		if budget < 1 {
			budget = 1
		}
	}
	opts, specs, err := parseWorkload(req.Norm, req.P, req.Queries)
	if err != nil {
		writeError(w, apiv1.CodeInvalidRequest, "%v", err)
		return
	}
	if s.qos != nil {
		// builds queue like any other admitted work: a full queue is an
		// immediate 429, not an unbounded pileup of CVOPT passes
		release, aerr := s.qos.Admission.Acquire(r.Context())
		if aerr != nil {
			if errors.Is(aerr, qos.ErrOverloaded) {
				writeOverloaded(w, s.retryAfter(), "serve: %v", aerr)
				return
			}
			writeError(w, apiv1.CodeBuildFailed, "%v", aerr)
			return
		}
		defer release()
	}
	entry, cached, err := s.reg.Build(r.Context(), BuildRequest{
		Table:     tbl.Name,
		Queries:   specs,
		Budget:    budget,
		TargetCV:  targetCV,
		MaxBudget: req.MaxBudget,
		Opts:      opts,
		Seed:      req.Seed,
	})
	if err != nil {
		writeError(w, apiv1.CodeBuildFailed, "%v", err)
		return
	}
	code := http.StatusCreated
	if cached {
		code = http.StatusOK
	}
	out := toWireSample(entry, cached)
	tr.Phase("encode")
	if req.Debug {
		wt := traceToWire(tr.Snapshot())
		out.Trace = &wt
	}
	writeJSON(w, code, out)
}

// parseWorkload converts the workload a build or stream request
// carries: the wire norm (l2 default, linf, lp + p) onto core.Options,
// and the query specs, validated.
func parseWorkload(norm string, p float64, queries []apiv1.QuerySpec) (opts core.Options, specs []core.QuerySpec, err error) {
	switch norm {
	case "", apiv1.NormL2:
	case apiv1.NormLInf:
		opts.Norm = core.LInf
	case apiv1.NormLp:
		if p < 1 {
			return opts, nil, fmt.Errorf("norm lp requires p >= 1, got %g", p)
		}
		opts.Norm, opts.P = core.Lp, p
	default:
		return opts, nil, fmt.Errorf("unknown norm %q (want l2, linf or lp)", norm)
	}
	specs = make([]core.QuerySpec, len(queries))
	for i, q := range queries {
		specs[i] = core.QuerySpec{GroupBy: q.GroupBy}
		for _, a := range q.Aggs {
			specs[i].Aggs = append(specs[i].Aggs, core.AggColumn{Column: a.Column, Weight: a.Weight})
		}
		if err := specs[i].Validate(); err != nil {
			return opts, nil, fmt.Errorf("query %d: %v", i, err)
		}
	}
	return opts, specs, nil
}

func (s *Server) streamStateToWire(name string) apiv1.StreamState {
	out := apiv1.StreamState{Table: name}
	if st, ok := s.reg.StreamStatus(name); ok {
		out.Table = st.Table
		out.Streaming = true
		out.Generation = st.Generation
		out.Rows = st.Rows
		out.Pending = st.Pending
	}
	return out
}

// handleStreamTable converts a registered table into a streaming one.
func (s *Server) handleStreamTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req apiv1.StreamRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// the initial publication samples the whole seed table; exempt it
	// from the daemon's write deadline like any other build
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	if _, ok := s.reg.Table(name); !ok {
		writeError(w, apiv1.CodeTableNotFound, "unknown table %q", name)
		return
	}
	opts, specs, err := parseWorkload(req.Norm, req.P, req.Queries)
	if err != nil {
		writeError(w, apiv1.CodeInvalidRequest, "%v", err)
		return
	}
	var interval time.Duration
	if req.RefreshInterval != "" {
		interval, err = time.ParseDuration(req.RefreshInterval)
		if err != nil {
			writeError(w, apiv1.CodeInvalidRequest, "bad refresh_interval: %v", err)
			return
		}
	}
	cfg := ingest.Config{
		Queries:   specs,
		Budget:    req.Budget,
		Rate:      req.Rate,
		TargetCV:  req.TargetCV,
		MaxBudget: req.MaxBudget,
		Capacity:  req.Capacity,
		Opts:      opts,
		Seed:      req.Seed,
		Policy:    ingest.Policy{MaxPending: req.RefreshRows, Interval: interval},
	}
	if err := s.reg.StreamTable(name, cfg); err != nil {
		writeError(w, streamErrorCode(err, apiv1.CodeBuildFailed), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.streamStateToWire(name))
}

// handleAppendRows batch-appends rows to a streaming table.
func (s *Server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req apiv1.AppendRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, apiv1.CodeInvalidRequest, "rows is required")
		return
	}
	st, err := s.reg.Append(name, req.Rows)
	if err != nil {
		writeError(w, streamErrorCode(err, apiv1.CodeAppendFailed), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, apiv1.AppendResponse{
		Table:      name,
		Appended:   st.Appended,
		Pending:    st.Pending,
		Rows:       st.Rows,
		Generation: st.Generation,
	})
}

// handleRefreshTable forces a streaming table to publish a fresh
// sample generation.
func (s *Server) handleRefreshTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// a refresh finalizes over everything ingested so far; exempt it
	// from the write deadline like a build
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	e, err := s.reg.Refresh(name)
	if err != nil {
		writeError(w, streamErrorCode(err, apiv1.CodeBuildFailed), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, toWireSample(e, false))
}

// streamErrorCode maps streaming registry errors to contract error
// codes: unknown table, streaming-state conflicts, else the caller's
// fallback (the route-appropriate 422 code).
func streamErrorCode(err error, fallback string) string {
	switch {
	case errors.Is(err, ErrNotStreaming):
		return apiv1.CodeNotStreaming
	case errors.Is(err, ErrAlreadyStreaming):
		return apiv1.CodeAlreadyStreaming
	case errors.Is(err, ErrUnknownTable):
		return apiv1.CodeTableNotFound
	}
	return fallback
}

// retryAfter returns the admission controller's current backoff
// estimate (1s without a QoS front end — the floor the contract
// guarantees anyway).
func (s *Server) retryAfter() time.Duration {
	if s.qos == nil {
		return time.Second
	}
	return s.qos.Admission.RetryAfter()
}

// gatedQuery runs one query through the QoS front end: identical
// in-window requests coalesce onto one executor pass, and the pass is
// admitted against the inflight bounds — so a herd of 64 identical
// queries consumes one admission slot, not 64. target_cv queries never
// queue: when the full lane is busy they degrade to a resident sample
// through the shed lane (QueryOptions.Degrade) or fail overloaded.
// Without a front end this is exactly s.reg.Query.
func (s *Server) gatedQuery(r *http.Request, req apiv1.QueryRequest, opt QueryOptions) (*QueryAnswer, error) {
	if s.qos == nil {
		return s.reg.Query(r.Context(), req.SQL, opt)
	}
	run := func(ctx context.Context) (*QueryAnswer, error) {
		if opt.TargetCV > 0 {
			if release, ok := s.qos.Admission.TryAcquire(); ok {
				defer release()
				return s.reg.Query(ctx, req.SQL, opt)
			}
			// degrade instead of queueing: under pressure the cheapest
			// resident sample answers now, honestly flagged, rather than
			// a full autoscale search answering late
			release, ok := s.qos.Admission.TryShed()
			if !ok {
				return nil, fmt.Errorf("serve: %w", qos.ErrOverloaded)
			}
			defer release()
			shed := opt
			shed.Degrade = true
			return s.reg.Query(ctx, req.SQL, shed)
		}
		release, err := s.qos.Admission.Acquire(ctx)
		if err != nil {
			if errors.Is(err, qos.ErrOverloaded) {
				return nil, fmt.Errorf("serve: %w", qos.ErrOverloaded)
			}
			return nil, err
		}
		defer release()
		return s.reg.Query(ctx, req.SQL, opt)
	}
	key, ok := s.coalesceKey(req, opt)
	if s.qos.Coalescer == nil || !ok {
		return run(r.Context())
	}
	// the leader's pass must survive its own caller's disconnect —
	// followers depend on the result — so it runs over a detached
	// (cancellation-free, value-preserving) context
	detached := context.WithoutCancel(r.Context())
	v, _, err := s.qos.Coalescer.Do(r.Context(), key, func() (any, error) {
		return run(detached)
	})
	if err != nil {
		return nil, err
	}
	return v.(*QueryAnswer), nil
}

// coalesceKey derives the coalescing identity of a query request: the
// normalized SQL (the same canonicalization the plan cache keys by:
// parse + case-stable FROM + canonical rendering), every query option
// that changes the answer, and the table's published sample generation —
// so a streaming refresh between windows can never fan a stale answer
// out. Compare-mode queries are never coalesced (their exact-result
// comparison is materialized per response), and unparseable or
// unknown-table requests fall through uncoalesced so the registry
// produces its usual error.
func (s *Server) coalesceKey(req apiv1.QueryRequest, opt QueryOptions) (string, bool) {
	if opt.Compare {
		return "", false
	}
	q, err := sqlparse.Parse(req.SQL)
	if err != nil || q.From == "" {
		return "", false
	}
	tbl, ok := s.reg.Table(q.From)
	if !ok {
		return "", false
	}
	q.From = tbl.Name
	return fmt.Sprintf("%s\x00mode=%d\x00tcv=%g\x00maxm=%d\x00gen=%d",
		q.String(), opt.Mode, opt.TargetCV, opt.MaxBudget,
		s.reg.SampleGeneration(tbl.Name)), true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFromContext(r.Context())
	tr.Phase("decode")
	var req apiv1.QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// exact and compare answers scan the full table, which can outlast
	// a server-wide WriteTimeout just like a sample build; best-effort
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	if req.SQL == "" {
		writeError(w, apiv1.CodeInvalidRequest, "sql is required")
		return
	}
	var opt QueryOptions
	switch req.Mode {
	case "", apiv1.ModeAuto:
		opt.Mode = ModeAuto
	case apiv1.ModeSample:
		opt.Mode = ModeSample
	case apiv1.ModeExact:
		opt.Mode = ModeExact
	default:
		writeError(w, apiv1.CodeInvalidRequest, "unknown mode %q (want auto, sample or exact)", req.Mode)
		return
	}
	switch {
	case req.TargetCV < 0:
		writeError(w, apiv1.CodeInvalidRequest, "target_cv must be positive, got %g", req.TargetCV)
		return
	case req.MaxBudget < 0:
		writeError(w, apiv1.CodeInvalidRequest, "max_budget must be non-negative, got %d", req.MaxBudget)
		return
	case req.MaxBudget != 0 && req.TargetCV == 0:
		writeError(w, apiv1.CodeBudgetConflict, "max_budget caps an autoscaled query; it requires target_cv")
		return
	case req.TargetCV > 0 && opt.Mode == ModeExact:
		writeError(w, apiv1.CodeBudgetConflict, "target_cv asks for an autoscaled sample; it cannot be combined with mode \"exact\"")
		return
	}
	opt.Compare = req.Compare
	opt.TargetCV, opt.MaxBudget = req.TargetCV, req.MaxBudget
	if !s.admitTenant(w, r) {
		return
	}
	ans, err := s.gatedQuery(r, req, opt)
	if err != nil {
		// an unknown FROM table is table_not_found/404, consistent with
		// every other route; an admission refusal (or a shed query with
		// nothing resident to degrade to) is overloaded/429 with a
		// Retry-After hint; anything else the query could not serve is
		// query_failed/422
		if errors.Is(err, qos.ErrOverloaded) || errors.Is(err, ErrNoResidentSample) {
			writeOverloaded(w, s.retryAfter(), "%v", err)
			return
		}
		writeError(w, streamErrorCode(err, apiv1.CodeQueryFailed), "%v", err)
		return
	}
	tr.Phase("encode")
	resp := apiv1.QueryResponse{
		Table:     ans.Table,
		Exact:     ans.Entry == nil,
		Sets:      ans.Result.Sets,
		AggLabels: ans.Result.AggLabels,
	}
	if ans.Entry != nil {
		resp.SampleKey = ans.Entry.Key
		resp.SampleRows = ans.Entry.Sample.Len()
		resp.Generation = ans.Entry.Generation
		resp.TargetCV, resp.ChosenBudget, resp.AchievedCV, resp.TargetMet = wireGuarantee(ans.Entry)
		if ans.Degraded {
			// load-shed answer: report the *caller's* target next to the
			// answering sample's actual guarantee (achieved_cv is present
			// only when that sample was itself autoscaled), and an honest
			// target_met judged against the caller's target
			resp.Degraded = true
			resp.TargetCV = req.TargetCV
			resp.ChosenBudget = ans.Entry.Budget
			met := ans.Entry.TargetCV > 0 && ans.Entry.AchievedCV <= req.TargetCV &&
				!ans.Entry.GuaranteeStale()
			resp.TargetMet = &met
		}
	}
	resp.Executor = apiv1.ExecutorColumnar
	if req.Explain {
		in := plan.ExplainInput{Source: "table"}
		if ans.Entry != nil {
			in.Source = "sample"
			in.Rows = ans.Entry.Sample.Len()
			in.SampleKey = ans.Entry.Key
			in.TargetCV = ans.Entry.TargetCV
		} else if tbl, ok := s.reg.Table(ans.Table); ok {
			in.Rows = tbl.NumRows()
		}
		resp.Plan = ans.Plan.Explain(in)
	}
	groups := &wireGroups{rows: ans.Result.Rows}
	if ans.ExactResult != nil {
		// compare mode: index the exact answer once (O(G)), then O(1)
		// per served group — never the per-group Lookup scan
		groups.exact = ans.ExactResult.Index()
	}
	if req.Debug {
		wt := traceToWire(tr.Snapshot())
		resp.Trace = &wt
	}
	// one buffer sized from the answer (MaxGroupBytes is measured on
	// the benchmark's tiles), one Write
	size := apiv1.AnswerHeadBytes + apiv1.MaxGroupBytes*len(ans.Result.Rows)
	body, err := apiv1.AppendQueryResponse(make([]byte, 0, size), &resp, groups)
	if err != nil {
		writeError(w, apiv1.CodeQueryFailed, "encoding the answer: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client is gone; nobody is left to tell
}

// wireGroups is a result's rows in the wire encoder's flat form
// (apiv1.GroupSource): no []apiv1.Group, no pointer per cell. In
// compare mode each group's relative errors come from the exact
// answer's index; a group or aggregate the exact answer lacks reads
// NaN, which encodes as null.
type wireGroups struct {
	rows  []exec.Row
	exact map[string][]float64
	rel   []float64 // scratch: one group's relative errors
}

func (g *wireGroups) Len() int { return len(g.rows) }

func (g *wireGroups) Group(i int) (set int, key []string, aggs, se, relErr []float64) {
	row := &g.rows[i]
	if g.exact == nil {
		return row.Set, row.Key, row.Aggs, row.SE, nil
	}
	want, ok := g.exact[exec.KeyOf(row.Set, row.Key)]
	g.rel = g.rel[:0]
	for j, got := range row.Aggs {
		v := math.NaN()
		if ok && j < len(want) {
			v = metrics.RelativeError(want[j], got)
		}
		g.rel = append(g.rel, v)
	}
	return row.Set, row.Key, row.Aggs, row.SE, g.rel
}
