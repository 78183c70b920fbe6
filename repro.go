// Package repro is a Go reproduction of "Random Sampling for Group-By
// Queries" (Nguyen, Shih, Parvathaneni, Xu, Srivastava, Tirthapura;
// ICDE 2020, arXiv:1909.02629): CVOPT, a query- and data-driven
// stratified sampling framework that, for a row budget M and a set of
// group-by queries, provably minimizes the ℓ2 (or ℓ∞) norm of the
// coefficients of variation of all per-group estimates.
//
// This root package is the user-facing facade. It re-exports the core
// types and wires the typical flow together:
//
//	tbl, _ := table.LoadCSV("sales", schema, "sales.csv")
//	s, _ := repro.Build(tbl, []repro.QuerySpec{{
//	    GroupBy: []string{"region", "product"},
//	    Aggs:    []repro.AggColumn{{Column: "amount"}},
//	}}, repro.BudgetRate(tbl, 0.01), repro.Options{}, rng)
//	res, _ := repro.Answer(tbl, s, "SELECT region, AVG(amount) FROM sales GROUP BY region")
//
// The full machinery lives in the internal packages: internal/core (the
// CVOPT allocation, Theorems 1-2, Lemmas 1-4, CVOPT-INF, workload
// weights), internal/samplers (CVOPT plus the Uniform/CS/RL/Sample+Seek
// competitors), internal/plan (the SQL subset engine; internal/exec is
// its reference oracle), internal/datagen (synthetic OpenAQ/Bikes) and
// internal/experiments (every table and figure of the paper's
// evaluation; run them with cmd/cvbench).
package repro

import (
	"log/slog"
	"math/rand"
	"net/http"

	apiv1 "repro/internal/api/v1"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/samplers"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// Re-exported core types; see internal/core for full documentation.
type (
	// QuerySpec describes one group-by query a sample must serve.
	QuerySpec = core.QuerySpec
	// AggColumn is an aggregation column with optional weights.
	AggColumn = core.AggColumn
	// Options selects the norm (L2, LInf, Lp) and allocation repair.
	Options = core.Options
	// Norm is the CV-aggregation norm.
	Norm = core.Norm
	// Plan is CVOPT's precomputed offline state.
	Plan = core.Plan
	// WorkloadQuery is one entry of a query workload (Section 4.3).
	WorkloadQuery = core.WorkloadQuery
	// Sample is a weighted row sample of a table.
	Sample = samplers.RowSample
	// Result is a query answer (exact or approximate).
	Result = exec.Result
	// Registry is the concurrent sample-serving store: immutable built
	// samples keyed by (table, workload, budget), deduplicated builds,
	// parallel reads. See internal/serve.
	Registry = serve.Registry
	// SampleEntry is one immutable built sample held by a Registry.
	SampleEntry = serve.Entry
	// BuildRequest identifies one sample a Registry should build.
	BuildRequest = serve.BuildRequest
	// StreamConfig configures a streaming (live) table: the workload
	// its resident sample must serve, the per-generation budget, the
	// reservoir capacity and the refresh policy. See internal/ingest.
	StreamConfig = ingest.Config
	// RefreshPolicy selects when a streaming table republishes its
	// sample (row-count threshold and/or periodic tick).
	RefreshPolicy = ingest.Policy
	// Publication is one atomically-published generation of a
	// streaming table: immutable snapshot + weighted sample.
	Publication = ingest.Publication
	// IngestStream is the standalone streaming primitive behind
	// Registry.RegisterStreamingTable, usable without a registry.
	IngestStream = ingest.Stream
	// AppendStatus reports stream state right after a batch append.
	AppendStatus = ingest.AppendStatus
	// StreamStatus is the ops view of one streaming table.
	StreamStatus = serve.StreamStatus
	// QueryOptions tunes one Registry.Query call (mode, compare,
	// autoscaling target CV).
	QueryOptions = serve.QueryOptions
	// QueryAnswer is the outcome of one Registry.Query call.
	QueryAnswer = serve.QueryAnswer
	// AutoscaleParams configures a budget autoscale search: the
	// per-group CV goal, the hard budget cap and the allocation options.
	AutoscaleParams = core.AutoscaleParams
	// AutoscaleResult reports the chosen budget and the a-priori CV
	// guarantee it carries.
	AutoscaleResult = core.AutoscaleResult
)

// Query modes for QueryOptions.Mode.
const (
	ModeAuto   = serve.ModeAuto
	ModeSample = serve.ModeSample
	ModeExact  = serve.ModeExact
)

// DefaultStreamCapacity is the per-stratum reservoir capacity used when
// StreamConfig.Capacity is zero.
const DefaultStreamCapacity = ingest.DefaultCapacity

// Norm constants.
const (
	L2   = core.L2
	LInf = core.LInf
	Lp   = core.Lp
)

// NewPlan runs CVOPT's statistics pass for a table and query set.
func NewPlan(tbl *table.Table, queries []QuerySpec) (*Plan, error) {
	return core.NewPlan(tbl, queries)
}

// Build constructs a CVOPT sample of m rows serving the given queries.
func Build(tbl *table.Table, queries []QuerySpec, m int, opts Options, rng *rand.Rand) (*Sample, error) {
	s := &samplers.CVOPT{Opts: opts}
	return s.Build(tbl, queries, m, rng)
}

// BudgetRate converts a sampling rate (e.g. 0.01 for 1%) into a row
// budget for tbl, with a minimum of one row.
func BudgetRate(tbl *table.Table, rate float64) int {
	m := int(float64(tbl.NumRows()) * rate)
	if m < 1 {
		m = 1
	}
	return m
}

// Autoscale searches for the smallest row budget whose predicted worst
// per-group CV meets params.TargetCV (budget autoscaling: state the
// accuracy, let the system pick the cheapest sufficient budget). The
// returned budget feeds Build unchanged; AchievedCV is the a-priori CV
// bound — via Chebyshev, an error guarantee fixed before any row is
// drawn. When even params.MaxBudget cannot meet the target the result
// is best-effort at the cap with Met == false.
func Autoscale(tbl *table.Table, queries []QuerySpec, params AutoscaleParams) (*AutoscaleResult, error) {
	p, err := core.NewPlan(tbl, queries)
	if err != nil {
		return nil, err
	}
	return p.Autoscale(params)
}

// Answer evaluates sql approximately over a sample of tbl.
func Answer(tbl *table.Table, s *Sample, sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return plan.Run(tbl, q, s.Rows, s.Weights)
}

// Exact evaluates sql exactly over the full table (the ground truth).
func Exact(tbl *table.Table, sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return plan.Run(tbl, q, nil, nil)
}

// WorkloadWeights deduces per-aggregation-group weights from a query
// workload (Section 4.3) and returns QuerySpecs ready for Build.
func WorkloadWeights(tbl *table.Table, workload []WorkloadQuery) ([]QuerySpec, error) {
	return core.WorkloadWeights(tbl, workload)
}

// CubeQueries expands a WITH CUBE grouping into one QuerySpec per
// grouping set, all sharing the same aggregates.
func CubeQueries(attrs []string, aggs []AggColumn) []QuerySpec {
	return core.CubeQueries(attrs, aggs)
}

// NewRegistry returns an empty sample-serving registry: register
// tables (static via RegisterTable, live via RegisterStreamingTable or
// StreamTable), build samples once, answer queries concurrently off
// them, and Append/Refresh streaming tables in place. The registry is
// sharded by table name so load on one table never locks out another;
// options tune the shard count (WithRegistryShards) and bound resident
// sample memory with LRU eviction (WithMaxSampleBytes). Call Close when
// done to stop streaming refresh loops.
func NewRegistry(opts ...RegistryOption) *Registry {
	return serve.NewRegistry(opts...)
}

// RegistryOption configures a Registry at construction.
type RegistryOption = serve.Option

// WithMaxSampleBytes bounds the registry's resident sample memory:
// least-valuable built samples (never-hit first, then
// least-recently-used) are evicted once the estimated total exceeds the
// budget; live streaming samples are pinned. 0 disables eviction.
func WithMaxSampleBytes(max int64) RegistryOption {
	return serve.WithMaxSampleBytes(max)
}

// WithRegistryShards sets the registry's shard count (default
// serve.DefaultShards). Tables hash to shards by name; more shards mean
// less cross-table lock sharing.
func WithRegistryShards(n int) RegistryOption {
	return serve.WithShards(n)
}

// NewServerHandler exposes a registry over the HTTP/JSON serving API
// (POST /v1/query, POST /v1/samples, GET /v1/samples, the streaming
// POST /v1/tables/{name}/stream|rows|refresh endpoints, GET /healthz,
// plus the observability surface: GET /metrics and
// GET /debug/requests — see docs/OBSERVABILITY.md); cmd/cvserve is
// the ready-made daemon around it. Options tune the server
// (WithDefaultTargetCV, WithServerLogger).
func NewServerHandler(reg *Registry, opts ...ServerOption) http.Handler {
	return serve.NewServer(reg, opts...)
}

// Server is the serving API handler behind NewServerHandler. Embedders
// that want the private debug surface too (net/http/pprof, /metrics,
// /debug/requests on a separate loopback listener, as cvserve
// -debug-addr does) construct one Server and mount both it and its
// DebugHandler(), so the debug trace rings show the API's traffic.
type Server = serve.Server

// NewServer is NewServerHandler returning the concrete *Server, for
// callers that also need DebugHandler().
func NewServer(reg *Registry, opts ...ServerOption) *Server {
	return serve.NewServer(reg, opts...)
}

// ServerOption configures the HTTP serving layer at construction.
type ServerOption = serve.ServerOption

// WithDefaultTargetCV autoscales POST /v1/samples requests that name no
// budget, rate or target_cv of their own to this per-group CV goal.
func WithDefaultTargetCV(cv float64) ServerOption {
	return serve.WithDefaultTargetCV(cv)
}

// WithServerLogger routes the server's structured per-request log
// (route pattern, X-Request-ID, status, duration) through l; the
// default discards. cvserve wires its -log-format handler here.
func WithServerLogger(l *slog.Logger) ServerOption {
	return serve.WithLogger(l)
}

// Wire-contract types of the versioned HTTP API (internal/api/v1),
// aliased so external callers can construct requests for Client. The
// server marshals exactly these types; see docs/API.md.
type (
	// APIBuildRequest is the POST /v1/samples request body.
	APIBuildRequest = apiv1.BuildRequest
	// APIQuerySpec is one workload query of a build or stream request.
	APIQuerySpec = apiv1.QuerySpec
	// APIAgg is one aggregation column of an APIQuerySpec.
	APIAgg = apiv1.Agg
	// APISample describes one built sample in responses.
	APISample = apiv1.Sample
	// APISamplesList is the GET /v1/samples response body.
	APISamplesList = apiv1.SamplesList
	// APITable describes one registered table in GET /v1/tables.
	APITable = apiv1.Table
	// APIQueryRequest is the POST /v1/query request body.
	APIQueryRequest = apiv1.QueryRequest
	// APIQueryResponse is the POST /v1/query response body.
	APIQueryResponse = apiv1.QueryResponse
	// APIStreamRequest is the POST /v1/tables/{name}/stream request body.
	APIStreamRequest = apiv1.StreamRequest
	// APIStreamState is its response body.
	APIStreamState = apiv1.StreamState
	// APIAppendResponse is the POST /v1/tables/{name}/rows response body.
	APIAppendResponse = apiv1.AppendResponse
	// APIHealth is the GET /healthz response body.
	APIHealth = apiv1.Health
)

// Client is the typed Go client for the cvserve HTTP API: one method
// per route (BuildSample, Query, Tables, Samples, MakeStreaming,
// AppendRows, Refresh, Healthz), context-aware, with every non-2xx
// response decoded into an *APIError whose contract code resolves to a
// typed sentinel — branch with errors.Is(err, repro.ErrTableNotFound),
// never by matching message strings. See internal/client.
type Client = client.Client

// APIError is a non-2xx server response as a Go error: HTTP status,
// machine-readable contract code and the server's message.
type APIError = client.APIError

// NewClient returns a client for the daemon at baseURL, e.g.
// "http://localhost:8080". hc == nil uses http.DefaultClient; builds
// can run long, so prefer per-call context deadlines over a blanket
// http.Client.Timeout.
func NewClient(baseURL string, hc *http.Client) (*Client, error) {
	return client.New(baseURL, hc)
}

// Typed sentinels for the API's contract error codes; every APIError
// unwraps to the one matching its code.
var (
	ErrTableNotFound    = client.ErrTableNotFound
	ErrBudgetConflict   = client.ErrBudgetConflict
	ErrNotStreaming     = client.ErrNotStreaming
	ErrAlreadyStreaming = client.ErrAlreadyStreaming
	ErrInvalidBody      = client.ErrInvalidBody
	ErrInvalidRequest   = client.ErrInvalidRequest
	ErrBodyTooLarge     = client.ErrBodyTooLarge
	ErrUnsupportedMedia = client.ErrUnsupportedMedia
	ErrBuildFailed      = client.ErrBuildFailed
	ErrQueryFailed      = client.ErrQueryFailed
	ErrAppendFailed     = client.ErrAppendFailed
)

// NewStream creates a standalone streaming sampler for a table: seed's
// rows are copied in, publish receives every finalized generation. Most
// callers want Registry.RegisterStreamingTable instead, which wires the
// publications into the serving read path.
func NewStream(seed *table.Table, cfg StreamConfig, publish func(*Publication)) (*IngestStream, error) {
	return ingest.New(seed, cfg, publish)
}
