// Package benchserve is the serving-path benchmark harness behind
// cvbench -bench serve: a fixed set of named scenarios, each exercising
// one hot path of the registry/server stack (sampler builds, sampled
// and exact queries, streaming appends, the /metrics exposition),
// measured with testing.Benchmark and reported as machine-readable
// results (BENCH_serve.json).
//
// The harness core is deliberately clock-free: it reports what the
// testing package measured and nothing else. Build identity and the
// run timestamp are stamped by the caller (cmd/cvbench), so two runs of
// the same binary over the same scenarios are byte-comparable.
package benchserve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// Scenario is one named serving benchmark.
type Scenario struct {
	// Name identifies the scenario in the report ([a-z_]+).
	Name string
	// Run is the benchmark body, in standard testing.B form.
	Run func(b *testing.B)
}

// Result is one scenario's measurement. The fields mirror
// testing.BenchmarkResult; cmd/cvbench owns the wire encoding.
type Result struct {
	Name        string
	Iterations  int
	NsPerOp     float64
	AllocsPerOp int64
	BytesPerOp  int64
}

// benchRows sizes the scenario table: big enough that per-row work
// dominates fixed dispatch overhead, small enough that -benchtime=1x
// smoke runs stay instant.
const benchRows = 4096

// execRows sizes the executor-comparison table. The exec_* scenarios
// measure per-row execution cost (interpreted closures vs columnar
// batches), so they want enough rows that the fixed costs — parse,
// plan-cache lookup, result assembly — disappear into the noise.
const execRows = 32768

// benchTable builds the scenario table: one group column with a few
// strata, one aggregate column.
func benchTable(name string) *table.Table {
	tbl := table.New(name, table.Schema{
		{Name: "region", Kind: table.String},
		{Name: "amount", Kind: table.Float},
	})
	regions := []string{"NA", "EU", "APAC", "LATAM"}
	for i := 0; i < benchRows; i++ {
		if err := tbl.AppendRow(regions[i%len(regions)], float64(i%97)); err != nil {
			panic(err)
		}
	}
	return tbl
}

// execTable builds the executor-comparison table: eight strata, a
// float measure and an int measure, so the benchmark query exercises a
// predicate, a group-by and mixed-kind aggregate arguments.
func execTable(name string) *table.Table {
	tbl := table.New(name, table.Schema{
		{Name: "region", Kind: table.String},
		{Name: "amount", Kind: table.Float},
		{Name: "qty", Kind: table.Int},
	})
	regions := []string{"NA", "EU", "APAC", "LATAM", "MEA", "ANZ", "SA", "CN"}
	for i := 0; i < execRows; i++ {
		if err := tbl.AppendRow(regions[i%len(regions)], float64(i%97), int64(i%13)); err != nil {
			panic(err)
		}
	}
	return tbl
}

func benchSpecs() []core.QuerySpec {
	return []core.QuerySpec{{
		GroupBy: []string{"region"},
		Aggs:    []core.AggColumn{{Column: "amount"}},
	}}
}

// Scenarios returns the serving benchmark suite. Each scenario owns its
// registry, so measurements are independent; ctx threads through to
// every registry call (the scenarios honor cancellation between
// iterations only as far as the registry itself does).
func Scenarios(ctx context.Context) []Scenario {
	const sql = "SELECT region, AVG(amount) FROM bench GROUP BY region"
	const execSQL = "SELECT region, AVG(amount), SUM(amount * qty), COUNT(*) FROM benchx WHERE amount > 12 GROUP BY region"
	newExecReg := func(b *testing.B) *serve.Registry {
		b.Helper()
		reg := serve.NewRegistry()
		if err := reg.RegisterTable(execTable("benchx")); err != nil {
			b.Fatal(err)
		}
		return reg
	}
	newReg := func(b *testing.B, build bool) *serve.Registry {
		b.Helper()
		reg := serve.NewRegistry()
		if err := reg.RegisterTable(benchTable("bench")); err != nil {
			b.Fatal(err)
		}
		if build {
			_, _, err := reg.Build(ctx, serve.BuildRequest{
				Table: "bench", Queries: benchSpecs(), Budget: 256, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		return reg
	}
	return []Scenario{
		{
			// a fresh sampler build per iteration: the per-iteration seed
			// changes the cache key, so every pass runs the sampler
			Name: "build",
			Run: func(b *testing.B) {
				reg := newReg(b, false)
				defer reg.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _, err := reg.Build(ctx, serve.BuildRequest{
						Table: "bench", Queries: benchSpecs(), Budget: 256, Seed: int64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "query_sample",
			Run: func(b *testing.B) {
				reg := newReg(b, true)
				defer reg.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := reg.Query(ctx, sql, serve.QueryOptions{Mode: serve.ModeSample}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "query_exact",
			Run: func(b *testing.B) {
				reg := newReg(b, false)
				defer reg.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := reg.Query(ctx, sql, serve.QueryOptions{Mode: serve.ModeExact}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "append",
			Run: func(b *testing.B) {
				reg := newReg(b, false)
				defer reg.Close()
				if err := reg.StreamTable("bench", ingest.Config{
					Queries: benchSpecs(), Budget: 256, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
				batch := [][]any{{"NA", 1.0}, {"EU", 2.0}, {"APAC", 3.0}, {"LATAM", 4.0}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := reg.Append("bench", batch); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// the row interpreter (the test oracle, not a serving path)
			// on the grouped-aggregate query: the reference the compiled
			// plans are measured against
			Name: "exec_interpreted",
			Run: func(b *testing.B) {
				tbl := execTable("benchx")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q, err := sqlparse.Parse(execSQL)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := exec.Run(tbl, q); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// the columnar executor with a warm plan cache: the steady
			// state of a repeated dashboard query
			Name: "exec_planned",
			Run: func(b *testing.B) {
				reg := newExecReg(b)
				defer reg.Close()
				if _, err := reg.Query(ctx, execSQL, serve.QueryOptions{Mode: serve.ModeExact}); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := reg.Query(ctx, execSQL, serve.QueryOptions{Mode: serve.ModeExact}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// a never-before-seen query per iteration (the LIMIT varies,
			// changing the normalized-SQL cache key): compile + execute,
			// the plan cache's worst case
			Name: "exec_plan_cold",
			Run: func(b *testing.B) {
				reg := newExecReg(b)
				defer reg.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sql := fmt.Sprintf("%s LIMIT %d", execSQL, 1_000_000+i)
					if _, err := reg.Query(ctx, sql, serve.QueryOptions{Mode: serve.ModeExact}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// a thundering herd of identical queries with no coalescing:
			// every request pays its own executor pass. One op = one herd
			// of herdSize concurrent HTTP queries.
			Name: "qos_baseline",
			Run: func(b *testing.B) {
				runHerd(ctx, b, 0)
			},
		},
		{
			// the same herd through the coalescing window: requests
			// arriving within the window share one executor pass, so the
			// herd costs ~one pass instead of herdSize
			Name: "qos_coalesced",
			Run: func(b *testing.B) {
				runHerd(ctx, b, 2*time.Millisecond)
			},
		},
		{
			// a herd of target_cv queries against a saturated admission
			// controller: every query degrades onto the resident sample
			// instead of queueing, measuring the shed path end to end
			Name: "qos_shed",
			Run: func(b *testing.B) {
				fe, err := qos.New(qos.Config{MaxInflight: 1, MaxQueue: -1, ShedSlots: herdSize})
				if err != nil {
					b.Fatal(err)
				}
				reg := serve.NewRegistry()
				defer reg.Close()
				if err := reg.RegisterTable(execTable("benchx")); err != nil {
					b.Fatal(err)
				}
				if _, _, err := reg.Build(ctx, serve.BuildRequest{
					Table: "benchx", Queries: benchSpecs(), Budget: 256, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
				ts := httptest.NewServer(serve.NewServer(reg, serve.WithQoS(fe)))
				defer ts.Close()
				// saturate the only slot so every herd query sheds
				release, ok := fe.Admission.TryAcquire()
				if !ok {
					b.Fatal("TryAcquire on idle controller")
				}
				defer release()
				body := `{"sql": "SELECT region, AVG(amount) FROM benchx GROUP BY region", "target_cv": 0.5}`
				client := herdClient()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fireHerd(b, client, ts.URL, body)
				}
			},
		},
		{
			// one /metrics scrape against a populated registry: the cost
			// an operator's Prometheus pays per scrape interval
			Name: "metrics_render",
			Run: func(b *testing.B) {
				reg := newReg(b, true)
				defer reg.Close()
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, apiv1.Path(apiv1.RouteMetrics), nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					reg.Obs().ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("scrape returned %d", rec.Code)
					}
				}
			},
		},
	}
}

// herdSize is the thundering-herd width of the qos_* scenarios: how
// many identical-class queries hit the front end concurrently per op.
const herdSize = 64

// herdClient returns an HTTP client with enough idle connections that
// herd iterations reuse sockets instead of measuring connection churn.
func herdClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = herdSize
	tr.MaxIdleConnsPerHost = herdSize
	return &http.Client{Transport: tr}
}

// fireHerd sends herdSize concurrent identical POST /v1/query requests
// and waits for all of them; any non-200 fails the benchmark.
func fireHerd(b *testing.B, client *http.Client, baseURL, body string) {
	b.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, herdSize)
	start := make(chan struct{})
	for i := 0; i < herdSize; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := client.Post(baseURL+apiv1.Path(apiv1.RouteQuery), "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("herd query returned %d", resp.StatusCode)
			}
		}()
	}
	close(start)
	wg.Wait()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
}

// runHerd measures thundering-herd latency through the QoS front end:
// one op is one herd of herdSize concurrent identical exact-mode
// queries over the 32k-row executor table. window 0 is the baseline
// (admission only); a positive window coalesces the herd into a
// handful of shared executor passes.
func runHerd(ctx context.Context, b *testing.B, window time.Duration) {
	b.Helper()
	// the queue holds the whole herd: the scenario measures pass
	// sharing vs per-request passes, not rejection timing (whether the
	// default queue overflows depends on goroutine scheduling speed)
	fe, err := qos.New(qos.Config{MaxInflight: 8, MaxQueue: herdSize, CoalesceWindow: window})
	if err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry()
	defer reg.Close()
	if err := reg.RegisterTable(execTable("benchx")); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(reg, serve.WithQoS(fe)))
	defer ts.Close()
	body := `{"sql": "SELECT region, AVG(amount), SUM(amount * qty), COUNT(*) FROM benchx WHERE amount > 12 GROUP BY region", "mode": "exact"}`
	client := herdClient()
	// warm the path (parse + plan caches, TCP connections) outside the
	// measured region
	fireHerd(b, client, ts.URL, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fireHerd(b, client, ts.URL, body)
	}
	_ = ctx
}

// Run measures every scenario in order and returns their results.
// Iteration counts follow the testing package's benchtime settings
// (cmd/cvbench forwards its -benchtime flag via testing.Init +
// flag.Set before calling this).
func Run(ctx context.Context) ([]Result, error) {
	scenarios := Scenarios(ctx)
	out := make([]Result, 0, len(scenarios))
	for _, sc := range scenarios {
		r := testing.Benchmark(sc.Run)
		if r.N == 0 {
			return nil, fmt.Errorf("benchserve: scenario %s did not run (benchmark failed)", sc.Name)
		}
		out = append(out, Result{
			Name:        sc.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out, nil
}
