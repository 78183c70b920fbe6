package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/samplers"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/table"
	"repro/internal/wal"
)

// traceSizes is how many ops of each class the traced run replays
// through every nesting level.
type traceSizes struct {
	narrow, wide, cold, exact, build, appends int
	loop                                      int // iterations of a nanosecond-scale probe loop
}

func (c config) traceSizes() traceSizes {
	if c.scale == "smoke" {
		return traceSizes{narrow: 20, wide: 2, cold: 8, exact: 4, build: 1, appends: 24, loop: 200}
	}
	return traceSizes{narrow: 400, wide: 12, cold: 300, exact: 24, build: 2, appends: 640, loop: 20000}
}

// traced replays a sample of every family's ops through the nesting
// levels, runs the layer probes that no request tree contains, records
// the per-layer metrics and writes the span file.
func (r *run) traced(ctx context.Context) error {
	tr := newTracer()
	r.logf("traced run (one goroutine; each op executed once per nesting level):")
	for _, family := range []func(context.Context, *tracer) error{r.traceQueries, r.traceBuilds, r.traceStream} {
		if err := family(ctx, tr); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	path := filepath.Join(r.cfg.outDir, r.cfg.workload+".trace.jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	r.logf("  %d spans written to %s", len(tr.spans), path)
	return nil
}

// replayClass runs n ops of a class twice: once through the outermost
// level only, untraced, and once through every level with spans. It
// returns both wall times; their difference is what tracing costs.
func (r *run) replayClass(tr *tracer, class string, root *node, n int, unit string) (untraced, traced time.Duration, err error) {
	start := time.Now()
	for op := range n {
		if root.prepare != nil {
			if err := root.prepare(op); err != nil {
				return 0, 0, err
			}
		}
		if err := root.call(op); err != nil {
			return 0, 0, fmt.Errorf("%s/%s op %d (untraced): %w", class, root.name, op, err)
		}
	}
	untraced = time.Since(start)
	start = time.Now()
	if err := tr.replay(class, root, n); err != nil {
		return 0, 0, err
	}
	traced = time.Since(start)
	r.lines = append(r.lines, root.describe(class, unit)...)
	r.set("obs.unattributed_share."+class, root.unattributedShare())
	return untraced, traced, nil
}

func overheadShare(untraced, traced time.Duration) float64 {
	return float64(traced-untraced) / float64(untraced)
}

// queryTree is the nesting of one query class: Client.Query ⊃
// Server.ServeHTTP ⊃ {admission, tenant bucket, Registry.Query ⊃
// {Parse, Compile (cold only), Find (sample modes), Plan.Execute}}.
// sqlFor yields the op's SQL text; for the cold class it yields a fresh
// literal on every call, so every level really misses the plan cache.
type queryTree struct {
	root        *node
	respBytes   []float64 // body length per op, from the handler level
	lastBody    []byte
	interpreted int // answers the row interpreter computed (Plan == nil)
	answers     int
}

func (r *run) newQueryTree(ctx context.Context, class, mode string, sqlFor func(op int) string) *queryTree {
	d := r.static
	qt := &queryTree{}
	var (
		sql     string
		req     *http.Request
		rec     *httptest.ResponseRecorder
		q       *sqlparse.Query
		p       *plan.Plan
		rows    []int32
		weights []float64
		opt     = serve.QueryOptions{Mode: serve.ModeExact}
	)
	if mode == apiv1.ModeSample {
		opt.Mode = serve.ModeSample
		rows, weights = r.resident.Sample.Rows, r.resident.Sample.Weights
	}
	text := func(op int) error { sql = sqlFor(op); return nil }
	parsed := func(op int) error {
		var err error
		q, err = sqlparse.Parse(sqlFor(op))
		if err == nil {
			q.From = r.tbl.Name
		}
		return err
	}

	leaves := []*node{{name: "sqlparse.parse", prepare: text, call: func(int) error {
		_, err := sqlparse.Parse(sql)
		return err
	}}}
	if class == classCold {
		leaves = append(leaves, &node{name: "plan.compile", prepare: parsed, call: func(int) error {
			_, err := plan.Compile(r.tbl, q)
			return err
		}})
	}
	if mode == apiv1.ModeSample {
		leaves = append(leaves, &node{name: "serve.find", prepare: parsed, call: func(int) error {
			if _, ok := d.reg.Find(staticTable, q.GroupBy); !ok {
				return fmt.Errorf("no covering sample")
			}
			return nil
		}})
	}
	leaves = append(leaves, &node{name: "plan.execute",
		prepare: func(op int) error {
			if err := parsed(op); err != nil {
				return err
			}
			var err error
			p, err = plan.Compile(r.tbl, q)
			return err
		},
		call: func(int) error {
			_, err := p.Execute(r.tbl, rows, weights)
			return err
		}})

	query := &node{name: "serve.query", prepare: text, children: leaves, call: func(int) error {
		ans, err := d.reg.Query(ctx, sql, opt)
		if err != nil {
			return err
		}
		qt.answers++
		if ans.Plan == nil {
			qt.interpreted++
		}
		return nil
	}}
	acquire := &node{name: "qos.acquire", call: func(int) error {
		release, err := d.fe.Admission.Acquire(ctx)
		if err != nil {
			return err
		}
		release()
		return nil
	}}
	tenant := &node{name: "qos.tenant_allow", call: func(int) error {
		if ok, _ := d.fe.Tenants.Allow(""); !ok {
			return fmt.Errorf("tenant bucket refused")
		}
		return nil
	}}
	handler := &node{name: "serve.http", children: []*node{acquire, tenant, query},
		prepare: func(op int) error {
			var err error
			req, err = jsonPost(ctx, apiv1.Path(apiv1.RouteQuery), apiv1.QueryRequest{SQL: sqlFor(op), Mode: mode})
			return err
		},
		call: func(int) error {
			var err error
			if rec, err = serveOK(d.srv, req); err != nil {
				return err
			}
			qt.lastBody = rec.Body.Bytes()
			qt.respBytes = append(qt.respBytes, float64(len(qt.lastBody)))
			return nil
		}}
	qt.root = &node{name: "client.query", prepare: text, children: []*node{handler}, call: func(int) error {
		resp, err := d.clients[0].Query(ctx, apiv1.QueryRequest{SQL: sql, Mode: mode})
		if err == nil && len(resp.Groups) == 0 {
			err = fmt.Errorf("empty answer")
		}
		return err
	}}
	return qt
}

// traceQueries traces the four query classes and runs the request-path
// probes.
func (r *run) traceQueries(ctx context.Context, tr *tracer) error {
	ts := r.cfg.traceSizes()
	d := r.static
	fromList := func(ops []op) func(int) string {
		return func(i int) string { return ops[i].SQL }
	}
	literal := 10_000_000 // far above the end-to-end cold phase's literals
	freshCold := func(int) string {
		literal++
		return coldText(staticTable, literal%months+1, literal)
	}

	var sampleU, sampleT time.Duration
	trees := map[string]*queryTree{}
	for _, c := range []struct {
		class, mode string
		n           int
		sqlFor      func(int) string
	}{
		{classNarrow, apiv1.ModeSample, ts.narrow, fromList(genOps(classNarrow, staticTable, ts.narrow, r.cfg.seed+7))},
		{classWide, apiv1.ModeSample, ts.wide, fromList(genOps(classWide, staticTable, ts.wide, r.cfg.seed+7))},
		{classCold, apiv1.ModeSample, ts.cold, freshCold},
		{classExact, apiv1.ModeExact, ts.exact, fromList(genOps(classExact, staticTable, ts.exact, r.cfg.seed+7))},
	} {
		qt := r.newQueryTree(ctx, c.class, c.mode, c.sqlFor)
		u, t, err := r.replayClass(tr, c.class, qt.root, c.n, "us")
		if err != nil {
			return err
		}
		trees[c.class] = qt
		root := qt.root
		r.set("client.query_us."+c.class, root.p50("us"))
		r.set("client.self_us."+c.class, root.selfP50("us"))
		r.set("serve.http_us."+c.class, root.find("serve.http").p50("us"))
		r.set("serve.http_self_us."+c.class, root.find("serve.http").selfP50("us"))
		r.set("serve.query_us."+c.class, root.find("serve.query").p50("us"))
		r.set("serve.query_self_us."+c.class, root.find("serve.query").selfP50("us"))
		if c.class == classExact {
			r.set("obs.trace_overhead_share."+wlDashExact, overheadShare(u, t))
		} else {
			sampleU, sampleT = sampleU+u, sampleT+t
		}
	}
	r.set("obs.trace_overhead_share."+wlDashSample, overheadShare(sampleU, sampleT))

	narrow, wide, cold, exact := trees[classNarrow], trees[classWide], trees[classCold], trees[classExact]
	r.set("sqlparse.parse_us.narrow", narrow.root.find("sqlparse.parse").p50("us"))
	r.set("sqlparse.parse_us.wide", wide.root.find("sqlparse.parse").p50("us"))
	r.set("plan.compile_us", cold.root.find("plan.compile").p50("us"))
	r.set("plan.execute_us.sample_narrow", narrow.root.find("plan.execute").p50("us"))
	r.set("plan.execute_us.sample_wide", wide.root.find("plan.execute").p50("us"))
	execMS := exact.root.find("plan.execute").p50("ms")
	r.set("plan.execute_exact_ms", execMS)
	r.set("plan.exact_rows_per_s", float64(r.tbl.NumRows())/(execMS/1000))
	r.set("api.response_bytes.narrow", median(narrow.respBytes))
	r.set("api.response_bytes.wide", median(wide.respBytes))
	answers, interpreted := 0, 0
	for _, qt := range trees {
		answers += qt.answers
		interpreted += qt.interpreted
	}
	r.set("serve.interpreted_share", float64(interpreted)/float64(answers))

	// codec probes on real bodies
	reqBody, err := json.Marshal(apiv1.QueryRequest{SQL: narrowTexts(staticTable)[0], Mode: apiv1.ModeSample})
	if err != nil {
		return err
	}
	r.set("api.request_decode_us", perCall(ts.loop/10, "us", func() {
		var req apiv1.QueryRequest
		dec := json.NewDecoder(bytes.NewReader(reqBody))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	}))
	for class, qt := range map[string]*queryTree{classNarrow: narrow, classWide: wide} {
		n := max(ts.loop/100, 3)
		if class == classWide {
			n = 5
		}
		r.set("api.response_decode_us."+class, perCall(n, "us", func() {
			var resp apiv1.QueryResponse
			err = json.Unmarshal(qt.lastBody, &resp)
		}))
	}
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}

	// nanosecond-scale calls: timed in a loop, not per call
	r.set("qos.acquire_ns", perCall(ts.loop, "ns", func() {
		if release, err := d.fe.Admission.Acquire(ctx); err == nil {
			release()
		}
	}))
	r.set("qos.tenant_allow_ns", perCall(ts.loop, "ns", func() { d.fe.Tenants.Allow("") }))
	groupBy := []string{"country", "parameter"}
	r.set("serve.find_ns", perCall(ts.loop, "ns", func() { d.reg.Find(staticTable, groupBy) }))

	// allocations of one exact execution, with nothing else running
	q, err := sqlparse.Parse(narrowTexts(staticTable)[0])
	if err != nil {
		return err
	}
	p, err := plan.Compile(r.tbl, q)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const execs = 3
	for range execs {
		if _, err := p.Execute(r.tbl, nil, nil); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	r.set("plan.execute_allocs_per_op", float64(after.Mallocs-before.Mallocs)/execs)

	// operator surfaces
	r.set("serve.metrics_render_us", perCall(max(ts.loop/200, 3), "us", func() {
		d.reg.Obs().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, apiv1.Path(apiv1.RouteMetrics), nil).WithContext(ctx))
	}))
	r.set("serve.resident_sample_bytes", float64(d.reg.ResidentSampleBytes()))

	// cross-check only: how much of the handler's own wall time does the
	// server's phase trace (debug=true) cover?
	var covered, total float64
	for class, sql := range map[string]string{
		classNarrow: narrowTexts(staticTable)[0], classWide: wideTexts(staticTable)[0], classCold: freshCold(0),
	} {
		resp, err := d.clients[0].Query(ctx, apiv1.QueryRequest{SQL: sql, Mode: apiv1.ModeSample, Debug: true})
		if err != nil || resp.Trace == nil {
			return fmt.Errorf("debug trace of a %s query: %v", class, err)
		}
		for _, s := range resp.Trace.Spans {
			covered += s.DurationMS
		}
		total += resp.Trace.DurationMS
	}
	r.set("serve.debug_trace_coverage", covered/total)
	r.logf("  server-side phase traces (debug=true) cover %.1f%% of their requests' handler time", 100*covered/total)
	return nil
}

// jsonPost builds the request the typed client would send, for calling
// the handler directly.
func jsonPost(ctx context.Context, path string, body any) (*http.Request, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// serveOK calls the handler into a recorder and requires a 200.
func serveOK(srv *serve.Server, req *http.Request) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec, nil
}

// perCall times n calls of f in one loop and returns the mean per call.
// For calls too short to time one by one.
func perCall(n int, unit string, f func()) float64 {
	start := time.Now()
	for range n {
		f()
	}
	return inUnit(time.Since(start), unit) / float64(n)
}

// traceBuilds traces budgeted builds — Client.BuildSample ⊃
// Registry.Build ⊃ CVOPT.Build ⊃ {NewPlan ⊃ BuildGroupIndex, Allocate,
// RowsByStratum + DrawStratified} — every level with a fresh seed, so
// none hits the sample cache; then probes the autoscale search.
func (r *run) traceBuilds(ctx context.Context, tr *tracer) error {
	ts := r.cfg.traceSizes()
	d := r.builds
	specs := coreSpecs(paperWorkload())
	budget := r.sz.residentBudget
	seed := r.buildSeed(1 << 20) // beyond every end-to-end build seed
	fresh := func() int64 { seed++; return seed }
	var (
		p     *core.Plan
		alloc []int
	)
	havePlan := func(int) error {
		var err error
		if p == nil {
			if p, err = core.NewPlan(r.tbl, specs); err != nil {
				return err
			}
			alloc, err = p.Allocate(budget, core.Options{})
		}
		return err
	}
	groupIndex := &node{name: "table.group_index", prepare: havePlan, call: func(int) error {
		_, err := table.BuildGroupIndex(r.tbl, p.StratAttrs)
		return err
	}}
	newPlan := &node{name: "core.new_plan", children: []*node{groupIndex}, call: func(int) error {
		_, err := core.NewPlan(r.tbl, specs)
		return err
	}}
	allocate := &node{name: "core.allocate", prepare: havePlan, call: func(int) error {
		_, err := p.Allocate(budget, core.Options{})
		return err
	}}
	draw := &node{name: "sample.draw", prepare: havePlan, call: func(int) error {
		_, err := sample.DrawStratified(p.Index.RowsByStratum(), alloc, p.StratAttrs, rand.New(rand.NewSource(fresh())))
		return err
	}}
	cvopt := &node{name: "samplers.cvopt_build", children: []*node{newPlan, allocate, draw}, call: func(int) error {
		_, err := (&samplers.CVOPT{}).Build(r.tbl, specs, budget, rand.New(rand.NewSource(fresh())))
		return err
	}}
	regBuild := &node{name: "serve.build", children: []*node{cvopt}, call: func(int) error {
		_, cached, err := d.reg.Build(ctx, serve.BuildRequest{Table: staticTable, Queries: specs, Budget: budget, Seed: fresh()})
		if err == nil && cached {
			err = fmt.Errorf("build hit the sample cache")
		}
		return err
	}}
	root := &node{name: "client.build", children: []*node{regBuild}, call: func(int) error {
		s, err := d.clients[0].BuildSample(ctx, apiv1.BuildRequest{Table: staticTable, Queries: paperWorkload(), Budget: budget, Seed: fresh()})
		if err == nil && s.Cached {
			err = fmt.Errorf("build hit the sample cache")
		}
		return err
	}}
	u, t, err := r.replayClass(tr, "build", root, ts.build, "ms")
	if err != nil {
		return err
	}
	r.set("obs.trace_overhead_share."+wlPaperBuild, overheadShare(u, t))
	r.set("client.build_self_ms", root.selfP50("ms"))
	r.set("serve.build_ms", regBuild.p50("ms"))
	r.set("serve.build_self_ms", regBuild.selfP50("ms"))
	r.set("samplers.cvopt_build_ms", cvopt.p50("ms"))
	r.set("core.new_plan_ms", newPlan.p50("ms"))
	r.set("core.stats_pass_self_ms", newPlan.selfP50("ms"))
	r.set("table.group_index_ms", groupIndex.p50("ms"))
	r.set("core.allocate_ms", allocate.p50("ms"))
	r.set("sample.draw_ms", draw.p50("ms"))

	// the autoscale search on the same plan: one search, one evaluation
	var res *core.AutoscaleResult
	_, search, err := tr.time("core.autoscale", "autoscale", 0, 0, func() error {
		var err error
		res, err = p.Autoscale(core.AutoscaleParams{TargetCV: 0.2})
		return err
	})
	if err != nil {
		return err
	}
	_, predict, _ := tr.time("core.predicted_cvs", "autoscale", 0, 0, func() error {
		p.PredictedCVs(alloc)
		return nil
	})
	r.set("core.autoscale_ms", inUnit(search, "ms"))
	r.set("core.autoscale_evals", float64(res.Evaluations))
	r.set("core.predicted_cvs_ms", inUnit(predict, "ms"))
	r.logf("  autoscale to CV 0.2: %d evaluations in %.0f ms -> budget %d; one PredictedCVs pass %.1f ms", res.Evaluations, inUnit(search, "ms"), res.Budget, inUnit(predict, "ms"))
	return nil
}

// traceStream traces appends — Client.AppendRows ⊃ Server.ServeHTTP ⊃
// Registry.Append ⊃ {Stream.Append (no WAL), EncodeRows, Log.Append +
// Commit} — with a Registry.Refresh and a Stream.Refresh at the
// workload's publication points, then probes the rest of the write and
// recovery path.
func (r *run) traceStream(ctx context.Context, tr *tracer) error {
	ts := r.cfg.traceSizes()
	lt := r.live
	sch := lt.source.Schema()
	cursor := 0
	nextBatch := func() [][]any {
		if cursor+r.sz.batchRows > lt.source.NumRows() {
			cursor = 0
		}
		rows := batch(lt.source, cursor, r.sz.batchRows)
		cursor += r.sz.batchRows
		return rows
	}
	coerce := func(rows [][]any) ([][]any, error) {
		out := make([][]any, len(rows))
		for i, row := range rows {
			c, err := ingest.CoerceRow(sch, row)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	}

	// stand-alone layers under Registry.Append: a stream with no WAL and
	// a log with no stream
	seed, err := liveSeed(lt.seeded, r.cfg.seed)
	if err != nil {
		return err
	}
	cfg := ingest.Config{Queries: coreSpecs(streamWorkload()), Budget: r.sz.streamBudget, Seed: r.cfg.seed + 1}
	alone, err := ingest.New(seed, cfg, func(*ingest.Publication) {})
	if err != nil {
		return err
	}
	defer alone.Close()
	logs := map[wal.SyncPolicy]*wal.Log{}
	for _, policy := range []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval, wal.SyncAlways} {
		l, err := wal.Open(filepath.Join(r.tmp, "wal-"+policy.String()), wal.Options{Policy: policy})
		if err != nil {
			return err
		}
		defer l.Close()
		logs[policy] = l
	}

	var (
		rows, coerced      [][]any
		payload            []byte
		req                *http.Request
		regRefresh, refrsh []time.Duration
		walBytes           = logs[wal.SyncInterval].SizeBytes()
	)
	take := func(int) error { rows = nextBatch(); return nil }
	takeCoerced := func(int) (err error) { coerced, err = coerce(nextBatch()); return err }
	atPublication := func(op int) bool { return (op+1)%r.sz.refreshEvery == 0 }

	streamAppend := &node{name: "ingest.append", prepare: take, call: func(op int) error {
		_, err := alone.Append(rows)
		return err
	}}
	encode := &node{name: "wal.encode_rows", prepare: takeCoerced, call: func(int) error {
		_, err := wal.EncodeRows(coerced)
		return err
	}}
	logAppend := &node{name: "wal.append",
		prepare: func(op int) (err error) {
			if err = takeCoerced(op); err == nil {
				payload, err = wal.EncodeRows(coerced)
			}
			return err
		},
		call: func(int) error {
			if _, err := logs[wal.SyncInterval].Append(wal.TypeRows, payload); err != nil {
				return err
			}
			return logs[wal.SyncInterval].Commit()
		}}
	regAppend := &node{name: "serve.append", children: []*node{streamAppend, encode, logAppend},
		prepare: func(op int) error {
			// publication points of the previous op, outside every span
			if op > 0 && atPublication(op-1) {
				start := time.Now()
				if _, err := lt.d.reg.Refresh(liveName); err != nil {
					return err
				}
				regRefresh = append(regRefresh, time.Since(start))
				start = time.Now()
				if _, err := alone.Refresh(); err != nil {
					return err
				}
				refrsh = append(refrsh, time.Since(start))
			}
			return take(op)
		},
		call: func(int) error {
			_, err := lt.d.reg.Append(liveName, rows)
			return err
		}}
	handler := &node{name: "serve.http", children: []*node{regAppend},
		prepare: func(op int) error {
			var err error
			path := strings.Replace(apiv1.Path(apiv1.RouteAppendRows), "{name}", liveName, 1)
			req, err = jsonPost(ctx, path, apiv1.AppendRequest{Rows: nextBatch()})
			return err
		},
		call: func(int) error {
			_, err := serveOK(lt.d.srv, req)
			return err
		}}
	root := &node{name: "client.append", prepare: take, children: []*node{handler}, call: func(int) error {
		_, err := lt.d.clients[0].AppendRows(ctx, liveName, rows)
		return err
	}}
	n := max(ts.appends, r.sz.refreshEvery+1) // at least one publication point
	u, t, err := r.replayClass(tr, "append", root, n, "us")
	if err != nil {
		return err
	}
	r.set("obs.trace_overhead_share."+wlStreamIngest, overheadShare(u, t))
	r.set("client.append_us", root.p50("us"))
	r.set("client.self_us.append", root.selfP50("us"))
	r.set("serve.http_us.append", handler.p50("us"))
	r.set("serve.http_self_us.append", handler.selfP50("us"))
	r.set("serve.append_us", regAppend.p50("us"))
	r.set("serve.append_self_us", regAppend.selfP50("us"))
	r.set("serve.append_stall_max_ms", summarize(regAppend.dur, "ms").max)
	r.set("ingest.append_us", streamAppend.p50("us"))
	r.set("wal.encode_rows_us", encode.p50("us"))
	r.set("wal.append_us.interval", logAppend.p50("us"))
	r.set("wal.bytes_per_row", float64(logs[wal.SyncInterval].SizeBytes()-walBytes)/float64(n*r.sz.batchRows))
	r.set("serve.refresh_ms", summarize(regRefresh, "ms").p50)
	r.set("ingest.refresh_ms", summarize(refrsh, "ms").p50)
	r.set("serve.recover_ms", r.metrics["recover_s"]*1000) // Registry.Recover is what recover_s times

	// the other two fsync policies, and the codec's other direction
	if payload, err = wal.EncodeRows(coerced); err != nil {
		return err
	}
	for _, policy := range []wal.SyncPolicy{wal.SyncNever, wal.SyncAlways} {
		var ds []time.Duration
		for range max(ts.appends/8, 3) {
			start := time.Now()
			if _, err := logs[policy].Append(wal.TypeRows, payload); err != nil {
				return err
			}
			if err := logs[policy].Commit(); err != nil {
				return err
			}
			ds = append(ds, time.Since(start))
		}
		r.set("wal.append_us."+policy.String(), summarize(ds, "us").p50)
	}
	r.set("wal.decode_rows_us", perCall(max(ts.loop/100, 3), "us", func() { _, err = wal.DecodeRows(payload) }))
	if err != nil {
		return err
	}
	r.set("ingest.coerce_row_ns", perCall(max(ts.loop/100, 3), "ns", func() { _, err = coerce(rows) })/float64(len(rows)))
	if err != nil {
		return err
	}

	// the sampler alone: observe every source row, finalize once
	sampler, err := core.NewStreamSampler(cfg.Queries, ingest.DefaultCapacity, rand.New(rand.NewSource(r.cfg.seed)))
	if err != nil {
		return err
	}
	start := time.Now()
	if err := core.StreamTable(sampler, lt.source); err != nil {
		return err
	}
	r.set("core.stream_observe_ns_per_row", inUnit(time.Since(start), "ns")/float64(lt.source.NumRows()))
	start = time.Now()
	if _, err := sampler.Finalize(r.sz.streamBudget, core.Options{}); err != nil {
		return err
	}
	r.set("core.stream_finalize_ms", inUnit(time.Since(start), "ms"))

	// snapshot and checkpoint of the live table as it stands now
	live, ok := lt.d.reg.Table(liveName)
	if !ok {
		return fmt.Errorf("live table vanished")
	}
	r.set("table.snapshot_us", perCall(max(ts.loop/100, 3), "us", func() { live.Snapshot() }))
	ckpt := filepath.Join(r.tmp, "probe.checkpoint")
	start = time.Now()
	if err := wal.WriteCheckpoint(ckpt, &wal.Checkpoint{Table: liveName, Snapshot: live}, true); err != nil {
		return err
	}
	r.set("wal.write_checkpoint_ms", inUnit(time.Since(start), "ms"))
	start = time.Now()
	if _, err := wal.ReadCheckpoint(ckpt); err != nil {
		return err
	}
	r.set("wal.read_checkpoint_ms", inUnit(time.Since(start), "ms"))
	r.logf("  checkpoint of the %d-row live table: write %.0f ms, read %.0f ms", live.NumRows(), r.metrics["wal.write_checkpoint_ms"], r.metrics["wal.read_checkpoint_ms"])

	// replay of the crash image's WAL tail, decoding every batch
	tdir := filepath.Join(r.tmp, "image", "tables", liveName)
	cp, err := wal.ReadCheckpoint(filepath.Join(tdir, "checkpoint"))
	if err != nil {
		return err
	}
	l, err := wal.Open(filepath.Join(tdir, "wal"), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	defer l.Close()
	start = time.Now()
	err = l.Replay(ctx, cp.Seq, func(rec wal.Record) error {
		if rec.Type == wal.TypeRows {
			_, err := wal.DecodeRows(rec.Payload)
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("wal.replay_ms", inUnit(time.Since(start), "ms"))
	return nil
}
