package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// dashSample is the dashboard-off-a-sample family: three back-to-back
// phases against the resident 1 % sample, two closed-loop clients.
func (r *run) dashSample(ctx context.Context) error {
	clients := r.static.clients
	sampleOps := func(ops []op, refs []answer) *phase {
		return closedLoop(ctx, clients, len(ops), func(ctx context.Context, c *client.Client, i int) (time.Duration, error) {
			return queryOp(ctx, c, ops[i].SQL, apiv1.ModeSample, refs[ops[i].Ref])
		})
	}

	compiles := r.static.reg.PlanCompiles()
	narrow := sampleOps(genOps(classNarrow, staticTable, r.n(r.sz.narrow, wlDashSample), r.cfg.seed), r.narrowRefs)
	r.tally("dash_sample/narrow", narrow)
	t := r.setTiming("sample_narrow_p50_ms", narrow.measured(), "ms")
	r.set("client.sample_narrow_tail_ms", t.tailOrMax())
	r.set("sample_qps", narrow.perSecond())
	r.logf("%-28s %.1f ops/s  (%d clients, n=%d)", "sample_qps", narrow.perSecond(), len(clients), len(narrow.measured()))
	r.set("serve.plan_compiles", float64(r.static.reg.PlanCompiles()-compiles))

	wide := sampleOps(genOps(classWide, staticTable, r.n(r.sz.wide, wlDashSample), r.cfg.seed), r.wideRefs)
	r.tally("dash_sample/wide", wide)
	r.setTiming("sample_wide_p50_ms", wide.measured(), "ms")

	// a cold text's answer is its month's narrow-template-0 answer
	evictions := r.static.reg.PlanEvictions()
	cold := sampleOps(genOps(classCold, staticTable, r.n(r.sz.cold, wlDashSample), r.cfg.seed), r.narrowRefs[:months])
	r.tally("dash_sample/cold", cold)
	r.setTiming("sample_cold_p50_ms", cold.measured(), "ms")
	r.set("serve.plan_evictions", float64(r.static.reg.PlanEvictions()-evictions))
	return nil
}

// dashExact is the dashboard-off-the-full-table family: the same tiles
// in exact mode, first from one client (a core stays idle), then from
// two (both busy).
func (r *run) dashExact(ctx context.Context) error {
	exactOps := func(clients []*client.Client, n int, seed int64) *phase {
		ops := genOps(classExact, staticTable, n, seed)
		return closedLoop(ctx, clients, n, func(ctx context.Context, c *client.Client, i int) (time.Duration, error) {
			return queryOp(ctx, c, ops[i].SQL, apiv1.ModeExact, r.exactRefs[ops[i].Ref])
		})
	}
	solo := exactOps(r.static.clients[:1], r.n(r.sz.solo, wlDashExact), r.cfg.seed)
	r.tally("dash_exact/solo", solo)
	t := r.setTiming("exact_p50_ms", solo.measured(), "ms")
	r.set("client.exact_tail_ms", t.tailOrMax())

	duo := exactOps(r.static.clients, r.n(r.sz.duo, wlDashExact), r.cfg.seed+1)
	r.tally("dash_exact/duo", duo)
	r.set("exact_qps", duo.perSecond())
	r.logf("%-28s %.2f ops/s  (%d clients, n=%d, %s)", "exact_qps", duo.perSecond(), len(r.static.clients), len(duo.measured()), summarize(duo.measured(), "ms"))
	return nil
}

// paperBuild is the paper's own pipeline through the API: budgeted
// builds, then autoscaled (target_cv) builds, each a fresh cache key;
// one client. Every built sample is fetched in-process afterwards
// (untimed) and scored against exact answers.
func (r *run) paperBuild(ctx context.Context) error {
	d := r.builds
	c := d.clients[0]
	nBudget := r.n(r.sz.budgetBuilds, wlPaperBuild)
	nAuto := r.n(r.sz.autoscaleBuilds, wlPaperBuild)

	var (
		budgetLat, autoLat []time.Duration
		relErrP95          []float64
	)
	for i := range nBudget {
		req := apiv1.BuildRequest{Table: staticTable, Queries: paperWorkload(), Budget: r.sz.residentBudget, Seed: r.buildSeed(i)}
		start := time.Now()
		s, err := c.BuildSample(ctx, req)
		budgetLat = append(budgetLat, time.Since(start))
		r.check(err == nil, "paper_build: budget build %d: %v", i, err)
		if err != nil {
			continue
		}
		e := entryByKey(d.reg, s.Key)
		ok := e != nil && !s.Cached && e.Sample.Len() == req.Budget && s.Rows == req.Budget
		r.check(ok, "paper_build: budget build %d drew %d rows for budget %d (cached=%v)", i, s.Rows, req.Budget, s.Cached)
		if !ok {
			continue
		}
		errs := r.score.relErrors(e)
		p95, err := percentile(errs, 0.95)
		if err != nil {
			return err
		}
		relErrP95 = append(relErrP95, p95)
		if i == 0 {
			r.checkGuarantee(e, req)
		}
	}
	for j := range nAuto {
		target := 0.200 + 0.005*float64(j)
		req := apiv1.BuildRequest{Table: staticTable, Queries: paperWorkload(), TargetCV: target, Seed: r.buildSeed(j)}
		start := time.Now()
		s, err := c.BuildSample(ctx, req)
		autoLat = append(autoLat, time.Since(start))
		r.check(err == nil, "paper_build: target_cv %.3f build: %v", target, err)
		if err != nil {
			continue
		}
		// the guarantee as stated on the wire: a met target really is met
		honest := s.TargetMet != nil && s.Rows == s.ChosenBudget &&
			(!*s.TargetMet || (s.AchievedCV != nil && *s.AchievedCV <= target))
		r.check(honest, "paper_build: target_cv %.3f build reports target_met with achieved_cv above target, or rows != chosen budget", target)
		r.logf("  target_cv %.3f -> budget %d rows", target, s.ChosenBudget)
	}

	r.setTiming("build_p50_ms", budgetLat, "ms")
	r.setTiming("autoscale_p50_ms", autoLat, "ms")
	if len(relErrP95) > 0 {
		var sum float64
		for _, v := range relErrP95 {
			sum += v
		}
		r.set("rel_err_p95", sum/float64(len(relErrP95)))
		r.logf("%-28s %.4f  (mean over %d builds of the per-group p95; %d groups scored)", "rel_err_p95", r.metrics["rel_err_p95"], len(relErrP95), r.score.groups())
	}
	return nil
}

// buildSeed is the explicit sampling seed of the i-th build: never 0
// (0 means "derive from the key") and distinct per run seed.
func (r *run) buildSeed(i int) int64 { return r.cfg.seed*1000 + int64(i) + 1 }

func entryByKey(reg *serve.Registry, key string) *serve.Entry {
	for _, e := range reg.Entries() {
		if e.Key == key {
			return e
		}
	}
	return nil
}

// checkGuarantee verifies, on one budgeted build, what the paper
// promises: the allocation spends the budget exactly, the same seed
// draws the same rows, and the a-priori error bound holds — via
// Chebyshev, at most 1/9 of the estimates may miss their exact value by
// more than 3 × their predicted CV.
func (r *run) checkGuarantee(e *serve.Entry, req apiv1.BuildRequest) {
	p, err := core.NewPlan(r.tbl, coreSpecs(req.Queries))
	if err != nil {
		r.check(false, "paper_build: core.NewPlan: %v", err)
		return
	}
	ss, alloc, err := p.Sample(req.Budget, core.Options{}, rand.New(rand.NewSource(req.Seed)))
	if err != nil {
		r.check(false, "paper_build: Plan.Sample: %v", err)
		return
	}
	r.check(core.SumInts(alloc) == req.Budget, "paper_build: allocation sums to %d, budget %d", core.SumInts(alloc), req.Budget)
	rows, _ := core.RowWeights(ss)
	r.check(slices.Equal(rows, e.Sample.Rows), "paper_build: the same seed drew a different row list")

	predicted := make(map[string]float64)
	for _, cv := range p.PredictedCVs(alloc) {
		predicted[fmt.Sprintf("%d|%s|%s", cv.Query, cv.Column, cv.Group)] = cv.CV
	}
	misses, total := r.score.chebyshevMisses(e, predicted)
	share := float64(misses) / float64(max(total, 1))
	r.check(total > 0 && share <= 1.0/9, "paper_build: %d of %d estimates miss by more than 3 x predicted CV (share %.3f > 1/9)", misses, total, share)
	r.set("core.chebyshev_miss_share", share)
	r.logf("  guarantee: allocation = budget, same seed = same rows, %d of %d estimates beyond 3 x predicted CV (%.4f <= 1/9), %d strata", misses, total, share, p.NumStrata())
	r.set("core.strata", float64(p.NumStrata()))
}

// scorer holds the three paper-style queries the built samples are
// scored on, compiled once, with their exact answers.
type scorer struct {
	tbl     *table.Table
	queries []scoreQuery
}

type scoreQuery struct {
	spec   int    // index into paperWorkload()
	column string // the aggregated column
	plan   *plan.Plan
	exact  map[string]float64 // group key ("a|b|…") → exact value
}

func newScorer(tbl *table.Table) (*scorer, error) {
	s := &scorer{tbl: tbl}
	for _, sq := range []struct {
		spec   int
		column string
	}{{0, "value"}, {1, "value"}, {1, "latitude"}} {
		groupBy := strings.Join(paperWorkload()[sq.spec].GroupBy, ", ")
		q, err := sqlparse.Parse(fmt.Sprintf("SELECT %s, AVG(%s) FROM %s GROUP BY %s", groupBy, sq.column, tbl.Name, groupBy))
		if err != nil {
			return nil, err
		}
		p, err := plan.Compile(tbl, q)
		if err != nil {
			return nil, err
		}
		// the compiled plan is differential-tested against the row
		// interpreter; it scores here because three more interpreter
		// scans of 2 M rows would add a second to every run's set-up
		res, err := p.Execute(tbl, nil, nil)
		if err != nil {
			return nil, err
		}
		s.queries = append(s.queries, scoreQuery{sq.spec, sq.column, p, valuesByGroup(res)})
	}
	return s, nil
}

func valuesByGroup(res *exec.Result) map[string]float64 {
	out := make(map[string]float64, len(res.Rows))
	for _, row := range res.Rows {
		out[strings.Join(row.Key, "|")] = row.Aggs[0]
	}
	return out
}

func (s *scorer) groups() int {
	n := 0
	for _, q := range s.queries {
		n += len(q.exact)
	}
	return n
}

// estimates answers the scoring queries from a sample.
func (s *scorer) estimates(e *serve.Entry) []map[string]float64 {
	out := make([]map[string]float64, len(s.queries))
	for i, q := range s.queries {
		res, err := q.plan.Execute(s.tbl, e.Sample.Rows, e.Sample.Weights)
		if err != nil {
			panic("bench: scoring query no longer binds: " + err.Error())
		}
		out[i] = valuesByGroup(res)
	}
	return out
}

// relErrors returns the per-group relative error of every scored
// estimate; a group the sample misses entirely counts as error 1.
func (s *scorer) relErrors(e *serve.Entry) []float64 {
	var out []float64
	for i, est := range s.estimates(e) {
		for g, want := range s.queries[i].exact {
			out = append(out, relErr(est, g, want))
		}
	}
	return out
}

func relErr(est map[string]float64, group string, want float64) float64 {
	got, ok := est[group]
	switch {
	case !ok:
		return 1
	case want == 0:
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// chebyshevMisses counts scored estimates whose realized relative error
// exceeds three times their predicted CV. Estimates with an infinite
// predicted CV promise nothing and are skipped.
func (s *scorer) chebyshevMisses(e *serve.Entry, predicted map[string]float64) (misses, total int) {
	for i, est := range s.estimates(e) {
		q := s.queries[i]
		for g, want := range q.exact {
			cv, ok := predicted[fmt.Sprintf("%d|%s|%s", q.spec, q.column, g)]
			if !ok || math.IsInf(cv, 1) {
				continue
			}
			total++
			// 1e-9: a fully sampled group (CV 0) is exact up to rounding
			if relErr(est, g, want) > 3*cv+1e-9 {
				misses++
			}
		}
	}
	return misses, total
}
