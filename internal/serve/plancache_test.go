package serve_test

// Plan-cache behavior under concurrency: one compilation per key no
// matter how many queries race (singleflight), LRU eviction bounded by
// WithMaxPlans, eviction never corrupting an in-flight execution
// (plans are immutable; the churn test verifies results while evicting
// under -race), every serving path answering through a plan that is
// bit-equal to the interpreter oracle (internal/exec, called from the
// tests only), schema drift recompiling once, compile errors reaching
// every racer, and the explain:true wire surface.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	apiv1 "repro/internal/api/v1"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

const planSQL = "SELECT region, AVG(amount), COUNT(*) FROM sales WHERE amount > 50 GROUP BY region"

func TestPlanCacheSingleflight(t *testing.T) {
	reg := serve.NewRegistry(serve.WithShards(1))
	if err := reg.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	const workers = 32
	var wg sync.WaitGroup
	answers := make([]*serve.QueryAnswer, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			answers[i], errs[i] = reg.Query(context.Background(), planSQL, serve.QueryOptions{Mode: serve.ModeExact})
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if answers[i].Plan == nil {
			t.Fatalf("worker %d: expected a compiled plan, got interpreter fallback", i)
		}
	}
	if got := reg.PlanCompiles(); got != 1 {
		t.Fatalf("%d racing queries compiled %d plans, want exactly 1 (singleflight)", workers, got)
	}
	if got := reg.PlanCount(); got != 1 {
		t.Fatalf("PlanCount() = %d, want 1", got)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	reg := serve.NewRegistry(serve.WithShards(1), serve.WithMaxPlans(1))
	if err := reg.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	sqlA := "SELECT region, AVG(amount) FROM sales GROUP BY region"
	sqlB := "SELECT region, SUM(amount) FROM sales GROUP BY region"
	for _, sql := range []string{sqlA, sqlB, sqlA} {
		if _, err := reg.Query(context.Background(), sql, serve.QueryOptions{Mode: serve.ModeExact}); err != nil {
			t.Fatal(err)
		}
	}
	// cap 1: A compiles, B compiles and evicts A, A compiles again and
	// evicts B
	if got := reg.PlanCompiles(); got != 3 {
		t.Fatalf("PlanCompiles() = %d, want 3 (cap-1 cache thrashing)", got)
	}
	if got := reg.PlanEvictions(); got != 2 {
		t.Fatalf("PlanEvictions() = %d, want 2", got)
	}
	if got := reg.PlanCount(); got != 1 {
		t.Fatalf("PlanCount() = %d, want 1 (cap)", got)
	}
}

// TestPlanCacheEvictionNeverTears churns a cap-2 cache with eight
// distinct queries from many goroutines, checking every answer against
// the interpreter's. Plans are immutable — eviction drops the cache's
// reference, never the executing goroutine's — so results must stay
// exact while the cache thrashes. Run under -race in CI.
func TestPlanCacheEvictionNeverTears(t *testing.T) {
	tbl := salesTable(t)
	reg := serve.NewRegistry(serve.WithShards(1), serve.WithMaxPlans(2))
	if err := reg.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	queries := make([]string, 8)
	wants := make([]*exec.Result, 8)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"SELECT region, SUM(amount), COUNT(*) FROM sales WHERE amount > %d GROUP BY region", i*10)
		q, err := sqlparse.Parse(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Run(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (w + i) % len(queries)
				ans, err := reg.Query(context.Background(), queries[qi], serve.QueryOptions{Mode: serve.ModeExact})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				want := wants[qi]
				if len(ans.Result.Rows) != len(want.Rows) {
					t.Errorf("worker %d: %d rows, want %d", w, len(ans.Result.Rows), len(want.Rows))
					return
				}
				for r := range want.Rows {
					for a := range want.Rows[r].Aggs {
						if math.Float64bits(ans.Result.Rows[r].Aggs[a]) != math.Float64bits(want.Rows[r].Aggs[a]) {
							t.Errorf("worker %d: row %d agg %d = %v, want %v",
								w, r, a, ans.Result.Rows[r].Aggs[a], want.Rows[r].Aggs[a])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := reg.PlanCount(); got > 2 {
		t.Fatalf("PlanCount() = %d, want <= 2 (cap)", got)
	}
	if reg.PlanEvictions() == 0 {
		t.Fatal("churning 8 queries through a cap-2 cache should evict")
	}
}

// oracle answers sql with the row interpreter: exactly over tbl when e
// is nil, over e's weighted sample otherwise.
func oracle(t *testing.T, tbl *table.Table, sql string, e *serve.Entry) *exec.Result {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var want *exec.Result
	if e == nil {
		want, err = exec.Run(tbl, q)
	} else {
		want, err = exec.RunWeighted(tbl, q, e.Sample.Rows, e.Sample.Weights)
	}
	if err != nil {
		t.Fatalf("interpreter on %q: %v", sql, err)
	}
	return want
}

// TestEveryPathPlansAndMatchesOracle: there is one executor. The two
// IF shapes that used to fall back to the interpreter (branches of
// different kinds, string branches) and an ordinary query all answer
// through a compiled plan, bit-equal to the interpreter, on every
// serving path.
func TestEveryPathPlansAndMatchesOracle(t *testing.T) {
	queries := []struct {
		sql string
		// targetable: passes the target-CV contract (GROUP BY, no WHERE),
		// which the degraded path enforces like the full one
		targetable bool
	}{
		{"SELECT COUNT_IF(IF(amount > 50, amount, region) > 0) FROM sales", false},
		{planSQL, false},
		{"SELECT region, AVG(IF(amount > 100, amount, product)), COUNT_IF(IF(amount > 90, product, region) != 'EU') FROM sales GROUP BY region", true},
	}

	static := newSalesRegistry(t)
	defer static.Close()
	if _, _, err := static.Build(context.Background(), buildReq(400)); err != nil {
		t.Fatal(err)
	}
	staticTbl, _ := static.Table("sales")

	// a live table one refresh past registration: answers come off the
	// generation-2 snapshot
	stream := newStreamingRegistry(t, persistStreamCfg(300))
	if _, err := stream.Append("sales", streamRows(3740, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Refresh("sales"); err != nil {
		t.Fatal(err)
	}
	streamTbl, _ := stream.Table("sales")

	paths := []struct {
		name       string
		reg        *serve.Registry
		tbl        *table.Table
		opt        serve.QueryOptions
		targetOnly bool
		check      func(*serve.QueryAnswer) bool
	}{
		{"exact", static, staticTbl, serve.QueryOptions{Mode: serve.ModeExact}, false,
			func(a *serve.QueryAnswer) bool { return a.Entry == nil }},
		{"sample", static, staticTbl, serve.QueryOptions{Mode: serve.ModeSample}, false,
			func(a *serve.QueryAnswer) bool { return a.Entry != nil && a.ExactResult == nil }},
		{"compare", static, staticTbl, serve.QueryOptions{Mode: serve.ModeSample, Compare: true}, false,
			func(a *serve.QueryAnswer) bool { return a.Entry != nil && a.ExactResult != nil }},
		{"degraded", static, staticTbl, serve.QueryOptions{TargetCV: 0.01, Degrade: true}, true,
			func(a *serve.QueryAnswer) bool { return a.Entry != nil && a.Degraded }},
		{"stream", stream, streamTbl, serve.QueryOptions{Mode: serve.ModeSample, Compare: true}, false,
			func(a *serve.QueryAnswer) bool {
				return a.Entry != nil && a.Entry.Generation == 2 && a.ExactResult != nil
			}},
	}
	for _, p := range paths {
		for _, q := range queries {
			if p.targetOnly && !q.targetable {
				continue
			}
			ans, err := p.reg.Query(context.Background(), q.sql, p.opt)
			if err != nil {
				t.Fatalf("%s: %q: %v", p.name, q.sql, err)
			}
			if ans.Plan == nil {
				t.Fatalf("%s: %q answered without a plan", p.name, q.sql)
			}
			if !p.check(ans) {
				t.Fatalf("%s: %q took the wrong path: entry=%v degraded=%v exact=%v",
					p.name, q.sql, ans.Entry, ans.Degraded, ans.ExactResult != nil)
			}
			if !sameResult(oracle(t, p.tbl, q.sql, ans.Entry), ans.Result) {
				t.Fatalf("%s: %q diverges from the interpreter", p.name, q.sql)
			}
			if ans.ExactResult != nil && !sameResult(oracle(t, p.tbl, q.sql, nil), ans.ExactResult) {
				t.Fatalf("%s: %q: compare baseline diverges from the interpreter", p.name, q.sql)
			}
		}
	}
}

// TestPlanCacheRecompilesOnSchemaDrift: a recovered stream replaces a
// same-named static table of another schema after a plan was cached
// against the static one. The stale plan must not run (its column
// indexes point at the wrong data) and must not fail the query: the
// next query recompiles exactly once, and later ones hit the cache.
func TestPlanCacheRecompilesOnSchemaDrift(t *testing.T) {
	dir := t.TempDir()
	narrow := table.New("sales", table.Schema{
		{Name: "amount", Kind: table.Float},
		{Name: "region", Kind: table.String},
	})
	for i := 0; i < 600; i++ {
		if err := narrow.AppendRow(float64(10+i%37), []string{"NA", "EU", "APAC"}[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	seed := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := seed.RegisterStreamingTable(narrow, persistStreamCfg(100)); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	reg := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(reg.Close)
	if err := reg.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT region, AVG(amount), COUNT(*) FROM sales WHERE amount > 20 GROUP BY region"
	opt := serve.QueryOptions{Mode: serve.ModeExact}
	if _, err := reg.Query(context.Background(), sql, opt); err != nil {
		t.Fatal(err)
	}
	if got := reg.PlanCompiles(); got != 1 {
		t.Fatalf("PlanCompiles() = %d, want 1", got)
	}

	if rep, err := reg.Recover(context.Background()); err != nil || rep.Tables != 1 {
		t.Fatalf("Recover: %+v, %v", rep, err)
	}
	recovered, _ := reg.Table("sales")
	if recovered.NumCols() != 2 {
		t.Fatalf("the recovered stream should have replaced the static table, got %d columns", recovered.NumCols())
	}
	for i, wantCompiles := range []int64{2, 2, 2} {
		ans, err := reg.Query(context.Background(), sql, opt)
		if err != nil {
			t.Fatalf("query %d after the replacement: %v", i, err)
		}
		if !sameResult(oracle(t, recovered, sql, nil), ans.Result) {
			t.Fatalf("query %d after the replacement diverges from the interpreter", i)
		}
		if got := reg.PlanCompiles(); got != wantCompiles {
			t.Fatalf("query %d: PlanCompiles() = %d, want %d (one recompile, then cache hits)", i, got, wantCompiles)
		}
	}
	if got := reg.PlanCount(); got != 1 {
		t.Fatalf("PlanCount() = %d, want 1 (the stale plan is replaced, not kept)", got)
	}
}

// TestPlanCompileErrorReachesEveryRacer: an invalid query is the
// caller's error on every path through the singleflight — leader and
// waiters alike — nothing is cached for it, and the key is free again
// afterwards.
func TestPlanCompileErrorReachesEveryRacer(t *testing.T) {
	reg := serve.NewRegistry(serve.WithShards(1))
	if err := reg.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	const bad = "SELECT region, AVG(nope) FROM sales GROUP BY region"
	const workers = 32
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = reg.Query(context.Background(), bad, serve.QueryOptions{Mode: serve.ModeExact})
		}()
	}
	close(start)
	wg.Wait() // a wedged key hangs here until the test timeout
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), `unknown column "nope"`) {
			t.Fatalf("worker %d: err = %v, want the unknown-column error", i, err)
		}
	}
	if got := reg.PlanCount(); got != 0 {
		t.Fatalf("PlanCount() = %d, want 0 (failed compilations are not cached)", got)
	}
	if _, err := reg.Query(context.Background(), planSQL, serve.QueryOptions{Mode: serve.ModeExact}); err != nil {
		t.Fatalf("a valid query after the failures: %v", err)
	}
	if got := reg.PlanCount(); got != 1 {
		t.Fatalf("PlanCount() = %d, want 1", got)
	}
}

// TestPlanCacheSurvivesSampleEviction is the evict→rebuild regression
// test: a sample budget too small for any sample means every build is
// evicted right after it answers, so the second identical query rebuilds
// the sample while hitting the cached plan. The cached plan must bind to
// the *rebuilt* entry, not anything from the evicted one — verified by
// bit-comparing against the interpreter oracle over the same rebuild.
func TestPlanCacheSurvivesSampleEviction(t *testing.T) {
	reg := serve.NewRegistry(serve.WithShards(1), serve.WithMaxSampleBytes(100))
	if err := reg.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// TargetCV makes the query build its own sample (Find misses every
	// time here, since the budget evicts each build immediately)
	sql := "SELECT region, AVG(amount) FROM sales GROUP BY region"
	opt := serve.QueryOptions{Mode: serve.ModeSample, TargetCV: 0.2}
	first, err := reg.Query(context.Background(), sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan == nil || first.Entry == nil {
		t.Fatalf("want a planned sample answer, got plan=%v entry=%v", first.Plan, first.Entry)
	}
	if reg.Evictions() == 0 {
		t.Fatal("a 100-byte budget should evict every sample immediately")
	}
	builds := reg.Builds()

	second, err := reg.Query(context.Background(), sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Builds() != builds+1 {
		t.Fatalf("second query should rebuild the evicted sample (builds %d -> %d)", builds, reg.Builds())
	}
	if got := reg.PlanCompiles(); got != 1 {
		t.Fatalf("PlanCompiles() = %d, want 1 (rebuild must reuse the cached plan)", got)
	}
	// the oracle: the interpreter over each answer's own sample (the
	// rebuild is deterministic, so the two answers also agree)
	tbl, _ := reg.Table("sales")
	for _, ans := range []*serve.QueryAnswer{first, second} {
		if !sameResult(oracle(t, tbl, sql, ans.Entry), ans.Result) {
			t.Fatal("planned answer diverges from the interpreter over the same sample")
		}
	}
	if !sameResult(first.Result, second.Result) {
		t.Fatal("the rebuilt sample answered differently from the evicted one")
	}
}

// TestPlanCacheRebindsAcrossStreamSnapshots compiles a plan whose WHERE
// names a string value absent from the snapshot it compiled against,
// then refreshes the stream with rows carrying that value. The cached
// plan must rebind its dictionary predicate to the new snapshot — a
// binding frozen at compile time would keep filtering everything out.
func TestPlanCacheRebindsAcrossStreamSnapshots(t *testing.T) {
	reg := newStreamingRegistry(t, streamCfg(300))
	sql := "SELECT region, COUNT(*) FROM sales WHERE region = 'LATAM' GROUP BY region"
	opt := serve.QueryOptions{Mode: serve.ModeExact}
	before, err := reg.Query(context.Background(), sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	if before.Plan == nil {
		t.Fatal("string-equality WHERE should be plannable")
	}
	if len(before.Result.Rows) != 0 {
		t.Fatalf("LATAM groups before append = %d, want 0", len(before.Result.Rows))
	}

	rows := make([][]any, 7)
	for i := range rows {
		rows[i] = []any{"LATAM", "widget", 150.0 + float64(i)}
	}
	if _, err := reg.Append("sales", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Refresh("sales"); err != nil {
		t.Fatal(err)
	}

	after, err := reg.Query(context.Background(), sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.PlanCompiles(); got != 1 {
		t.Fatalf("PlanCompiles() = %d, want 1 (the refresh must not force a recompile)", got)
	}
	if len(after.Result.Rows) != 1 || after.Result.Rows[0].Aggs[0] != 7 {
		t.Fatalf("LATAM groups after refresh = %+v, want one group counting 7 (stale dictionary binding?)",
			after.Result.Rows)
	}
}

// TestQueryExplainHTTP covers the wire surface: explain:true returns
// the operator tree and the executor tag; without it, no plan is
// attached but the executor is still reported.
func TestQueryExplainHTTP(t *testing.T) {
	ts, _ := startServer(t)

	// every answer carries a plan, the former interpreter-only shapes too
	var resp apiv1.QueryResponse
	body := `{"sql": "SELECT COUNT_IF(IF(amount > 50, amount, region) > 0) FROM sales", "explain": true}`
	if code := post(t, ts.URL+apiv1.Path(apiv1.RouteQuery), body, &resp); code != 200 {
		t.Fatalf("query returned %d", code)
	}
	if resp.Executor != apiv1.ExecutorColumnar || resp.Plan == nil {
		t.Fatalf("kind-varying IF: executor = %q, plan = %+v", resp.Executor, resp.Plan)
	}

	resp = apiv1.QueryResponse{}
	body = fmt.Sprintf(`{"sql": %q, "mode": "exact", "explain": true}`, planSQL)
	if code := post(t, ts.URL+apiv1.Path(apiv1.RouteQuery), body, &resp); code != 200 {
		t.Fatalf("query returned %d", code)
	}
	if resp.Executor != apiv1.ExecutorColumnar {
		t.Fatalf("executor = %q, want %q", resp.Executor, apiv1.ExecutorColumnar)
	}
	if resp.Plan == nil || resp.Plan.Op != "output" {
		t.Fatalf("explain:true should attach an output-rooted plan, got %+v", resp.Plan)
	}
	node, ops := resp.Plan, []string{}
	for node != nil {
		ops = append(ops, node.Op)
		if len(node.Children) == 0 {
			break
		}
		node = node.Children[0]
	}
	if ops[len(ops)-1] != "scan" {
		t.Fatalf("plan chain %v should bottom out at scan", ops)
	}
	if src := node.Detail["source"]; src != "table" {
		t.Fatalf("exact-mode scan source = %v, want table", src)
	}

	var plain apiv1.QueryResponse
	body = fmt.Sprintf(`{"sql": %q, "mode": "exact"}`, planSQL)
	if code := post(t, ts.URL+apiv1.Path(apiv1.RouteQuery), body, &plain); code != 200 {
		t.Fatalf("query returned %d", code)
	}
	if plain.Plan != nil {
		t.Fatal("without explain:true no plan should be attached")
	}
	if plain.Executor != apiv1.ExecutorColumnar {
		t.Fatalf("executor = %q, want %q", plain.Executor, apiv1.ExecutorColumnar)
	}
}
