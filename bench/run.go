package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/client"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

const staticTable = "OpenAQ" // datagen's name for the table

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	workDir  string // parent of the run's temporary directory
	outDir   string // where the traced run writes its span file
}

func (c config) sizes() sizes {
	if c.scale == "smoke" {
		return smokeSizes
	}
	return fullSizes
}

// run is the state of one benchmark run: fixtures built in set-up,
// then the metrics the phases record.
type run struct {
	cfg config
	sz  sizes
	tmp string // this run's scratch directory, removed on exit

	// fixtures
	tbl        *table.Table
	static     *daemon      // non-durable daemon: builds, sample and exact queries
	builds     *daemon      // a second daemon on the same table, so paper_build's samples never answer dash_sample's queries
	resident   *serve.Entry // the 1 % sample
	narrowRefs []answer     // sample-mode references, per narrow text
	wideRefs   []answer
	exactRefs  []answer // exact-mode references, per exactTextIdx entry
	score      *scorer
	live       *liveTable

	// results
	metrics   map[string]float64
	lines     []string // human-readable report, printed before the JSON line
	attempted int
	failed    int
	problems  []string // what failed, for the report
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, sz: cfg.sizes(), metrics: map[string]float64{}}
}

// n is the op count of a family in this run: its focus size when the
// family's workload is the run's, its background size otherwise.
func (r *run) n(pair [2]int, workload string) int {
	return count(pair, r.cfg.workload == workload, r.cfg.seconds)
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setTiming records a phase median under name and reports the tail.
func (r *run) setTiming(name string, ds []time.Duration, unit string) timing {
	t := summarize(ds, unit)
	r.metrics[name] = t.p50
	r.logf("%-28s %s", name, t)
	return t
}

func (r *run) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// tally folds a phase's op counts into the run's, and its first error
// into the report.
func (r *run) tally(name string, p *phase) {
	r.attempted += len(p.lat)
	r.failed += p.failed
	if p.firstErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d of %d ops failed, first: %v", name, p.failed, len(p.lat), p.firstErr))
	}
}

// check counts one correctness assertion as an attempted op and, when
// it does not hold, a failed one.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setUp builds everything the timed phases need: the table, the two
// static daemons, the resident sample, the live table and every
// reference answer. Its wall time is setup_s.
func (r *run) setUp(ctx context.Context) error {
	var err error
	if err = os.MkdirAll(r.cfg.workDir, 0o755); err != nil {
		return err
	}
	if r.tmp, err = os.MkdirTemp(r.cfg.workDir, "run-"); err != nil {
		return err
	}
	start := time.Now()
	if r.tbl, err = datagen.OpenAQ(datagen.OpenAQConfig{Rows: r.sz.rows, Seed: r.cfg.seed}); err != nil {
		return err
	}
	r.set("datagen.openaq_rows_per_s", float64(r.sz.rows)/time.Since(start).Seconds())
	for _, d := range []**daemon{&r.static, &r.builds} {
		reg := serve.NewRegistry()
		if err = reg.RegisterTable(r.tbl); err != nil {
			return err
		}
		if *d, err = newDaemon(reg); err != nil {
			return err
		}
	}

	// the resident sample, built through the API like a user would
	req := apiv1.BuildRequest{Table: staticTable, Queries: paperWorkload(), Budget: r.sz.residentBudget, Seed: r.cfg.seed}
	if _, err = r.static.clients[0].BuildSample(ctx, req); err != nil {
		return fmt.Errorf("building the resident sample: %w", err)
	}
	e, ok := r.static.reg.Find(staticTable, paperWorkload()[0].GroupBy)
	if !ok {
		return errors.New("resident sample not found after build")
	}
	r.resident = e

	// references: the row interpreter over the same rows and weights
	narrow, wide := narrowTexts(staticTable), wideTexts(staticTable)
	if r.narrowRefs, err = references(r.tbl, narrow, e); err != nil {
		return err
	}
	if r.wideRefs, err = references(r.tbl, wide, e); err != nil {
		return err
	}
	var exact []string
	for _, i := range exactTextIdx() {
		exact = append(exact, narrow[i])
	}
	start = time.Now()
	if r.exactRefs, err = references(r.tbl, exact, nil); err != nil {
		return err
	}
	r.set("exec.run_exact_ms", inUnit(time.Since(start), "ms")/float64(len(exact)))
	if r.score, err = newScorer(r.tbl); err != nil {
		return err
	}
	if r.live, err = newLiveTable(ctx, r); err != nil {
		return err
	}
	return nil
}

// references answers each text with the row interpreter: exactly when e
// is nil, over e's rows and weights otherwise.
func references(tbl *table.Table, texts []string, e *serve.Entry) ([]answer, error) {
	out := make([]answer, len(texts))
	for i, sql := range texts {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", sql, err)
		}
		var res *exec.Result
		if e == nil {
			res, err = exec.Run(tbl, q)
		} else {
			res, err = exec.RunWeighted(tbl, q, e.Sample.Rows, e.Sample.Weights)
		}
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", sql, err)
		}
		out[i] = toAnswer(res)
	}
	return out, nil
}

// tearDown stops the daemons and removes the scratch directory. Safe on
// a partially set-up run.
func (r *run) tearDown() {
	if r.live != nil {
		r.live.d.close()
	}
	for _, d := range []*daemon{r.static, r.builds} {
		if d != nil {
			d.close()
		}
	}
	if r.tmp != "" {
		os.RemoveAll(r.tmp)
	}
}

// execute runs set-up and the four families, in a fixed order whatever
// the workload; the workload only decides which family gets its focus
// op count. It returns an error only when the run cannot proceed;
// failed ops are counted, not returned.
func (r *run) execute(ctx context.Context) error {
	start := time.Now()
	if err := r.setUp(ctx); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.set("setup_s", time.Since(start).Seconds())
	r.logf("%-28s %.3f s  (table %d rows, resident sample %d rows)", "setup_s", r.metrics["setup_s"], r.tbl.NumRows(), r.resident.Sample.Len())

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	opsBefore := r.attempted
	for _, family := range []func(context.Context) error{r.dashSample, r.dashExact, r.paperBuild, r.streamIngest} {
		if err := family(ctx); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	r.runtimeDeltas(&before, r.attempted-opsBefore)

	if r.cfg.trace {
		if err := r.traced(ctx); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}

	// what stays resident once the work is done: table, samples, plans,
	// the live table's ingest buffer
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20))
	r.logf("%-28s %.1f MB", "heap_live_mb", r.metrics["heap_live_mb"])
	runtime.KeepAlive(r)
	return nil
}

// runtimeDeltas records allocation and GC cost of the four families
// (per-layer metrics; the end-to-end run pays the two ReadMemStats
// calls, which stop the world for microseconds, outside every phase).
func (r *run) runtimeDeltas(before *runtime.MemStats, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(ops))
	r.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(ops))
	r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

// queryOp sends one query and checks the answer against its reference.
// It returns the request's latency alone; verification is not timed.
func queryOp(ctx context.Context, c *client.Client, sql, mode string, ref answer) (time.Duration, error) {
	start := time.Now()
	resp, err := c.Query(ctx, apiv1.QueryRequest{SQL: sql, Mode: mode})
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if !ref.matches(resp.Groups) {
		return lat, fmt.Errorf("answer differs from the reference (%d groups, want %d): %s", len(resp.Groups), len(ref), abbreviate(sql))
	}
	return lat, nil
}

func abbreviate(sql string) string {
	if len(sql) > 80 {
		return sql[:77] + "..."
	}
	return sql
}

// report renders the human-readable part of the output.
func (r *run) report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  seconds %d  scale %s  trace %v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.scale, r.cfg.trace)
	for _, l := range r.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(&b, "%-28s %g  (%d failed of %d attempted)\n", "failed_share", share, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(&b, "FAILED %s\n", p)
	}
	return b.String()
}
