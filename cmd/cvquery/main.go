// Command cvquery answers a SQL group-by query over a CSV table: exactly,
// approximately through a freshly built CVOPT sample (-rate), or
// approximately through a previously materialized weighted sample from
// cvsample (-sample). Approximate answers carry ± standard errors, and
// the per-group relative errors against the exact answer are reported.
//
//	cvquery -in data.csv -sql "SELECT region, AVG(amount) FROM input GROUP BY region"
//	cvquery -in data.csv -rate 0.01 -sql "SELECT region, AVG(amount) FROM input GROUP BY region"
//	cvsample -in data.csv -out s.csv -groupby region -agg amount -rate 0.01
//	cvquery -in s.csv -sample -sql "SELECT region, AVG(amount) FROM input GROUP BY region"
//
// With -server the query runs *remotely* against a live cvserve daemon
// through its typed Go client — no CSV is loaded locally, and FROM
// names a table the daemon serves. -rate builds the covering sample on
// the daemon first if it is missing; -target-cv autoscales the budget
// server-side instead:
//
//	cvquery -server http://localhost:8080 -sql "SELECT region, AVG(amount) FROM sales GROUP BY region"
//	cvquery -server http://localhost:8080 -rate 0.01 -sql "..."
//	cvquery -server http://localhost:8080 -target-cv 0.05 -sql "..."
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	apiv1 "repro/internal/api/v1"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/samplers"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

func main() {
	var (
		in       = flag.String("in", "", "input CSV path")
		sql      = flag.String("sql", "", "SELECT statement (FROM input)")
		rate     = flag.Float64("rate", 0, "if > 0, also answer from a CVOPT sample of this rate and compare (remote mode: build the covering sample on the daemon if missing)")
		isSample = flag.Bool("sample", false, "treat the input as a cvsample output (weighted rows via its _weight column)")
		seed     = flag.Int64("seed", 1, "RNG seed for sampling")
		server   = flag.String("server", "", "cvserve base URL (e.g. http://localhost:8080): answer remotely over the daemon's API instead of loading a CSV")
		targetCV = flag.Float64("target-cv", 0, "remote mode: answer from a server-side autoscaled sample — the smallest budget whose predicted worst per-group CV meets this goal (mutually exclusive with -rate)")
		maxM     = flag.Int("max-budget", 0, "remote mode: hard cap for -target-cv autoscaling (0 = table rows)")
	)
	flag.Parse()
	if *server != "" {
		runRemote(*server, *sql, *in, *isSample, *rate, *targetCV, *maxM, *seed)
		return
	}
	if *targetCV != 0 || *maxM != 0 {
		fatalIf(fmt.Errorf("-target-cv and -max-budget are remote-mode flags; they require -server"))
	}
	if *in == "" || *sql == "" {
		fmt.Fprintln(os.Stderr, "cvquery: -in and -sql are required")
		flag.Usage()
		os.Exit(2)
	}

	tbl, err := table.LoadCSVInferred("input", *in)
	fatalIf(err)

	q, err := sqlparse.Parse(*sql)
	fatalIf(err)

	printResult := func(title string, res *exec.Result) {
		fmt.Printf("-- %s\n", title)
		for _, row := range res.Rows {
			key := strings.Join(row.Key, ", ")
			if key == "" {
				key = "(all)"
			}
			cells := make([]string, len(row.Aggs))
			for i, v := range row.Aggs {
				cells[i] = fmt.Sprintf("%s=%.6g", res.AggLabels[i], v)
				if row.SE != nil && !math.IsNaN(row.SE[i]) {
					cells[i] += fmt.Sprintf("±%.3g", row.SE[i])
				}
			}
			fmt.Printf("  %-30s %s\n", key, strings.Join(cells, "  "))
		}
	}

	if *isSample {
		// the CSV is a materialized weighted sample: every row counts
		// with its _weight
		wcol := tbl.Column("_weight")
		if wcol == nil {
			fatalIf(fmt.Errorf("-sample input has no _weight column (produce it with cvsample)"))
		}
		rows := make([]int32, tbl.NumRows())
		for i := range rows {
			rows[i] = int32(i)
		}
		approx, err := plan.Run(tbl, q, rows, wcol.Float)
		fatalIf(err)
		printResult(fmt.Sprintf("approximate (materialized sample, %d rows)", tbl.NumRows()), approx)
		return
	}

	exact, err := plan.Run(tbl, q, nil, nil)
	fatalIf(err)
	printResult("exact ("+fmt.Sprint(tbl.NumRows())+" rows)", exact)

	if *rate > 0 {
		if len(q.GroupBy) == 0 {
			fatalIf(fmt.Errorf("approximate mode needs a GROUP BY"))
		}
		spec := core.QuerySpec{GroupBy: q.GroupBy}
		seen := map[string]bool{}
		for _, item := range q.Select {
			for _, col := range sqlparse.Columns(item.Expr) {
				c := tbl.Column(col)
				if c != nil && c.Spec.Kind != table.String && !seen[col] && sqlparse.HasAggregate(item.Expr) {
					seen[col] = true
					spec.Aggs = append(spec.Aggs, core.AggColumn{Column: col})
				}
			}
		}
		if len(spec.Aggs) == 0 {
			// COUNT-only queries: stratify on frequency alone by using any
			// numeric column, or fall back to uniform within strata.
			for _, c := range tbl.Columns {
				if c.Spec.Kind != table.String {
					spec.Aggs = append(spec.Aggs, core.AggColumn{Column: c.Spec.Name})
					break
				}
			}
		}
		if len(spec.Aggs) == 0 {
			fatalIf(fmt.Errorf("no numeric column available for allocation statistics"))
		}
		m := int(float64(tbl.NumRows()) * *rate)
		if m < 1 {
			m = 1
		}
		rng := rand.New(rand.NewSource(*seed))
		rs, err := (&samplers.CVOPT{}).Build(tbl, []core.QuerySpec{spec}, m, rng)
		fatalIf(err)
		approx, err := plan.Run(tbl, q, rs.Rows, rs.Weights)
		fatalIf(err)
		printResult(fmt.Sprintf("approximate (CVOPT, %d rows = %.3g%%)", rs.Len(), *rate*100), approx)
		sum := metrics.Summarize(metrics.GroupErrors(exact, approx))
		fmt.Printf("-- error: %s\n", sum)
	}
}

// runRemote answers the query against a live cvserve daemon through
// the typed client: optionally build-if-missing (a -rate build of the
// query's own workload, idempotent thanks to the server cache), then
// POST /v1/query — with the autoscale flags forwarded as
// target_cv/max_budget when set.
func runRemote(server, sqlText, in string, isSample bool, rate, targetCV float64, maxBudget int, seed int64) {
	if sqlText == "" {
		fmt.Fprintln(os.Stderr, "cvquery: -sql is required")
		flag.Usage()
		os.Exit(2)
	}
	if in != "" || isSample {
		fatalIf(fmt.Errorf("-in and -sample do not apply with -server: the daemon owns the tables (FROM names one of them)"))
	}
	if rate > 0 && targetCV > 0 {
		fatalIf(fmt.Errorf("set -rate or -target-cv, not both: -target-cv lets the server choose the budget"))
	}
	if maxBudget != 0 && targetCV == 0 {
		// the server would reject this too (budget_conflict), but only
		// after a -rate build already ran; fail before any network work
		fatalIf(fmt.Errorf("-max-budget caps -target-cv autoscaling; it requires -target-cv"))
	}
	c, err := client.New(server, nil)
	fatalIf(err)
	ctx := context.Background()

	// parse locally only to learn the FROM table and derive the
	// build-if-missing workload; the daemon re-parses authoritatively
	q, err := sqlparse.Parse(sqlText)
	fatalIf(err)

	if rate > 0 {
		if len(q.GroupBy) == 0 {
			fatalIf(fmt.Errorf("approximate mode needs a GROUP BY"))
		}
		// the same derivation the server's query-driven builds use, so
		// the built sample is guaranteed to cover the query
		spec := apiv1.QuerySpec{GroupBy: q.GroupBy}
		for _, col := range sqlparse.QueryAggColumns(q) {
			spec.Aggs = append(spec.Aggs, apiv1.Agg{Column: col})
		}
		if len(spec.Aggs) == 0 {
			fatalIf(fmt.Errorf("remote -rate needs at least one aggregated column in the query (a COUNT-only query answers exactly; drop -rate)"))
		}
		s, err := c.BuildSample(ctx, apiv1.BuildRequest{
			Table:   q.From,
			Queries: []apiv1.QuerySpec{spec},
			Rate:    rate,
			Seed:    seed,
		})
		fatalIf(err)
		state := "built"
		if s.Cached {
			state = "reusing"
		}
		fmt.Printf("cvquery: %s sample on %s: %d rows (budget %d)\n", state, c.BaseURL(), s.Rows, s.Budget)
	}

	resp, err := c.Query(ctx, apiv1.QueryRequest{SQL: sqlText, TargetCV: targetCV, MaxBudget: maxBudget})
	fatalIf(err)
	printRemote(resp)
}

// printRemote renders a wire query response in the same per-group
// layout as the local modes.
func printRemote(resp *apiv1.QueryResponse) {
	title := fmt.Sprintf("remote exact (table %s)", resp.Table)
	if !resp.Exact {
		title = fmt.Sprintf("remote approximate (table %s, %d sample rows", resp.Table, resp.SampleRows)
		if resp.Generation > 0 {
			title += fmt.Sprintf(", generation %d", resp.Generation)
		}
		title += ")"
	}
	fmt.Printf("-- %s\n", title)
	for _, g := range resp.Groups {
		key := strings.Join(g.Key, ", ")
		if key == "" {
			key = "(all)"
		}
		cells := make([]string, len(g.Aggs))
		for i, v := range g.Aggs {
			label := ""
			if i < len(resp.AggLabels) {
				label = resp.AggLabels[i]
			}
			if v == nil {
				cells[i] = label + "=null"
				continue
			}
			cells[i] = fmt.Sprintf("%s=%.6g", label, *v)
			if i < len(g.SE) && g.SE[i] != nil {
				cells[i] += fmt.Sprintf("±%.3g", *g.SE[i])
			}
		}
		fmt.Printf("  %-30s %s\n", key, strings.Join(cells, "  "))
	}
	if resp.TargetCV > 0 {
		achieved := "inf"
		if resp.AchievedCV != nil {
			achieved = fmt.Sprintf("%.4g", *resp.AchievedCV)
		}
		if resp.TargetMet != nil && *resp.TargetMet {
			fmt.Printf("-- autoscaled to budget %d (target CV %g, achieved %s)\n",
				resp.ChosenBudget, resp.TargetCV, achieved)
		} else {
			fmt.Printf("-- target CV %g not met under the cap; best effort at budget %d (achieved CV %s)\n",
				resp.TargetCV, resp.ChosenBudget, achieved)
		}
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "cvquery: %v\n", err)
		os.Exit(1)
	}
}
