// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6) on the synthetic OpenAQ and Bikes datasets. Each
// experiment prints the same rows/series the paper reports; EXPERIMENTS.md
// records paper-vs-measured values. cmd/cvbench drives the registry and
// bench_test.go wraps each driver in a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/samplers"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// Config scales and seeds an experiment run.
type Config struct {
	OpenAQRows int   // synthetic OpenAQ size (default 400_000)
	BikesRows  int   // synthetic Bikes size (default 150_000)
	Scale      int   // duplication factor for the Table 6 "-25x" dataset (default 5)
	Seed       int64 // base RNG seed
	Reps       int   // repetitions averaged per cell (default 3; the paper uses 5)
	Out        io.Writer
}

func (c *Config) setDefaults() {
	if c.OpenAQRows == 0 {
		c.OpenAQRows = 400000
	}
	if c.BikesRows == 0 {
		c.BikesRows = 300000
	}
	if c.Scale == 0 {
		c.Scale = 5
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string // e.g. "fig1", "table4"
	Title string
	Run   func(cfg Config) error
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: max error, MASG query AQ1 and SASG query AQ3, 1% sample", RunFig1},
		{"sec61", "Section 6.1 text: max errors for AQ2, B1, B2, AQ4", RunSec61},
		{"table4", "Table 4: average error %, query classes x datasets", RunTable4},
		{"fig2", "Figure 2: weighted aggregates (AQ2' 1%, B1 5%)", RunFig2},
		{"fig3", "Figure 3: max error vs sample rate (AQ2, B2)", RunFig3},
		{"fig4", "Figure 4: max error vs predicate selectivity (AQ3.*, B2.*)", RunFig4},
		{"table5", "Table 5: one AQ3-optimized sample answering six queries", RunTable5},
		{"fig5", "Figure 5: max error of CUBE queries (AQ7, B3, AQ8, B4)", RunFig5},
		{"table6", "Table 6: CPU time for precompute and query (OpenAQ, OpenAQ-Nx)", RunTable6},
		{"fig6", "Figure 6: error percentiles, CVOPT vs CVOPT-INF (AQ3, B2)", RunFig6},
		{"ablp", "Ablation: lp-norm allocation, p in {1,2,4,inf} (AQ3)", RunAblationLp},
		{"ablcap", "Ablation: cap+redistribute repair vs none vs RL clipping", RunAblationCap},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// datasets builds both synthetic tables for a config.
func datasets(cfg Config) (openaq, bikes *table.Table, err error) {
	openaq, err = datagen.OpenAQ(datagen.OpenAQConfig{Rows: cfg.OpenAQRows, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, nil, err
	}
	bikes, err = datagen.Bikes(datagen.BikesConfig{Rows: cfg.BikesRows, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, nil, err
	}
	return openaq, bikes, nil
}

// mustParse parses SQL that is fixed at compile time.
func mustParse(sql string) *sqlparse.Query {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad built-in query %q: %v", sql, err))
	}
	return q
}

// evalCase runs one (sampler, query) cell: builds the sample reps times
// and averages the error summary against the exact answer.
func evalCase(tbl *table.Table, specs []core.QuerySpec, q *sqlparse.Query,
	s samplers.Sampler, m int, reps int, seed int64) (metrics.Summary, error) {
	exact, err := plan.Run(tbl, q, nil, nil)
	if err != nil {
		return metrics.Summary{}, err
	}
	var sums []metrics.Summary
	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(seed + int64(rep)*7919))
		rs, err := s.Build(tbl, specs, m, rng)
		if err != nil {
			return metrics.Summary{}, fmt.Errorf("%s: %w", s.Name(), err)
		}
		approx, err := plan.Run(tbl, q, rs.Rows, rs.Weights)
		if err != nil {
			return metrics.Summary{}, err
		}
		sums = append(sums, metrics.Summarize(metrics.GroupErrors(exact, approx)))
	}
	return metrics.Average(sums), nil
}

// evalPrebuilt evaluates a query against an already-built sample.
func evalPrebuilt(tbl *table.Table, q *sqlparse.Query, rs *samplers.RowSample) (metrics.Summary, error) {
	exact, err := plan.Run(tbl, q, nil, nil)
	if err != nil {
		return metrics.Summary{}, err
	}
	approx, err := plan.Run(tbl, q, rs.Rows, rs.Weights)
	if err != nil {
		return metrics.Summary{}, err
	}
	return metrics.Summarize(metrics.GroupErrors(exact, approx)), nil
}

// pct renders a fraction as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }

// newTab builds a tabwriter for aligned experiment tables.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// budget converts a sample rate into a row budget.
func budget(tbl *table.Table, rate float64) int {
	m := int(float64(tbl.NumRows()) * rate)
	if m < 1 {
		m = 1
	}
	return m
}

// quantileOf computes the q-quantile of a numeric column, used to build
// predicates of controlled selectivity for the Figure 4 experiment.
func quantileOf(tbl *table.Table, col string, q float64) float64 {
	c := tbl.Column(col)
	vals := make([]float64, tbl.NumRows())
	for r := range vals {
		vals[r] = c.Numeric(r)
	}
	sort.Float64s(vals)
	return metrics.Percentile(vals, q)
}

// fourMethods is the comparison set of the accuracy figures (the paper
// drops Sample+Seek after Section 6.1 because its errors are off-scale).
func fourMethods() []samplers.Sampler {
	return []samplers.Sampler{samplers.Uniform{}, samplers.Congress{}, samplers.RL{}, &samplers.CVOPT{}}
}

// methodNames renders sampler names as a header row.
func methodNames(ms []samplers.Sampler) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	return strings.Join(names, "\t")
}
