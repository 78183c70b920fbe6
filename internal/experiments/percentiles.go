package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/samplers"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// percentileRanks are the x-axis of Figure 6.
var percentileRanks = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}

// errorPercentiles builds a sample and returns the per-group error
// distribution's values at percentileRanks, averaged over reps.
func errorPercentiles(tbl *table.Table, specs []core.QuerySpec, q *sqlparse.Query,
	s samplers.Sampler, m, reps int, seed int64) ([]float64, error) {
	exact, err := plan.Run(tbl, q, nil, nil)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(percentileRanks))
	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(seed + int64(rep)*31337))
		rs, err := s.Build(tbl, specs, m, rng)
		if err != nil {
			return nil, err
		}
		approx, err := plan.Run(tbl, q, rs.Rows, rs.Weights)
		if err != nil {
			return nil, err
		}
		errs := metrics.GroupErrors(exact, approx)
		for i, p := range percentileRanks {
			out[i] += metrics.Percentile(errs, p)
		}
	}
	for i := range out {
		out[i] /= float64(reps)
	}
	return out, nil
}

// RunFig6 reproduces Figure 6: the error distribution of CVOPT (ℓ2)
// versus CVOPT-INF (ℓ∞) on SASG queries AQ3 and B2. Consistent with the
// theory, CVOPT-INF's maximum error is lower while its mid-percentile
// errors are worse than CVOPT's.
func RunFig6(cfg Config) error {
	cfg.setDefaults()
	openaq, bikes, err := datasets(cfg)
	if err != nil {
		return err
	}
	header(cfg.Out, "Figure 6: error percentiles, CVOPT vs CVOPT-INF (INF wins at MAX, loses at p90 and below)")

	l2 := &samplers.CVOPT{}
	linf := &samplers.CVOPT{Opts: core.Options{Norm: core.LInf}}

	type cse struct {
		label string
		tbl   *table.Table
		specs []core.QuerySpec
		q     *sqlparse.Query
		rate  float64
	}
	cases := []cse{
		{"AQ3", openaq, specAQ3(), queryAQ3, 0.01},
		{"B2", bikes, specB2(), queryB2, 0.05},
	}
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "series")
	for _, p := range percentileRanks {
		if p == 1 {
			fmt.Fprint(tw, "\tMAX")
		} else {
			fmt.Fprintf(tw, "\tp%g", p*100)
		}
	}
	fmt.Fprintln(tw)
	for _, c := range cases {
		for _, s := range []samplers.Sampler{l2, linf} {
			// the tail comparison needs extra repetitions to stabilize
			vals, err := errorPercentiles(c.tbl, c.specs, c.q, s, budget(c.tbl, c.rate), cfg.Reps*3, cfg.Seed+1100)
			if err != nil {
				return fmt.Errorf("fig6 %s %s: %w", c.label, s.Name(), err)
			}
			fmt.Fprintf(tw, "%s - %s", c.label, s.Name())
			for _, v := range vals {
				fmt.Fprintf(tw, "\t%s", pct(v))
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}
