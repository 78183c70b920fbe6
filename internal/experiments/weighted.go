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

// weightProfiles are the (w1, w2) settings of Figure 2.
var weightProfiles = [][2]float64{
	{0.1, 0.9}, {0.25, 0.75}, {0.5, 0.5}, {0.75, 0.25}, {0.9, 0.1},
}

// runWeightedCase evaluates one weighted MASG configuration, returning
// the average error of each aggregate.
func runWeightedCase(tbl *table.Table, specs []core.QuerySpec, q *sqlparse.Query,
	m, reps int, seed int64) (err1, err2 float64, err error) {
	exact, err := plan.Run(tbl, q, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	s := &samplers.CVOPT{}
	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(seed + int64(rep)*104729))
		rs, err := s.Build(tbl, specs, m, rng)
		if err != nil {
			return 0, 0, err
		}
		approx, err := plan.Run(tbl, q, rs.Rows, rs.Weights)
		if err != nil {
			return 0, 0, err
		}
		perAgg := metrics.GroupErrorsPerAgg(exact, approx)
		if len(perAgg) != 2 {
			return 0, 0, fmt.Errorf("weighted case expects 2 aggregates, got %d", len(perAgg))
		}
		err1 += metrics.Summarize(perAgg[0]).Mean
		err2 += metrics.Summarize(perAgg[1]).Mean
	}
	k := float64(reps)
	return err1 / k, err2 / k, nil
}

// RunFig2 reproduces Figure 2: as the weight shifts from aggregate 2 to
// aggregate 1, agg1's error falls and agg2's rises. AQ2' uses
// AVG(value)/AVG(latitude) (see EXPERIMENTS.md note on COUNT being exact
// under stratified samples); B1 uses the paper's own AVG(age)/
// AVG(trip_duration).
func RunFig2(cfg Config) error {
	cfg.setDefaults()
	openaq, bikes, err := datasets(cfg)
	if err != nil {
		return err
	}
	header(cfg.Out, "Figure 2: weighted aggregates under CVOPT (error of agg1 falls, agg2 rises as w1/w2 grows)")

	aq2q := mustParse("SELECT country, parameter, unit, AVG(value) AS agg1, AVG(hour) AS agg2 FROM OpenAQ GROUP BY country, parameter, unit")
	b1q := queryB1

	// weight effects are subtle; use extra repetitions (the experiment is
	// cheap relative to the accuracy sweeps)
	reps := cfg.Reps * 3
	tw := newTab(cfg.Out)
	fmt.Fprintln(tw, "w1/w2\tAQ2' agg1\tAQ2' agg2\tB1 agg1\tB1 agg2")
	for _, wp := range weightProfiles {
		a1, a2, err := runWeightedCase(openaq, specAQ2Weighted(wp[0], wp[1]), aq2q,
			budget(openaq, 0.01), reps, cfg.Seed+500)
		if err != nil {
			return fmt.Errorf("fig2 AQ2': %w", err)
		}
		b1, b2, err := runWeightedCase(bikes, specB1Weighted(wp[0], wp[1]), b1q,
			budget(bikes, 0.05), reps, cfg.Seed+550)
		if err != nil {
			return fmt.Errorf("fig2 B1: %w", err)
		}
		fmt.Fprintf(tw, "%.2f/%.2f\t%s\t%s\t%s\t%s\n", wp[0], wp[1], pct(a1), pct(a2), pct(b1), pct(b2))
	}
	return tw.Flush()
}
