package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/samplers"
)

// RunAblationLp explores the paper's future-work item (2): ℓp norms for
// p other than 2 and ∞. Allocation under ℓp is s_i ∝ β_i^{p/(p+2)}
// (Lemma 1 generalized, dropping the finite-population correction): p=2
// recovers CVOPT, larger p leans toward the worst group, p→∞ approaches
// CVOPT-INF. Reported: mean / p90 / max error of AQ3 per p.
func RunAblationLp(cfg Config) error {
	cfg.setDefaults()
	openaq, _, err := datasets(cfg)
	if err != nil {
		return err
	}
	header(cfg.Out, "Ablation: lp-norm allocation on AQ3 (mean rises, max falls as p grows)")
	methods := []samplers.Sampler{
		&samplers.CVOPT{Opts: core.Options{Norm: core.Lp, P: 1}},
		&samplers.CVOPT{},
		&samplers.CVOPT{Opts: core.Options{Norm: core.Lp, P: 4}},
		&samplers.CVOPT{Opts: core.Options{Norm: core.Lp, P: 8}},
		&samplers.CVOPT{Opts: core.Options{Norm: core.LInf}},
	}
	exact, err := plan.Run(openaq, queryAQ3, nil, nil)
	if err != nil {
		return err
	}
	m := budget(openaq, 0.01)
	tw := newTab(cfg.Out)
	fmt.Fprintln(tw, "norm\tmean\tp90\tmax")
	for _, s := range methods {
		var mean, p90, max float64
		for rep := 0; rep < cfg.Reps; rep++ {
			rng := rand.New(rand.NewSource(cfg.Seed + 1200 + int64(rep)))
			rs, err := s.Build(openaq, specAQ3(), m, rng)
			if err != nil {
				return fmt.Errorf("ablp %s: %w", s.Name(), err)
			}
			approx, err := plan.Run(openaq, queryAQ3, rs.Rows, rs.Weights)
			if err != nil {
				return err
			}
			errs := metrics.GroupErrors(exact, approx)
			mean += metrics.Summarize(errs).Mean
			p90 += metrics.Percentile(errs, 0.9)
			max += metrics.Summarize(errs).Max
		}
		k := float64(cfg.Reps)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", s.Name(), pct(mean/k), pct(p90/k), pct(max/k))
	}
	return tw.Flush()
}

// RunAblationCap isolates the design choice DESIGN.md §5(2) calls out:
// CVOPT's cap-at-population + surplus-redistribution + minimum-
// representation repair, versus the raw closed form (floor disabled) and
// versus RL's clip-and-lose behavior. Data: OpenAQ per-country strata,
// which include tiny countries whose closed-form share exceeds their
// size.
func RunAblationCap(cfg Config) error {
	cfg.setDefaults()
	openaq, _, err := datasets(cfg)
	if err != nil {
		return err
	}
	header(cfg.Out, "Ablation: allocation repair (cap+redistribute+floor) on AQ3 strata with tiny groups")
	q := queryAQ3
	specs := specAQ3()
	exact, err := plan.Run(openaq, q, nil, nil)
	if err != nil {
		return err
	}
	m := budget(openaq, 0.01)
	methods := []struct {
		label string
		s     samplers.Sampler
	}{
		{"CVOPT (full repair)", &samplers.CVOPT{}},
		{"CVOPT (no floor)", &samplers.CVOPT{Opts: core.Options{MinPerStratum: -1}}},
		{"RL (clip, no redistribute)", samplers.RL{}},
	}
	tw := newTab(cfg.Out)
	fmt.Fprintln(tw, "variant\tsampled rows\tgroups missing\tmean err\tmax err")
	for _, mth := range methods {
		var rowsUsed, missing, mean, max float64
		for rep := 0; rep < cfg.Reps; rep++ {
			rng := rand.New(rand.NewSource(cfg.Seed + 1300 + int64(rep)))
			rs, err := mth.s.Build(openaq, specs, m, rng)
			if err != nil {
				return fmt.Errorf("ablcap %s: %w", mth.label, err)
			}
			rowsUsed += float64(rs.Len())
			approx, err := plan.Run(openaq, q, rs.Rows, rs.Weights)
			if err != nil {
				return err
			}
			// one index over the approximate answer, then O(1) membership
			// per exact group (previously a Lookup scan per group, O(G²))
			approxIdx := approx.Index()
			miss := 0
			for _, row := range exact.Rows {
				if _, ok := approxIdx[exec.KeyOf(row.Set, row.Key)]; !ok {
					miss++
				}
			}
			missing += float64(miss)
			errs := metrics.GroupErrors(exact, approx)
			mean += metrics.Summarize(errs).Mean
			max += metrics.Summarize(errs).Max
		}
		k := float64(cfg.Reps)
		fmt.Fprintf(tw, "%s\t%.0f/%d\t%.1f\t%s\t%s\n",
			mth.label, rowsUsed/k, m, missing/k, pct(mean/k), pct(max/k))
	}
	return tw.Flush()
}
