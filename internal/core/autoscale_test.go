package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

func TestAutoscaleMeetsTarget(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Autoscale(AutoscaleParams{TargetCV: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("default cap (table rows) must always meet the target: %+v", res)
	}
	if res.AchievedCV > 0.05 {
		t.Fatalf("achieved CV %v exceeds target", res.AchievedCV)
	}
	if res.Budget < 1 || res.Budget > tbl.NumRows() {
		t.Fatalf("budget %d out of range", res.Budget)
	}
	// the chosen budget must be usable as-is by the sampling pass
	ss, _, err := p.Sample(res.Budget, Options{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalSampled() == 0 {
		t.Fatal("autoscaled sample drew no rows")
	}
	// cross-check the reported guarantee against the public predictor
	alloc, err := p.Allocate(res.Budget, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.WorstCV(alloc); math.Abs(got-res.AchievedCV) > 1e-12 {
		t.Fatalf("AchievedCV %v != WorstCV(Allocate(budget)) %v", res.AchievedCV, got)
	}
}

func TestAutoscaleValidation(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0, -0.1, math.NaN(), math.Inf(1)} {
		if _, err := p.Autoscale(AutoscaleParams{TargetCV: target}); err == nil {
			t.Fatalf("target %v should be rejected", target)
		}
	}
}

// A cap below the stratum count leaves some stratum unsampled, so the
// predicted CV stays +Inf: the autoscaler must return best-effort at the
// cap rather than claiming the target was met.
func TestAutoscaleCapBindsBestEffort(t *testing.T) {
	tbl := makeTable(t, defaultSpecs()) // 4 strata on g
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Autoscale(AutoscaleParams{TargetCV: 0.05, MaxBudget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("3 rows cannot cover 4 strata, yet Met: %+v", res)
	}
	if res.Budget != 3 {
		t.Fatalf("best effort should sit at the cap, got %d", res.Budget)
	}
	if !math.IsInf(res.AchievedCV, 1) {
		t.Fatalf("an unsampleable stratum should keep CV infinite, got %v", res.AchievedCV)
	}

	// a cap that is reachable but too tight for the target: finite
	// achieved CV above the target
	res, err = p.Autoscale(AutoscaleParams{TargetCV: 1e-6, MaxBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met || res.Budget != 100 {
		t.Fatalf("cap-bound search should report best effort at the cap: %+v", res)
	}
	if math.IsInf(res.AchievedCV, 1) || res.AchievedCV <= 1e-6 {
		t.Fatalf("achieved CV should be finite and above the target: %v", res.AchievedCV)
	}
}

// Zero-weighted estimates must not hold the budget hostage: a group the
// caller explicitly weighted out of the objective is excluded from the
// worst-CV criterion.
func TestAutoscaleIgnoresZeroWeightGroups(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	withAll, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	// "d" is the small, high-variance group that dominates the budget
	zeroed, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"},
		Aggs: []AggColumn{{Column: "v", GroupWeights: map[string]float64{"d": 0}}}}})
	if err != nil {
		t.Fatal(err)
	}
	target := 0.02
	all, err := withAll.Autoscale(AutoscaleParams{TargetCV: target})
	if err != nil {
		t.Fatal(err)
	}
	part, err := zeroed.Autoscale(AutoscaleParams{TargetCV: target})
	if err != nil {
		t.Fatal(err)
	}
	if part.Budget > all.Budget {
		t.Fatalf("dropping a group from the goal cannot cost more budget: %d > %d", part.Budget, all.Budget)
	}
}

// randomPlanCase builds a randomized small table and workload for the
// property tests. Group means stay well away from zero so Betas never
// rejects the plan.
func randomPlanCase(t *testing.T, rng *rand.Rand) *Plan {
	t.Helper()
	tbl := table.New("t", table.Schema{
		{Name: "g", Kind: table.String},
		{Name: "h", Kind: table.String},
		{Name: "v", Kind: table.Float},
		{Name: "u", Kind: table.Float},
	})
	groups := 2 + rng.Intn(5)
	for gi := 0; gi < groups; gi++ {
		n := 5 + rng.Intn(300)
		mean := 10 + 990*rng.Float64()
		sd := mean * rng.Float64() / 2
		for i := 0; i < n; i++ {
			v := mean + sd*rng.NormFloat64()
			u := mean/2 + sd*rng.NormFloat64()/2
			h := fmt.Sprintf("h%d", i%(1+rng.Intn(3)))
			if err := tbl.AppendRow(fmt.Sprintf("g%d", gi), h, v, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries := []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}}
	if rng.Intn(2) == 0 {
		queries = append(queries, QuerySpec{GroupBy: []string{"h"}, Aggs: []AggColumn{{Column: "u"}}})
	}
	p, err := NewPlan(tbl, queries)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The autoscaler's two contracted properties, over randomized
// tables/workloads (1000 trials):
//
//  1. minimality: the predicted worst CV at the chosen budget meets the
//     target, and at chosen−step it does not;
//  2. monotonicity: a tighter target never chooses a smaller budget.
func TestAutoscaleMinimalAndMonotoneProperty(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 100
	}
	rng := rand.New(rand.NewSource(42))
	norms := []Options{{}, {Norm: LInf}, {Norm: Lp, P: 3}}
	for trial := 0; trial < trials; trial++ {
		p := randomPlanCase(t, rng)
		opts := norms[rng.Intn(len(norms))]
		if opts.Norm == LInf && len(p.Queries) > 1 {
			opts = Options{} // CVOPT-INF is defined for a single group-by
		}
		step := 1 + rng.Intn(3)
		// log-uniform target in [0.003, 0.3]
		target := math.Exp(math.Log(0.003) + rng.Float64()*math.Log(100))
		params := AutoscaleParams{TargetCV: target, Step: step, Opts: opts}
		res, err := p.Autoscale(params)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		check := func(m int) float64 {
			alloc, err := p.Allocate(m, opts)
			if err != nil {
				t.Fatalf("trial %d: allocate %d: %v", trial, m, err)
			}
			return p.WorstCV(alloc)
		}
		if res.Met {
			if got := check(res.Budget); got > target {
				t.Fatalf("trial %d: chosen budget %d has worst CV %v > target %v", trial, res.Budget, got, target)
			}
			if below := res.Budget - step; below >= 1 {
				if got := check(below); got <= target {
					t.Fatalf("trial %d: budget %d (= chosen−step) already meets target %v (CV %v): chosen %d is not minimal",
						trial, below, target, got, res.Budget)
				}
			}
		} else if res.Budget != p.Table.NumRows() {
			t.Fatalf("trial %d: unmet target must sit at the cap: %+v", trial, res)
		}

		// tighter target ⇒ at least as much budget
		tight, err := p.Autoscale(AutoscaleParams{TargetCV: target / 2, Step: step, Opts: opts})
		if err != nil {
			t.Fatalf("trial %d tight: %v", trial, err)
		}
		if tight.Budget < res.Budget {
			t.Fatalf("trial %d: target %v chose %d rows but tighter %v chose fewer (%d)",
				trial, target, res.Budget, target/2, tight.Budget)
		}
	}
}

// The search must stay logarithmic in the budget range: probing,
// bisection and the step-down refinement are each O(log MaxBudget).
func TestAutoscaleEvaluationCount(t *testing.T) {
	tbl := makeTable(t, ampleSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Autoscale(AutoscaleParams{TargetCV: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	bound := 3*bits(tbl.NumRows()) + 5
	if res.Evaluations > bound {
		t.Fatalf("%d evaluations for a %d-row table (bound %d): search is not logarithmic",
			res.Evaluations, tbl.NumRows(), bound)
	}
}

func bits(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// BenchmarkAutoscale times one budget search to a worst CV of 0.2 over
// the paper_build workload on a 300 k-row OpenAQ table (~9.9 k strata):
// every probe is a full allocation plus a CV prediction.
func BenchmarkAutoscale(b *testing.B) {
	p := openAQPlan(b, 300_000)
	b.ResetTimer()
	var evals int
	for i := 0; i < b.N; i++ {
		res, err := p.Autoscale(AutoscaleParams{TargetCV: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		evals = res.Evaluations
	}
	b.ReportMetric(float64(evals), "evals/op")
}

// BenchmarkAllocate times the allocation half of one ℓ2 probe of that
// search, at the budget it settles on: shares, water-filling,
// largest-remainder rounding and the min-per-stratum repair.
func BenchmarkAllocate(b *testing.B) {
	p := openAQPlan(b, 300_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Allocate(132_187, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
