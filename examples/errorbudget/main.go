// Error budgeting with predicted CVs: before drawing a single row,
// CVOPT's statistics pass can forecast the coefficient of variation of
// every per-group estimate under a candidate budget (Chebyshev then
// bounds the relative-error tail, Section 1 of the paper). This example
// sizes a sample to meet a target worst-group CV, then verifies the
// forecast against realized errors.
//
//	go run ./examples/errorbudget
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro"
	"repro/internal/datagen"
)

func main() {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 300000, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	queries := []repro.QuerySpec{{
		GroupBy: []string{"country"},
		Aggs:    []repro.AggColumn{{Column: "value"}},
	}}
	plan, err := repro.NewPlan(tbl, queries)
	if err != nil {
		log.Fatal(err)
	}

	// Sweep budgets and report the predicted worst-group CV; pick the
	// smallest budget meeting the target.
	const targetCV = 0.10
	fmt.Printf("target: worst-group CV <= %.0f%%\n\n", targetCV*100)
	fmt.Printf("%10s %18s\n", "budget", "predicted max CV")
	chosen := 0
	for _, m := range []int{500, 1000, 2000, 4000, 8000, 16000, 32000, 64000} {
		alloc, err := plan.Allocate(m, repro.Options{})
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		for _, e := range plan.PredictedCVs(alloc) {
			if e.CV > worst {
				worst = e.CV
			}
		}
		mark := ""
		if chosen == 0 && worst <= targetCV {
			chosen = m
			mark = "  <- smallest budget meeting the target"
		}
		fmt.Printf("%10d %17.2f%%%s\n", m, worst*100, mark)
	}
	if chosen == 0 {
		log.Fatal("no budget met the target")
	}

	// Draw the chosen sample and compare realized errors to the forecast.
	rng := rand.New(rand.NewSource(2))
	s, err := repro.Build(tbl, queries, chosen, repro.Options{}, rng)
	if err != nil {
		log.Fatal(err)
	}
	sql := "SELECT country, AVG(value) FROM OpenAQ GROUP BY country"
	exact, err := repro.Exact(tbl, sql)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := repro.Answer(tbl, s, sql)
	if err != nil {
		log.Fatal(err)
	}
	var worstErr float64
	for _, row := range exact.Rows {
		est, ok := approx.Lookup(row.Set, row.Key)
		if !ok {
			continue
		}
		rel := math.Abs(est[0]-row.Aggs[0]) / math.Abs(row.Aggs[0])
		if rel > worstErr {
			worstErr = rel
		}
	}
	fmt.Printf("\ndrew %d rows; realized worst-group error %.2f%% (one draw;\n", s.Len(), worstErr*100)
	fmt.Printf("the CV bounds the error *distribution*: Pr[err > eps] <= (CV/eps)^2)\n")
}
