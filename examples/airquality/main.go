// Air-quality scenario (the paper's OpenAQ workload): build one
// materialized 1% sample over the synthetic OpenAQ table and compare
// CVOPT against Uniform, Congressional sampling and RL on the SASG query
// AQ3 — average measurement per (country, parameter, unit) — including
// reuse of the same sample under a runtime predicate the sample was not
// optimized for.
//
//	go run ./examples/airquality
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/samplers"
)

func main() {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 300000, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic OpenAQ: %d rows, %d countries, %d parameters\n\n",
		tbl.NumRows(), tbl.Column("country").Dict.Len(), tbl.Column("parameter").Dict.Len())

	specs := []core.QuerySpec{{
		GroupBy: []string{"country", "parameter", "unit"},
		Aggs:    []core.AggColumn{{Column: "value"}},
	}}
	queries := map[string]string{
		"AQ3 (full)":          "SELECT country, parameter, unit, AVG(value) FROM OpenAQ GROUP BY country, parameter, unit",
		"AQ3.a (hour < 6)":    "SELECT country, parameter, unit, AVG(value) FROM OpenAQ WHERE hour BETWEEN 0 AND 5 GROUP BY country, parameter, unit",
		"AQ5 (lat > 0)":       "SELECT country, parameter, unit, AVG(value) AS average FROM OpenAQ WHERE latitude > 0 GROUP BY country, parameter, unit",
		"AQ6 (VN, new group)": "SELECT parameter, unit, COUNT_IF(value > 0.5) AS count FROM OpenAQ WHERE country = 'VN' GROUP BY parameter, unit",
	}

	methods := []samplers.Sampler{
		samplers.Uniform{}, samplers.Congress{}, samplers.RL{}, &samplers.CVOPT{},
	}
	m := tbl.NumRows() / 100 // 1%

	// one materialized sample per method, reused across all queries
	built := map[string]*samplers.RowSample{}
	for _, s := range methods {
		rng := rand.New(rand.NewSource(99))
		rs, err := s.Build(tbl, specs, m, rng)
		if err != nil {
			log.Fatalf("%s: %v", s.Name(), err)
		}
		built[s.Name()] = rs
	}

	fmt.Printf("%-22s", "query")
	for _, s := range methods {
		fmt.Printf(" %12s", s.Name())
	}
	fmt.Println("  (max group error)")
	for label, sql := range queries {
		exact, err := repro.Exact(tbl, sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s", label)
		for _, s := range methods {
			rs := built[s.Name()]
			approx, err := repro.Answer(tbl, rs, sql)
			if err != nil {
				log.Fatal(err)
			}
			sum := metrics.Summarize(metrics.GroupErrors(exact, approx))
			fmt.Printf(" %11.1f%%", sum.Max*100)
		}
		fmt.Println()
	}
	fmt.Println("\nThe same materialized sample answers every query — predicates and")
	fmt.Println("even new group-by attribute sets are applied at query time (Sec 6.3).")
}
