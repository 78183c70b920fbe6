// CUBE queries (Section 4.1 / Figure 5): one CVOPT sample jointly
// optimized for every grouping set of GROUP BY country, parameter WITH
// CUBE, answering all four groupings of AQ7 from the same sample.
//
//	go run ./examples/cube
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro"
	"repro/internal/datagen"
	"repro/internal/metrics"
)

func main() {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 250000, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}

	// One QuerySpec per grouping set: (country,parameter), (country),
	// (parameter). The sampler stratifies on the union and jointly
	// optimizes the l2 norm over all groupings' CVs.
	specs := repro.CubeQueries([]string{"country", "parameter"},
		[]repro.AggColumn{{Column: "value"}})
	fmt.Printf("cube over (country, parameter): %d grouping-set query specs\n", len(specs))

	rng := rand.New(rand.NewSource(4))
	s, err := repro.Build(tbl, specs, repro.BudgetRate(tbl, 0.01), repro.Options{}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialized %d rows (1%%)\n\n", s.Len())

	sql := "SELECT country, parameter, SUM(value) FROM OpenAQ GROUP BY country, parameter WITH CUBE"
	exact, err := repro.Exact(tbl, sql)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := repro.Answer(tbl, s, sql)
	if err != nil {
		log.Fatal(err)
	}

	// errors per grouping set
	fmt.Printf("%-24s %8s %12s %12s\n", "grouping set", "groups", "mean err", "max err")
	for setIdx, attrs := range exact.Sets {
		var exSet, apSet repro.Result
		for _, r := range exact.Rows {
			if r.Set == setIdx {
				exSet.Rows = append(exSet.Rows, r)
			}
		}
		for _, r := range approx.Rows {
			if r.Set == setIdx {
				apSet.Rows = append(apSet.Rows, r)
			}
		}
		sum := metrics.Summarize(metrics.GroupErrors(&exSet, &apSet))
		label := "(" + strings.Join(attrs, ", ") + ")"
		if len(attrs) == 0 {
			label = "() grand total"
		}
		fmt.Printf("%-24s %8d %11.2f%% %11.2f%%\n", label, sum.N, sum.Mean*100, sum.Max*100)
	}
	fmt.Println("\nAll grouping sets — including ones the paper's CS heuristic would")
	fmt.Println("trade off — are served by the single jointly-optimized sample.")
}
