// Bike-share scenario (the paper's Bikes workload): a MASG query with
// two aggregates — AVG(age) and AVG(trip_duration) per station — and
// user-assigned weights trading accuracy between them (Section 6.2 /
// Figure 2).
//
//	go run ./examples/bikeshare
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/datagen"
	"repro/internal/metrics"
)

func main() {
	tbl, err := datagen.Bikes(datagen.BikesConfig{Rows: 200000, Seed: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic Bikes: %d rows, %d stations\n\n", tbl.NumRows(), 619)

	sql := "SELECT from_station_id, AVG(age) AS agg1, AVG(trip_duration) AS agg2 FROM Bikes WHERE age > 0 GROUP BY from_station_id"
	exact, err := repro.Exact(tbl, sql)
	if err != nil {
		log.Fatal(err)
	}

	m := repro.BudgetRate(tbl, 0.05)
	fmt.Println("5% CVOPT samples with different (w1, w2) weightings of the two aggregates:")
	fmt.Printf("%-12s %18s %18s\n", "w1/w2", "avg err AVG(age)", "avg err AVG(dur)")
	for _, w := range [][2]float64{{0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1}} {
		queries := []repro.QuerySpec{{
			GroupBy: []string{"from_station_id"},
			Aggs: []repro.AggColumn{
				{Column: "age", Weight: w[0]},
				{Column: "trip_duration", Weight: w[1]},
			},
		}}
		rng := rand.New(rand.NewSource(3))
		s, err := repro.Build(tbl, queries, m, repro.Options{}, rng)
		if err != nil {
			log.Fatal(err)
		}
		approx, err := repro.Answer(tbl, s, sql)
		if err != nil {
			log.Fatal(err)
		}
		perAgg := metrics.GroupErrorsPerAgg(exact, approx)
		fmt.Printf("%.1f/%.1f %17.2f%% %17.2f%%\n",
			w[0], w[1],
			metrics.Summarize(perAgg[0]).Mean*100,
			metrics.Summarize(perAgg[1]).Mean*100)
	}
	fmt.Println("\nRaising an aggregate's weight buys it accuracy at the other's cost —")
	fmt.Println("the sample calibration knob of Section 6.2.")
}
