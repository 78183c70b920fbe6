// Star-schema / join scenario: the warehouse pattern the paper's intro
// motivates. Trips (fact) reference stations (dimension); analysts group
// by *dimension* attributes the fact table does not carry. The joined
// view is materialized once (table.Join), CVOPT stratifies it on the
// dimension attribute, and the sample answers neighborhood-level queries
// with per-group error bars.
//
//	go run ./examples/starschema
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro"
	"repro/internal/table"
)

func main() {
	rng := rand.New(rand.NewSource(17))

	// Dimension: 200 stations across 6 neighborhoods of very different
	// character.
	neighborhoods := []struct {
		name     string
		stations int
		mean, sd float64
	}{
		{"Loop", 60, 420, 120},
		{"Lincoln Park", 50, 700, 300},
		{"Hyde Park", 40, 650, 200},
		{"O'Hare", 20, 1800, 1200}, // long airport rides, wild variance
		{"Pullman", 20, 500, 150},
		{"Hegewisch", 10, 300, 700}, // tiny and noisy
	}
	dim := table.New("stations", table.Schema{
		{Name: "id", Kind: table.Int},
		{Name: "neighborhood", Kind: table.String},
	})
	type stationInfo struct{ mean, sd float64 }
	var info []stationInfo
	id := int64(0)
	for _, n := range neighborhoods {
		for s := 0; s < n.stations; s++ {
			id++
			if err := dim.AppendRow(id, n.name); err != nil {
				log.Fatal(err)
			}
			info = append(info, stationInfo{n.mean * (0.8 + 0.4*rng.Float64()), n.sd})
		}
	}

	// Fact: 300k trips referencing stations with Zipf popularity.
	fact := table.New("trips", table.Schema{
		{Name: "station", Kind: table.Int},
		{Name: "duration", Kind: table.Float},
	})
	fact.Grow(300000)
	for i := 0; i < 300000; i++ {
		s := int64(rng.Intn(int(id))) + 1
		st := info[s-1]
		d := st.mean + st.sd*rng.NormFloat64()
		if d < 60 {
			d = 60
		}
		if err := fact.AppendRow(s, d); err != nil {
			log.Fatal(err)
		}
	}

	// Denormalize once; sampling a joined view keeps Horvitz-Thompson
	// weights valid because each trip matches exactly one station.
	joined, dropped, err := table.Join(fact, "station", dim, "id", "station_")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joined view: %d rows (%d dangling facts dropped)\n\n", joined.NumRows(), dropped)

	queries := []repro.QuerySpec{{
		GroupBy: []string{"station_neighborhood"},
		Aggs:    []repro.AggColumn{{Column: "duration"}},
	}}
	sample, err := repro.Build(joined, queries, repro.BudgetRate(joined, 0.01), repro.Options{}, rng)
	if err != nil {
		log.Fatal(err)
	}

	sql := "SELECT station_neighborhood, AVG(duration), COUNT(*) FROM trips_stations GROUP BY station_neighborhood ORDER BY AVG(duration) DESC"
	exact, err := repro.Exact(joined, sql)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := repro.Answer(joined, sample, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %12s %16s %10s\n", "neighborhood", "exact AVG", "approx AVG ±SE", "rel.err")
	for _, row := range approx.Rows {
		want, _ := exact.Lookup(row.Set, row.Key)
		rel := math.Abs(row.Aggs[0]-want[0]) / want[0]
		fmt.Printf("%-14s %12.1f %10.1f ±%-5.1f %9.2f%%\n",
			row.Key[0], want[0], row.Aggs[0], row.SE[0], rel*100)
	}
	fmt.Println("\nThe 1% sample was stratified on a DIMENSION attribute the fact table")
	fmt.Println("doesn't even store — join first, then let CVOPT allocate. O'Hare's")
	fmt.Println("huge variance earns it a disproportionate share of the budget.")
}
