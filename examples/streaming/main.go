// One-pass streaming CVOPT (the paper's future-work item (3)), in two
// acts.
//
// Act 1 — the primitive: when the data can only be scanned once — a
// live feed, a tape-speed log — the StreamSampler maintains per-stratum
// statistics and candidate reservoirs simultaneously, then applies the
// CVOPT allocation by subsampling. This part streams the synthetic
// OpenAQ rows once and compares the one-pass sample's accuracy against
// the classic two-pass sample.
//
// Act 2 — the subsystem: the serving registry turns the primitive into
// a *live table*. Register the table as streaming, append batches as
// they arrive, refresh to publish a new sample generation atomically
// (queries racing a refresh keep reading the previous complete
// generation), and watch the per-group CVs shrink as data accumulates
// under a rate budget. The same flow is available over HTTP via
// cmd/cvserve — see README.md next to this file.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/table"
)

func main() {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 200000, Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	queries := []repro.QuerySpec{{
		GroupBy: []string{"country", "parameter"},
		Aggs:    []repro.AggColumn{{Column: "value"}},
	}}
	const m = 2000 // 1% budget

	// ---- Act 1: one pass vs two passes over the same frozen data ----

	// One pass: statistics + reservoirs together. The reservoir capacity
	// is the memory knob; with capacity = M the result matches two-pass
	// CVOPT exactly, smaller capacities clip heavy strata.
	rng := rand.New(rand.NewSource(1))
	stream, err := core.NewStreamSampler(queries, 64, rng)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.StreamTable(stream, tbl); err != nil {
		log.Fatal(err)
	}
	ss, err := stream.Finalize(m, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sRows, sWeights := core.RowWeights(ss)
	fmt.Printf("one-pass:  %d strata discovered on the fly, %d rows sampled (cap 64/stratum)\n",
		stream.NumStrata(), len(sRows))

	// Two passes for reference.
	twoPass, err := repro.Build(tbl, queries, m, repro.Options{}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-pass:  %d rows sampled\n\n", twoPass.Len())

	sql := "SELECT country, parameter, AVG(value) FROM OpenAQ GROUP BY country, parameter"
	exact, err := repro.Exact(tbl, sql)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		sample *repro.Sample
	}{
		{"one-pass (stream)", &repro.Sample{Rows: sRows, Weights: sWeights}},
		{"two-pass (classic)", twoPass},
	} {
		approx, err := repro.Answer(tbl, c.sample, sql)
		if err != nil {
			log.Fatal(err)
		}
		sum := metrics.Summarize(metrics.GroupErrors(exact, approx))
		fmt.Printf("%-20s mean err %6.2f%%   median %6.2f%%   max %6.2f%%\n",
			c.name, sum.Mean*100, sum.Median*100, sum.Max*100)
	}
	fmt.Println("\nThe single scan pays only a reservoir-capacity clipping penalty;")
	fmt.Println("with capacity >= the largest allocation the two variants coincide.")

	// ---- Act 2: a live table in the serving registry ----

	fmt.Println("\n=== live table: append -> refresh -> query ===")
	reg := repro.NewRegistry()
	defer reg.Close()

	// the first quarter of the feed seeds the stream; the rest arrives
	// later in batches
	const seedRows = 50000
	seedIdx := make([]int, seedRows)
	for i := range seedIdx {
		seedIdx[i] = i
	}
	if err := reg.RegisterStreamingTable(tbl.Select(seedIdx), repro.StreamConfig{
		Queries: queries,
		Rate:    0.01, // 1% of *current* rows: the sample grows with the stream
		Seed:    7,
	}); err != nil {
		log.Fatal(err)
	}

	report := func() {
		ans, err := reg.Query(context.Background(), sql, repro.QueryOptions{Mode: repro.ModeSample})
		if err != nil {
			log.Fatal(err)
		}
		var cv, worst float64
		n := 0
		for _, row := range ans.Result.Rows {
			if row.SE == nil || row.Aggs[0] == 0 {
				continue
			}
			c := row.SE[0] / row.Aggs[0]
			cv += c
			if c > worst {
				worst = c
			}
			n++
		}
		st, _ := reg.StreamStatus("OpenAQ")
		fmt.Printf("gen %d: %6d rows ingested, %4d sampled -> mean CV %5.2f%%, worst group %5.2f%% (%d groups)\n",
			st.Generation, st.Rows, ans.Entry.Sample.Len(), cv/float64(n)*100, worst*100, n)
	}
	report()

	for batch := 0; batch < 3; batch++ {
		start := seedRows + batch*seedRows
		rows := make([][]any, 0, seedRows)
		for r := start; r < start+seedRows; r++ {
			rows = append(rows, rowValues(tbl, r))
		}
		if _, err := reg.Append("OpenAQ", rows); err != nil {
			log.Fatal(err)
		}
		if _, err := reg.Refresh("OpenAQ"); err != nil {
			log.Fatal(err)
		}
		report()
	}
	fmt.Println("\nEach refresh publishes a complete (snapshot, sample) generation")
	fmt.Println("atomically; under the rate budget the per-group CVs shrink as the")
	fmt.Println("stream accumulates. Over HTTP the same flow is POST /v1/tables/")
	fmt.Println("{name}/stream, .../rows and .../refresh against cmd/cvserve.")
}

// rowValues converts one table row into the loosely-typed row shape
// Append ingests (what a JSON client would send).
func rowValues(tbl *table.Table, r int) []any {
	out := make([]any, tbl.NumCols())
	for i, c := range tbl.Columns {
		switch c.Spec.Kind {
		case table.String:
			out[i] = c.StringAt(r)
		case table.Float:
			out[i] = c.Float[r]
		case table.Int:
			out[i] = c.Int[r]
		}
	}
	return out
}
