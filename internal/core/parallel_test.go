package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// The parallel statistics pass must agree with a sequential scan on
// every per-stratum moment (count exactly; mean/variance to float
// associativity tolerance).
func TestParallelStatsMatchSequential(t *testing.T) {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 150000, Seed: 9}) // above parallelThreshold
	if err != nil {
		t.Fatal(err)
	}
	gi, err := table.BuildGroupIndex(tbl, []string{"country", "parameter"})
	if err != nil {
		t.Fatal(err)
	}
	cols := []*table.Column{tbl.Column("value"), tbl.Column("latitude")}
	seq, err := scanRange(gi, cols, 0, tbl.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	par, err := collectStats(gi, cols)
	if err != nil {
		t.Fatal(err)
	}
	if par.NumStrata() != seq.NumStrata() {
		t.Fatalf("strata mismatch")
	}
	for c := 0; c < seq.NumStrata(); c++ {
		for j := 0; j < 2; j++ {
			a, b := seq.Group(c).Cols[j], par.Group(c).Cols[j]
			if a.N != b.N {
				t.Fatalf("stratum %d col %d N %d vs %d", c, j, a.N, b.N)
			}
			if a.N == 0 {
				continue
			}
			if math.Abs(a.Mean-b.Mean) > 1e-9*(math.Abs(a.Mean)+1) {
				t.Fatalf("stratum %d col %d mean %v vs %v", c, j, a.Mean, b.Mean)
			}
			if math.Abs(a.Variance()-b.Variance()) > 1e-6*(a.Variance()+1) {
				t.Fatalf("stratum %d col %d var %v vs %v", c, j, a.Variance(), b.Variance())
			}
			if a.Min != b.Min || a.Max != b.Max {
				t.Fatalf("stratum %d col %d min/max mismatch", c, j)
			}
		}
	}
}

// NewPlan must be deterministic regardless of the parallel split: two
// plans over the same table produce identical allocations.
func TestParallelPlanDeterministic(t *testing.T) {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 120000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	specs := []QuerySpec{{GroupBy: []string{"country", "parameter"}, Aggs: []AggColumn{{Column: "value"}}}}
	p1, err := NewPlan(tbl, specs)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(tbl, specs)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p1.Allocate(2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p2.Allocate(2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("allocation differs at stratum %d: %d vs %d", i, a1[i], a2[i])
		}
	}
}

func BenchmarkStatsPassParallel(b *testing.B) {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 400000, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	gi, err := table.BuildGroupIndex(tbl, []string{"country", "parameter", "unit"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectStats(gi, []*table.Column{tbl.Column("value")}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tbl.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkStatsPassSequential(b *testing.B) {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 400000, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	gi, err := table.BuildGroupIndex(tbl, []string{"country", "parameter", "unit"})
	if err != nil {
		b.Fatal(err)
	}
	cols := []*table.Column{tbl.Column("value")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanRange(gi, cols, 0, tbl.NumRows()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tbl.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
}
