package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/table"
)

// chunkedTable is a table of two and a half statistics chunks (600
// strata over g × h, two float columns), built once for the tests that
// need the chunked pass to actually split.
var chunkedTable = sync.OnceValue(func() *table.Table {
	tbl := table.New("t", table.Schema{
		{Name: "g", Kind: table.Int},
		{Name: "h", Kind: table.Int},
		{Name: "v", Kind: table.Float},
		{Name: "u", Kind: table.Float},
	})
	n := 2*statsChunkRows + statsChunkRows/2
	tbl.Grow(n)
	rng := rand.New(rand.NewSource(10))
	for r := 0; r < n; r++ {
		g := rng.Intn(200)
		mean := float64(10 + 5*g)
		if err := tbl.AppendRow(int64(g), int64(rng.Intn(3)), mean+mean/3*rng.NormFloat64(), 1000+rng.Float64()); err != nil {
			panic(err)
		}
	}
	return tbl
})

// The chunked statistics pass must agree with a sequential scan on
// every per-stratum moment (count exactly; mean/variance to float
// associativity tolerance).
func TestParallelStatsMatchSequential(t *testing.T) {
	tbl := chunkedTable()
	gi, err := table.BuildGroupIndex(tbl, []string{"g", "h"})
	if err != nil {
		t.Fatal(err)
	}
	cols := []*table.Column{tbl.Column("v"), tbl.Column("u")}
	seq := scanRange(gi, cols, 0, tbl.NumRows())
	par := collectStats(gi, cols)
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

// rowMajorScan is the reference scanRange is checked against: row by
// row, every aggregation value through Numeric into one Observe.
func rowMajorScan(gi *table.GroupIndex, cols []*table.Column, lo, hi int) (*stats.Collector, error) {
	c := stats.NewCollector(gi.NumStrata(), len(cols))
	vals := make([]float64, len(cols))
	for r := lo; r < hi; r++ {
		for i, col := range cols {
			vals[i] = col.Numeric(r)
		}
		if err := c.Observe(int(gi.RowID[r]), vals); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// The column-at-a-time scan feeds every (stratum, column) summary the
// same values in the same order as the row-major one, so the two agree
// bit for bit — on Float and Int columns, over a whole table and over a
// chunk that starts mid-table.
func TestScanRangeMatchesRowMajor(t *testing.T) {
	tbl := chunkedTable()
	gi, err := table.BuildGroupIndex(tbl, []string{"g", "h"})
	if err != nil {
		t.Fatal(err)
	}
	cols := []*table.Column{tbl.Column("v"), tbl.Column("g"), tbl.Column("u")}
	for _, r := range [][2]int{{0, tbl.NumRows()}, {statsChunkRows, 2 * statsChunkRows}, {12345, 67890}} {
		want, err := rowMajorScan(gi, cols, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := scanRange(gi, cols, r[0], r[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("rows [%d, %d): column-at-a-time statistics differ from the row-major scan", r[0], r[1])
		}
	}
}

// NewPlan must not depend on the machine: whatever GOMAXPROCS is, a
// table of several chunks yields bit-equal per-stratum statistics,
// predicted CVs, allocations and autoscale results.
func TestParallelPlanDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tbl := chunkedTable()
	specs := []QuerySpec{
		{GroupBy: []string{"g", "h"}, Aggs: []AggColumn{{Column: "v"}}},
		{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}, {Column: "u"}}},
	}
	type outcome struct {
		stats []stats.Summary
		cvs   []EstimateCV
		alloc []int
		auto  AutoscaleResult
	}
	var want outcome
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		p, err := NewPlan(tbl, specs)
		if err != nil {
			t.Fatal(err)
		}
		var got outcome
		for _, g := range p.groups {
			got.stats = append(got.stats, g.Cols...)
		}
		if got.alloc, err = p.Allocate(2000, Options{}); err != nil {
			t.Fatal(err)
		}
		got.cvs = p.PredictedCVs(got.alloc)
		res, err := p.Autoscale(AutoscaleParams{TargetCV: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		got.auto = *res
		if procs == 1 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: plan differs from GOMAXPROCS=1", procs)
		}
	}
}

func BenchmarkStatsPassParallel(b *testing.B) {
	tbl := chunkedTable()
	gi, err := table.BuildGroupIndex(tbl, []string{"g", "h"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collectStats(gi, []*table.Column{tbl.Column("v")})
	}
	b.ReportMetric(float64(tbl.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkStatsPassSequential(b *testing.B) {
	tbl := chunkedTable()
	gi, err := table.BuildGroupIndex(tbl, []string{"g", "h"})
	if err != nil {
		b.Fatal(err)
	}
	cols := []*table.Column{tbl.Column("v")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanRange(gi, cols, 0, tbl.NumRows())
	}
	b.ReportMetric(float64(tbl.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
}
