package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

func streamSpecs() []QuerySpec {
	return []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}}
}

// streamRows builds a (g, v) table of n rows in group g; v(i) defaults
// to the constant 1.
func streamRows(t *testing.T, g string, n int, v ...func(i int) float64) *table.Table {
	t.Helper()
	tbl := table.New("t", table.Schema{{Name: "g", Kind: table.String}, {Name: "v", Kind: table.Float}})
	for i := 0; i < n; i++ {
		x := 1.0
		if len(v) > 0 {
			x = v[0](i)
		}
		if err := tbl.AppendRow(g, x); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestStreamSamplerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewStreamSampler(nil, 10, rng); err == nil {
		t.Fatalf("want error for no queries")
	}
	if _, err := NewStreamSampler(streamSpecs(), 0, rng); err == nil {
		t.Fatalf("want error for zero capacity")
	}
	s, err := NewStreamSampler(streamSpecs(), 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(10, Options{}); err == nil {
		t.Fatalf("want error for empty stream")
	}
	tbl := streamRows(t, "a", 1)
	if err := s.Observe(tbl, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(streamRows(t, "a", 1), 0, 1); err == nil {
		t.Fatalf("want error for a second table")
	}
	if _, err := s.Finalize(0, Options{}); err == nil {
		t.Fatalf("want error for zero budget")
	}
	if _, err := s.Finalize(10, Options{Norm: Norm(9)}); err == nil {
		t.Fatalf("want error for an unknown norm")
	}
	if _, err := s.Finalize(10, Options{Norm: Lp, P: 0.2}); err == nil {
		t.Fatalf("want error for bad P")
	}
}

func TestStreamSamplerMatchesTwoPassStats(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	rng := rand.New(rand.NewSource(2))
	s, err := NewStreamSampler(streamSpecs(), 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamTable(s, tbl); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(tbl, streamSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStrata() != plan.NumStrata() {
		t.Fatalf("stream found %d strata, plan %d", s.NumStrata(), plan.NumStrata())
	}
	// per-stratum statistics identical to the offline pass
	for id := 0; id < s.NumStrata(); id++ {
		pid, ok := plan.Index.ID(s.Key(id))
		if !ok {
			t.Fatalf("stream stratum %v unknown to plan", s.Key(id))
		}
		sg, pg := s.groups[id].Cols[0], plan.Collector.Group(pid).Cols[0]
		if sg.N != pg.N || math.Abs(sg.Mean-pg.Mean) > 1e-9 || math.Abs(sg.Variance()-pg.Variance()) > 1e-6 {
			t.Fatalf("stratum %v stream stats %+v vs plan %+v", s.Key(id), sg, pg)
		}
	}
}

// With a generous reservoir the one-pass allocation matches two-pass
// CVOPT exactly.
func TestStreamSamplerMatchesTwoPassAllocation(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	rng := rand.New(rand.NewSource(3))
	const m = 300
	s, err := NewStreamSampler(streamSpecs(), m, rng) // Cap = M >= any s_c
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamTable(s, tbl); err != nil {
		t.Fatal(err)
	}
	ss, err := s.Finalize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(tbl, streamSpecs())
	if err != nil {
		t.Fatal(err)
	}
	twoPass, err := plan.Allocate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalSampled() != SumInts(twoPass) {
		t.Fatalf("stream drew %d rows, two-pass %d", ss.TotalSampled(), SumInts(twoPass))
	}
	for id := 0; id < s.NumStrata(); id++ {
		pid, _ := plan.Index.ID(s.Key(id))
		if len(ss.Strata[id].Rows) != twoPass[pid] {
			t.Fatalf("stratum %v stream size %d vs two-pass %d", s.Key(id), len(ss.Strata[id].Rows), twoPass[pid])
		}
		if ss.Strata[id].PopulationN != plan.StratumSizes()[pid] {
			t.Fatalf("population mismatch")
		}
		// drawn rows belong to the right stratum
		for _, r := range ss.Strata[id].Rows {
			if int(plan.Index.RowID[r]) != pid {
				t.Fatalf("row %d drawn into wrong stratum", r)
			}
		}
	}
}

// With a tight reservoir the allocation is clipped at Cap and the budget
// is still fully spent (redistribution, not loss).
func TestStreamSamplerCapClipping(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	rng := rand.New(rand.NewSource(4))
	// total reservoir capacity is 60+60+60+50 = 230, so a budget of 200
	// is spendable while the high-CV strata still hit the cap
	const m, capSize = 200, 60
	s, err := NewStreamSampler(streamSpecs(), capSize, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamTable(s, tbl); err != nil {
		t.Fatal(err)
	}
	ss, err := s.Finalize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalSampled() != m {
		t.Fatalf("budget underused: %d of %d", ss.TotalSampled(), m)
	}
	for id := range ss.Strata {
		if len(ss.Strata[id].Rows) > capSize {
			t.Fatalf("stratum %d exceeded reservoir cap: %d", id, len(ss.Strata[id].Rows))
		}
		seen := map[int32]bool{}
		for _, r := range ss.Strata[id].Rows {
			if seen[r] {
				t.Fatalf("duplicate row %d in stream sample", r)
			}
			seen[r] = true
		}
	}
}

// End-to-end: the one-pass sample answers queries with accuracy in the
// same ballpark as the two-pass sample.
func TestStreamSamplerEstimates(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	rng := rand.New(rand.NewSource(5))
	const m = 400
	s, err := NewStreamSampler(streamSpecs(), m, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamTable(s, tbl); err != nil {
		t.Fatal(err)
	}
	ss, err := s.Finalize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, weights := RowWeights(ss)
	q, err := sqlparse.Parse("SELECT g, AVG(v) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := exec.Run(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := exec.RunWeighted(tbl, q, rows, weights)
	if err != nil {
		t.Fatal(err)
	}
	idx := approx.Index()
	for _, row := range exact.Rows {
		est, ok := idx[exec.KeyOf(row.Set, row.Key)]
		if !ok {
			t.Fatalf("group %v missing from stream sample answer", row.Key)
		}
		rel := math.Abs(est[0]-row.Aggs[0]) / math.Abs(row.Aggs[0])
		if rel > 0.35 {
			t.Fatalf("group %v error %v too high for m=400", row.Key, rel)
		}
	}
}

// Multiple group-bys through the stream path.
func TestStreamSamplerMultiQuery(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	rng := rand.New(rand.NewSource(6))
	qs := []QuerySpec{
		{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}},
		{GroupBy: []string{"h"}, Aggs: []AggColumn{{Column: "u"}}},
	}
	s, err := NewStreamSampler(qs, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.StratAttrs; len(got) != 2 {
		t.Fatalf("attrs = %v", got)
	}
	if got := s.AggColumns(); len(got) != 2 {
		t.Fatalf("agg cols = %v", got)
	}
	if err := StreamTable(s, tbl); err != nil {
		t.Fatal(err)
	}
	ss, err := s.Finalize(200, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalSampled() != 200 {
		t.Fatalf("sampled %d", ss.TotalSampled())
	}
	if s.NumStrata() != 8 {
		t.Fatalf("strata = %d want 8 (4 g-groups x 2 h-values)", s.NumStrata())
	}
}

// Incremental maintenance: after Finalize, more data may arrive and a
// later Finalize reflects it — new strata appear, statistics update.
func TestStreamSamplerIncrementalRefinalize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, err := NewStreamSampler(streamSpecs(), 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	tbl := streamRows(t, "early", 500, func(i int) float64 { return 100 + float64(i%7) })
	if err := s.Observe(tbl, 0, 500); err != nil {
		t.Fatal(err)
	}
	first, err := s.Finalize(40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Strata) != 1 {
		t.Fatalf("first finalize should see 1 stratum")
	}
	// a new group arrives later with large relative variance
	for i := 0; i < 100; i++ {
		if err := tbl.AppendRow("late", 10+8*rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Observe(tbl, 500, 600); err != nil {
		t.Fatal(err)
	}
	second, err := s.Finalize(40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Strata) != 2 {
		t.Fatalf("second finalize should see 2 strata")
	}
	if s.NumStrata() != 2 {
		t.Fatalf("NumStrata = %d", s.NumStrata())
	}
	// the noisy late group should dominate the allocation
	lateID := -1
	for id := 0; id < s.NumStrata(); id++ {
		if s.Key(id).String() == "late" {
			lateID = id
		}
	}
	if lateID < 0 {
		t.Fatalf("late stratum missing")
	}
	if len(second.Strata[lateID].Rows) < 20 {
		t.Fatalf("high-CV late group got %d of 40 rows", len(second.Strata[lateID].Rows))
	}
}

func TestStreamTableErrors(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	rng := rand.New(rand.NewSource(7))
	s, err := NewStreamSampler([]QuerySpec{{GroupBy: []string{"zz"}, Aggs: []AggColumn{{Column: "v"}}}}, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamTable(s, tbl); err == nil {
		t.Fatalf("want unknown attribute error")
	}
	s2, err := NewStreamSampler([]QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "zz"}}}}, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamTable(s2, tbl); err == nil {
		t.Fatalf("want unknown aggregate column error")
	}
}
