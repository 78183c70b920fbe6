package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/table"
)

// buildTable constructs a table with controlled per-group distributions:
// each spec gives (group value, n, mean, sd) and rows get value =
// mean + sd*z with deterministic pseudo-noise.
type groupSpec struct {
	key  string
	n    int
	mean float64
	sd   float64
}

func makeTable(t testing.TB, specs []groupSpec) *table.Table {
	t.Helper()
	tbl := table.New("t", table.Schema{
		{Name: "g", Kind: table.String},
		{Name: "h", Kind: table.String},
		{Name: "v", Kind: table.Float},
		{Name: "u", Kind: table.Float},
	})
	rng := rand.New(rand.NewSource(99))
	for _, s := range specs {
		for i := 0; i < s.n; i++ {
			v := s.mean + s.sd*rng.NormFloat64()
			u := 2*s.mean + 0.5*s.sd*rng.NormFloat64()
			h := "h" + string(rune('0'+i%2))
			if err := tbl.AppendRow(s.key, h, v, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl
}

func defaultSpecs() []groupSpec {
	return []groupSpec{
		{"a", 1000, 100, 50},
		{"b", 1000, 100, 5},
		{"c", 200, 10, 8},
		{"d", 50, 500, 100},
	}
}

// ampleSpecs gives every group enough rows that population caps never
// bind, so integer allocations can be compared against the uncapped
// closed forms of Theorems 1 and 2.
func ampleSpecs() []groupSpec {
	return []groupSpec{
		{"a", 5000, 100, 50},
		{"b", 5000, 100, 5},
		{"c", 5000, 10, 8},
		{"d", 5000, 500, 100},
	}
}

func TestNewPlanErrors(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	if _, err := NewPlan(nil, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}}); err == nil {
		t.Fatalf("want nil table error")
	}
	if _, err := NewPlan(tbl, nil); err == nil {
		t.Fatalf("want no-queries error")
	}
	if _, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}}}); err == nil {
		t.Fatalf("want invalid-spec error")
	}
	if _, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "zz"}}}}); err == nil {
		t.Fatalf("want unknown-column error")
	}
	if _, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "g"}}}}); err == nil {
		t.Fatalf("want string-aggregate error")
	}
	if _, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"zz"}, Aggs: []AggColumn{{Column: "v"}}}}); err == nil {
		t.Fatalf("want unknown group-by attribute error")
	}
}

func TestPlanStatsPass(t *testing.T) {
	specs := defaultSpecs()
	tbl := makeTable(t, specs)
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStrata() != 4 {
		t.Fatalf("strata = %d want 4", p.NumStrata())
	}
	sizes := p.StratumSizes()
	for _, s := range specs {
		id, ok := p.Index.ID(table.GroupKey{s.key})
		if !ok {
			t.Fatalf("group %s missing", s.key)
		}
		if sizes[id] != int64(s.n) {
			t.Fatalf("group %s size %d want %d", s.key, sizes[id], s.n)
		}
		g := p.Collector.Group(id)
		if math.Abs(g.Cols[0].Mean-s.mean) > 5*s.sd/math.Sqrt(float64(s.n)) {
			t.Fatalf("group %s mean %v far from %v", s.key, g.Cols[0].Mean, s.mean)
		}
	}
	if got := p.AggColumns(); len(got) != 1 || got[0] != "v" {
		t.Fatalf("agg columns = %v", got)
	}
}

// Theorem 1: SASG allocation proportional to sqrt(w)·σ/µ.
func TestAllocateSASGMatchesTheorem1(t *testing.T) {
	specs := ampleSpecs()
	tbl := makeTable(t, specs)
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	const m = 500
	alloc, err := p.Allocate(m, Options{Norm: L2, MinPerStratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	if SumInts(alloc) != m {
		t.Fatalf("allocation sums to %d want %d", SumInts(alloc), m)
	}
	// compute expected shares from measured per-group stats
	var gamma []float64
	var gammaSum float64
	for c := 0; c < p.NumStrata(); c++ {
		g := p.Collector.Group(c).Cols[0]
		gi := g.StdDev() / g.Mean
		gamma = append(gamma, gi)
		gammaSum += gi
	}
	for c := 0; c < p.NumStrata(); c++ {
		want := float64(m) * gamma[c] / gammaSum
		if math.Abs(float64(alloc[c])-want) > math.Max(2, 0.02*want) {
			t.Fatalf("stratum %d alloc %d want ~%.1f", c, alloc[c], want)
		}
	}
	// group a (σ/µ=0.5) should receive 10x group b (σ/µ=0.05)
	ida, _ := p.Index.ID(table.GroupKey{"a"})
	idb, _ := p.Index.ID(table.GroupKey{"b"})
	ratio := float64(alloc[ida]) / float64(alloc[idb])
	if ratio < 7 || ratio > 13 {
		t.Fatalf("a:b allocation ratio %v, want ~10", ratio)
	}
}

// Theorem 2: MASG allocation proportional to sqrt(Σ_j w_j σ_j²/µ_j²).
func TestAllocateMASGMatchesTheorem2(t *testing.T) {
	tbl := makeTable(t, ampleSpecs())
	q := QuerySpec{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}, {Column: "u"}}}
	p, err := NewPlan(tbl, []QuerySpec{q})
	if err != nil {
		t.Fatal(err)
	}
	const m = 600
	alloc, err := p.Allocate(m, Options{MinPerStratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	var alphas []float64
	var sqrtSum float64
	for c := 0; c < p.NumStrata(); c++ {
		var a float64
		for j := 0; j < 2; j++ {
			col := p.Collector.Group(c).Cols[j]
			cv := col.StdDev() / col.Mean
			a += cv * cv
		}
		alphas = append(alphas, a)
		sqrtSum += math.Sqrt(a)
	}
	for c := 0; c < p.NumStrata(); c++ {
		want := float64(m) * math.Sqrt(alphas[c]) / sqrtSum
		if math.Abs(float64(alloc[c])-want) > math.Max(2, 0.02*want) {
			t.Fatalf("stratum %d alloc %d want ~%.1f", c, alloc[c], want)
		}
	}
}

// Weights shift allocation: doubling the weight of one group must not
// decrease its allocation, and must increase it when others stay fixed.
func TestAllocateWeightMonotonicity(t *testing.T) {
	tbl := makeTable(t, ampleSpecs())
	base := QuerySpec{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}
	p, err := NewPlan(tbl, []QuerySpec{base})
	if err != nil {
		t.Fatal(err)
	}
	a0, err := p.Allocate(400, Options{MinPerStratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	boosted := QuerySpec{GroupBy: []string{"g"}, Aggs: []AggColumn{{
		Column: "v", Weight: 1, GroupWeights: map[string]float64{"c": 16},
	}}}
	p2, err := NewPlan(tbl, []QuerySpec{boosted})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p2.Allocate(400, Options{MinPerStratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	idc, _ := p.Index.ID(table.GroupKey{"c"})
	if a1[idc] <= a0[idc] {
		t.Fatalf("16x weight on group c should increase its allocation: %d -> %d", a0[idc], a1[idc])
	}
	// Expected ratio from Theorem 1: boosting w_c by 16 multiplies γ_c by
	// 4 but also grows the normalizer, so the share ratio is
	// (4γ_c/(Σγ+3γ_c)) / (γ_c/Σγ).
	var gammaSum, gammaC float64
	for c := 0; c < p.NumStrata(); c++ {
		g := p.Collector.Group(c).Cols[0]
		gamma := g.StdDev() / g.Mean
		gammaSum += gamma
		if c == idc {
			gammaC = gamma
		}
	}
	wantRatio := (4 * gammaC / (gammaSum + 3*gammaC)) / (gammaC / gammaSum)
	ratio := float64(a1[idc]) / float64(a0[idc])
	if math.Abs(ratio-wantRatio) > 0.15*wantRatio {
		t.Fatalf("allocation boost ratio %v, want ~%v", ratio, wantRatio)
	}
}

// The integer L2 allocation should (near-)minimize the exact objective:
// no single-unit transfer between strata may improve it.
func TestAllocateL2LocalOptimality(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := p.Allocate(300, Options{MinPerStratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := p.ObjectiveL2(alloc)
	nc := p.StratumSizes()
	for i := range alloc {
		for j := range alloc {
			if i == j || alloc[i] <= 1 || int64(alloc[j]+1) > nc[j] {
				continue
			}
			moved := append([]int(nil), alloc...)
			moved[i]--
			moved[j]++
			if p.ObjectiveL2(moved) < base*(1-1e-9) {
				t.Fatalf("transfer %d->%d improves objective: %v < %v", i, j, p.ObjectiveL2(moved), base)
			}
		}
	}
}

// SAMG (Lemma 2): two queries with different group-bys; the allocation
// must use the finest stratification of both.
func TestAllocateSAMG(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	qs := []QuerySpec{
		{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}},
		{GroupBy: []string{"h"}, Aggs: []AggColumn{{Column: "v"}}},
	}
	p, err := NewPlan(tbl, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.StratAttrs) != 2 {
		t.Fatalf("stratification attrs = %v, want union {g,h}", p.StratAttrs)
	}
	// strata = (g,h) combinations: 4 groups x 2 h-values = 8
	if p.NumStrata() != 8 {
		t.Fatalf("strata = %d want 8", p.NumStrata())
	}
	alloc, err := p.Allocate(400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if SumInts(alloc) != 400 {
		t.Fatalf("sum = %d", SumInts(alloc))
	}
	// Lemma-2 level check: allocation is locally optimal for the joint
	// objective.
	base := p.ObjectiveL2(alloc)
	nc := p.StratumSizes()
	for i := range alloc {
		for j := range alloc {
			if i == j || alloc[i] <= 1 || int64(alloc[j]+1) > nc[j] {
				continue
			}
			moved := append([]int(nil), alloc...)
			moved[i]--
			moved[j]++
			if p.ObjectiveL2(moved) < base*(1-1e-9) {
				t.Fatalf("transfer improves SAMG objective")
			}
		}
	}
	keys, coarse, _ := p.CoarseGroups(0)
	if len(keys) != 4 || len(coarse) != 4 {
		t.Fatalf("query 0 coarse groups = %d want 4", len(keys))
	}
}

// MAMG (Lemma 3): different aggregates on different group-bys.
func TestAllocateMAMG(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	qs := []QuerySpec{
		{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}},
		{GroupBy: []string{"h"}, Aggs: []AggColumn{{Column: "u"}}},
	}
	p, err := NewPlan(tbl, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.AggColumns(); len(got) != 2 {
		t.Fatalf("agg columns = %v", got)
	}
	alloc, err := p.Allocate(500, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if SumInts(alloc) != 500 {
		t.Fatalf("sum = %d", SumInts(alloc))
	}
}

func TestAllocateLp(t *testing.T) {
	tbl := makeTable(t, ampleSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(100, Options{Norm: Lp, P: 0.5}); err == nil {
		t.Fatalf("want error for P < 1")
	}
	a2, err := p.Allocate(300, Options{Norm: Lp, P: 2, MinPerStratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := p.Allocate(300, Options{Norm: L2, MinPerStratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a2 {
		if d := a2[i] - l2[i]; d < -1 || d > 1 {
			t.Fatalf("Lp with p=2 should match L2: %v vs %v", a2, l2)
		}
	}
	// higher p concentrates budget on the worst-CV group (group c has
	// σ/µ = 0.8, the largest)
	a8, err := p.Allocate(300, Options{Norm: Lp, P: 8, MinPerStratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	idc, _ := p.Index.ID(table.GroupKey{"c"})
	if a8[idc] < a2[idc] {
		t.Fatalf("p=8 should give the worst-CV group at least as much as p=2: %d vs %d", a8[idc], a2[idc])
	}
}

func TestAllocateBadInputs(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(0, Options{}); err == nil {
		t.Fatalf("want error for zero budget")
	}
	if _, err := p.Allocate(10, Options{Norm: Norm(77)}); err == nil {
		t.Fatalf("want error for unknown norm")
	}
}

func TestZeroMeanGroupRejected(t *testing.T) {
	tbl := table.New("t", table.Schema{{Name: "g", Kind: table.String}, {Name: "v", Kind: table.Float}})
	// two values whose Welford mean is exactly zero
	if err := tbl.AppendRow("z", 5.0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow("z", -5.0); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(5, Options{}); err == nil || !strings.Contains(err.Error(), "zero mean") {
		t.Fatalf("want zero-mean error, got %v", err)
	}
	if _, err := p.Allocate(5, Options{Norm: LInf}); err == nil {
		t.Fatalf("INF should also reject zero-mean groups")
	}
}

func TestZeroVarianceGroupGetsMinimalSample(t *testing.T) {
	tbl := table.New("t", table.Schema{{Name: "g", Kind: table.String}, {Name: "v", Kind: table.Float}})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		if err := tbl.AppendRow("noisy", 100+rng.NormFloat64()*30); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := tbl.AppendRow("const", 7.0); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := p.Allocate(50, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idc, _ := p.Index.ID(table.GroupKey{"const"})
	if alloc[idc] < 1 {
		t.Fatalf("constant group should still get its representative row, got %d", alloc[idc])
	}
	idn, _ := p.Index.ID(table.GroupKey{"noisy"})
	if alloc[idn] < 45 {
		t.Fatalf("noisy group should receive nearly the whole budget, got %d", alloc[idn])
	}
}

func TestSampleDrawsAllocation(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	ss, sizes, err := p.Sample(200, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalSampled() != SumInts(sizes) {
		t.Fatalf("sample has %d rows, allocation says %d", ss.TotalSampled(), SumInts(sizes))
	}
	for c, st := range ss.Strata {
		if len(st.Rows) != sizes[c] {
			t.Fatalf("stratum %d drew %d want %d", c, len(st.Rows), sizes[c])
		}
		for _, r := range st.Rows {
			if int(p.Index.RowID[r]) != c {
				t.Fatalf("row %d drawn into wrong stratum", r)
			}
		}
	}
	// weights: each row's weight is n_c/s_c
	rows, weights := RowWeights(ss)
	if len(rows) != ss.TotalSampled() || len(weights) != len(rows) {
		t.Fatalf("weights shape wrong")
	}
	var est float64
	for _, w := range weights {
		est += w
	}
	if math.Abs(est-float64(tbl.NumRows())) > 1e-6*float64(tbl.NumRows()) {
		t.Fatalf("weighted count = %v want %d", est, tbl.NumRows())
	}
}

func TestDescribeAllocation(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := p.Allocate(100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.DescribeAllocation(alloc)
	if !strings.Contains(s, "4 strata") || !strings.Contains(s, "a") {
		t.Fatalf("description missing content:\n%s", s)
	}
}

func TestObjectiveInfinityOnMissingStratum(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	alloc := []int{10, 10, 0, 10} // one stratum unsampled
	if !math.IsInf(p.ObjectiveL2(alloc), 1) {
		t.Fatalf("objective should be +Inf when a noisy stratum has no samples")
	}
	if !math.IsInf(p.ObjectiveLInf(alloc), 1) {
		t.Fatalf("linf objective should be +Inf too")
	}
}
