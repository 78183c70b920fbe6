package core

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
)

func TestSqrtAllocationClosedForm(t *testing.T) {
	alphas := []float64{4, 1, 9}
	got, err := SqrtAllocation(alphas, 60)
	if err != nil {
		t.Fatal(err)
	}
	// sqrt = 2,1,3, total 6 -> shares 20,10,30
	want := []float64{20, 10, 30}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("alloc[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestSqrtAllocationDegenerate(t *testing.T) {
	got, err := SqrtAllocation([]float64{0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 || got[1] != 5 {
		t.Fatalf("all-zero alphas should split evenly, got %v", got)
	}
	if _, err := SqrtAllocation([]float64{-1}, 10); err == nil {
		t.Fatalf("want error on negative alpha")
	}
	if _, err := SqrtAllocation([]float64{math.Inf(1)}, 10); err == nil {
		t.Fatalf("want error on infinite alpha")
	}
	if _, err := SqrtAllocation([]float64{math.NaN()}, 10); err == nil {
		t.Fatalf("want error on NaN alpha")
	}
	if _, err := SqrtAllocation([]float64{1}, -5); err == nil {
		t.Fatalf("want error on negative budget")
	}
	empty, err := SqrtAllocation(nil, 10)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty alphas should give empty allocation")
	}
}

// Lemma 1 optimality: the closed form minimizes Σ α_i/s_i among all
// positive allocations summing to M. Verify by random perturbation.
func TestSqrtAllocationIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	objective := func(alphas, s []float64) float64 {
		var o float64
		for i := range alphas {
			o += alphas[i] / s[i]
		}
		return o
	}
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(8)
		alphas := make([]float64, k)
		for i := range alphas {
			alphas[i] = rng.Float64()*100 + 0.1
		}
		const m = 1000.0
		opt, err := SqrtAllocation(alphas, m)
		if err != nil {
			t.Fatal(err)
		}
		base := objective(alphas, opt)
		for p := 0; p < 40; p++ {
			// random feasible perturbation: move mass between two strata
			perturbed := append([]float64(nil), opt...)
			i, j := rng.Intn(k), rng.Intn(k)
			if i == j {
				continue
			}
			d := rng.Float64() * perturbed[i] * 0.5
			perturbed[i] -= d
			perturbed[j] += d
			if objective(alphas, perturbed) < base-1e-9 {
				t.Fatalf("perturbation beat the closed form: %v < %v", objective(alphas, perturbed), base)
			}
		}
	}
}

// Property: allocation is scale-invariant in alphas and sums to M.
func TestQuickSqrtAllocationInvariants(t *testing.T) {
	f := func(raw []float64, scale8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		alphas := make([]float64, len(raw))
		for i, x := range raw {
			alphas[i] = math.Mod(math.Abs(x), 1e6) + 1e-3
		}
		const m = 500.0
		a, err := SqrtAllocation(alphas, m)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range a {
			if v < 0 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-m) > 1e-6*m {
			return false
		}
		// scaling all alphas by a constant leaves the allocation unchanged
		c := float64(scale8%9) + 2
		scaled := make([]float64, len(alphas))
		for i := range alphas {
			scaled[i] = alphas[i] * c
		}
		b, err := SqrtAllocation(scaled, m)
		if err != nil {
			return false
		}
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-6*(a[i]+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundAllocationBasic(t *testing.T) {
	real := []float64{2.6, 3.9, 3.5}
	caps := []int64{100, 100, 100}
	got, err := RoundAllocation(real, caps, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if SumInts(got) != 10 {
		t.Fatalf("sum = %d want 10 (%v)", SumInts(got), got)
	}
	// largest remainders get the leftover units: 2.6->3? floor 2,3,3 = 8,
	// remainders .6,.9,.5 -> +1 to idx1, +1 to idx0
	want := []int{3, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestRoundAllocationCapsAndRedistribution(t *testing.T) {
	// Stratum 0 wants 90 but only has 5 rows; surplus must flow to others.
	real := []float64{90, 5, 5}
	caps := []int64{5, 1000, 1000}
	got, err := RoundAllocation(real, caps, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("capped stratum got %d want 5", got[0])
	}
	if SumInts(got) != 100 {
		t.Fatalf("sum = %d want 100 (%v)", SumInts(got), got)
	}
	// the 85 surplus splits evenly between equal-share strata 1 and 2
	if math.Abs(float64(got[1]-got[2])) > 1 {
		t.Fatalf("surplus not split evenly: %v", got)
	}
}

func TestRoundAllocationBudgetExceedsPopulation(t *testing.T) {
	got, err := RoundAllocation([]float64{1, 1}, []int64{3, 4}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("budget >= population should take everything: %v", got)
	}
}

func TestRoundAllocationMinPerStratum(t *testing.T) {
	// Stratum 2 has tiny share but must still get one row.
	real := []float64{50, 49.999, 0.001}
	caps := []int64{1000, 1000, 10}
	got, err := RoundAllocation(real, caps, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] < 1 {
		t.Fatalf("min-per-stratum violated: %v", got)
	}
	if SumInts(got) != 100 {
		t.Fatalf("sum = %d (%v)", SumInts(got), got)
	}
	// disabled floor: zero share can stay zero
	got2, err := RoundAllocation(real, caps, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got2[2] != 0 {
		t.Fatalf("with floor disabled, zero-share stratum should stay 0: %v", got2)
	}
}

func TestRoundAllocationMinPerStratumInfeasible(t *testing.T) {
	// Budget 2 cannot give 1 to each of 3 strata; floor must not trigger.
	got, err := RoundAllocation([]float64{1, 1, 1}, []int64{10, 10, 10}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if SumInts(got) != 2 {
		t.Fatalf("sum = %d want 2", SumInts(got))
	}
}

func TestRoundAllocationErrors(t *testing.T) {
	if _, err := RoundAllocation([]float64{1}, []int64{1, 2}, 5, 0); err == nil {
		t.Fatalf("want length mismatch error")
	}
	if _, err := RoundAllocation([]float64{1}, []int64{-1}, 5, 0); err == nil {
		t.Fatalf("want negative cap error")
	}
	got, err := RoundAllocation(nil, nil, 5, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input should give empty output")
	}
	got, err = RoundAllocation([]float64{1}, []int64{5}, 0, 0)
	if err != nil || got[0] != 0 {
		t.Fatalf("zero budget should allocate nothing")
	}
}

// Property: rounding respects caps, budget and floor for arbitrary inputs.
func TestQuickRoundAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(n8 uint8, m16 uint16) bool {
		n := int(n8)%20 + 1
		m := int(m16) % 5000
		real := make([]float64, n)
		caps := make([]int64, n)
		var totalCap int64
		for i := range real {
			real[i] = rng.Float64() * 100
			caps[i] = int64(rng.Intn(500))
			totalCap += caps[i]
		}
		got, err := RoundAllocation(real, caps, m, 1)
		if err != nil {
			return false
		}
		sum := 0
		for i, v := range got {
			if v < 0 || int64(v) > caps[i] {
				return false
			}
			sum += v
		}
		if int64(m) >= totalCap {
			return int64(sum) == totalCap
		}
		return sum <= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCube(t *testing.T) {
	got := Cube([]string{"a", "b"})
	if len(got) != 3 {
		t.Fatalf("cube of 2 attrs should have 3 non-empty subsets, got %d", len(got))
	}
	// order: {a}, {b}, {a,b}
	if got[0][0] != "a" || got[1][0] != "b" || len(got[2]) != 2 {
		t.Fatalf("cube sets wrong: %v", got)
	}
	if Cube(nil) != nil {
		t.Fatalf("cube of nothing should be nil")
	}
	if len(Cube([]string{"x", "y", "z"})) != 7 {
		t.Fatalf("cube of 3 attrs should have 7 subsets")
	}
}

func TestCubeQueries(t *testing.T) {
	aggs := []AggColumn{{Column: "v"}}
	qs := CubeQueries([]string{"a", "b"}, aggs)
	if len(qs) != 3 {
		t.Fatalf("want 3 query specs, got %d", len(qs))
	}
	for _, q := range qs {
		if len(q.Aggs) != 1 || q.Aggs[0].Column != "v" {
			t.Fatalf("aggs not propagated: %+v", q)
		}
	}
}

func TestQuerySpecValidate(t *testing.T) {
	ok := QuerySpec{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v"}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []QuerySpec{
		{Aggs: []AggColumn{{Column: "v"}}},                                     // no group-by
		{GroupBy: []string{"g"}},                                               // no aggs
		{GroupBy: []string{"g", "g"}, Aggs: []AggColumn{{Column: "v"}}},        // dup attr
		{GroupBy: []string{"g"}, Aggs: []AggColumn{{}}},                        // empty column
		{GroupBy: []string{"g"}, Aggs: []AggColumn{{Column: "v", Weight: -1}}}, // negative weight
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestAggColumnWeightFor(t *testing.T) {
	a := AggColumn{Column: "v"}
	if a.weightFor("g") != 1 {
		t.Fatalf("default weight should be 1")
	}
	a.Weight = 3
	if a.weightFor("g") != 3 {
		t.Fatalf("base weight not used")
	}
	a.GroupWeights = map[string]float64{"g": 0.5}
	if a.weightFor("g") != 0.5 || a.weightFor("h") != 3 {
		t.Fatalf("group override wrong")
	}
}

func TestNormString(t *testing.T) {
	if L2.String() != "l2" || LInf.String() != "linf" || Lp.String() != "lp" {
		t.Fatalf("norm names wrong")
	}
	if Norm(9).String() == "" {
		t.Fatalf("unknown norm should render")
	}
}

func TestOptionsMinPerStratum(t *testing.T) {
	if (Options{}).minPerStratum() != 1 {
		t.Fatalf("default floor should be 1")
	}
	if (Options{MinPerStratum: -1}).minPerStratum() != 0 {
		t.Fatalf("negative disables floor")
	}
	if (Options{MinPerStratum: 3}).minPerStratum() != 3 {
		t.Fatalf("explicit floor ignored")
	}
}

// roundAllocationRef is RoundAllocation as first written: the same
// water-filling, largest-remainder rounding by a stable sort of every
// remainder (so ties go to the lower index), and a linear argmax scan per
// stolen row in the min-per-stratum repair. It is the oracle the
// selection and the heap-based repair must match bit for bit.
func roundAllocationRef(real []float64, caps []int64, m int, minPer int) []int {
	n := len(real)
	out := make([]int, n)
	if n == 0 || m <= 0 {
		return out
	}
	var totalCap int64
	for _, c := range caps {
		totalCap += c
	}
	if int64(m) >= totalCap {
		for i, c := range caps {
			out[i] = int(c)
		}
		return out
	}
	share := append([]float64(nil), real...)
	capped := make([]bool, n)
	budget := float64(m)
	for {
		var sumShare float64
		for i := range share {
			if !capped[i] {
				sumShare += share[i]
			}
		}
		if sumShare <= 0 {
			break
		}
		overflow := false
		scale := budget / sumShare
		for i := range share {
			if capped[i] {
				continue
			}
			if share[i]*scale >= float64(caps[i]) {
				capped[i] = true
				budget -= float64(caps[i])
				overflow = true
			}
		}
		if !overflow {
			for i := range share {
				if !capped[i] {
					share[i] *= scale
				} else {
					share[i] = float64(caps[i])
				}
			}
			break
		}
	}
	for i := range share {
		if capped[i] {
			share[i] = float64(caps[i])
		}
	}
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, 0, n)
	used := 0
	for i, s := range share {
		fl := math.Floor(s)
		if fl > float64(caps[i]) {
			fl = float64(caps[i])
		}
		out[i] = int(fl)
		used += out[i]
		rems = append(rems, rem{i, s - fl})
	}
	slices.SortStableFunc(rems, func(a, b rem) int { return cmp.Compare(b.f, a.f) })
	for _, r := range rems {
		if used >= m {
			break
		}
		if int64(out[r.i]) < caps[r.i] {
			out[r.i]++
			used++
		}
	}
	if used < m {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return share[order[a]] > share[order[b]] })
		for used < m {
			progress := false
			for _, i := range order {
				if used >= m {
					break
				}
				if int64(out[i]) < caps[i] {
					out[i]++
					used++
					progress = true
				}
			}
			if !progress {
				break
			}
		}
	}
	if minPer > 0 {
		var nonEmpty int
		for _, c := range caps {
			if c > 0 {
				nonEmpty++
			}
		}
		if m >= nonEmpty*minPer {
			for i := range out {
				want := minPer
				if int64(want) > caps[i] {
					want = int(caps[i])
				}
				for out[i] < want {
					j := richestAbove(out, caps, minPer)
					if j < 0 {
						break
					}
					out[j]--
					out[i]++
				}
			}
		}
	}
	return out
}

// richestAbove returns the index with the largest allocation strictly
// above minPer, the first such index on ties, or -1.
func richestAbove(out []int, caps []int64, minPer int) int {
	best, bestV := -1, minPer
	for i, v := range out {
		if v > bestV && caps[i] > 0 {
			best, bestV = i, v
		}
	}
	return best
}

// Differential: RoundAllocation equals the reference on small random
// inputs full of ties and zeros — real shares drawn from a handful of
// values, caps including 0, budgets from 0 to past Σcaps, floors 0–3.
func TestRoundAllocationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	shares := []float64{0, 0, 0.5, 1, 1, 2.25, 7}
	repaired := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		real := make([]float64, n)
		caps := make([]int64, n)
		var totalCap int64
		for i := range real {
			if rng.Intn(4) == 0 {
				real[i] = 10 * rng.Float64()
			} else {
				real[i] = shares[rng.Intn(len(shares))]
			}
			caps[i] = int64(rng.Intn(8))
			totalCap += caps[i]
		}
		m := rng.Intn(int(totalCap) + 6)
		minPer := rng.Intn(4)
		got, err := RoundAllocation(real, caps, m, minPer)
		if err != nil {
			t.Fatal(err)
		}
		if want := roundAllocationRef(real, caps, m, minPer); !slices.Equal(got, want) {
			t.Fatalf("trial %d: RoundAllocation(%v, %v, %d, %d) = %v, reference %v", trial, real, caps, m, minPer, got, want)
		}
		if !slices.Equal(got, roundAllocationRef(real, caps, m, 0)) {
			repaired++
		}
	}
	if repaired < 300 {
		t.Fatalf("only %d trials exercised the min-per-stratum repair", repaired)
	}
}

// Rows left after flooring go to the largest fractional parts, and among
// equal ones to the lower stratum index — however many strata tie, and
// also when every share is zero.
func TestRoundAllocationTiesLowestIndexFirst(t *testing.T) {
	// 25 strata at .75, 50 at .5, 25 at .25, summing to the budget: 200
	// rows floor, the .75s take 25 more and the first 25 .5s the rest
	const n = 100
	real := make([]float64, n)
	caps := make([]int64, n)
	want := make([]int, n)
	halves := 0
	for i := range real {
		caps[i] = 10
		real[i], want[i] = 2.5, 2
		switch i % 4 {
		case 0:
			real[i], want[i] = 2.75, 3
		case 3:
			real[i] = 2.25
		default:
			if halves < 25 {
				want[i] = 3
			}
			halves++
		}
	}
	got, err := RoundAllocation(real, caps, 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("RoundAllocation = %v, want %v", got, want)
	}

	// all-zero shares: every remainder ties at 0
	got, err = RoundAllocation(make([]float64, 50), slices.Repeat([]int64{3}, 50), 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(slices.Repeat([]int{1}, 20), make([]int, 30)...); !slices.Equal(got, want) {
		t.Fatalf("zero shares: RoundAllocation = %v, want %v", got, want)
	}
}

// openAQPlan is the paper_build workload of the end-to-end benchmark over
// a rows-row OpenAQ table: the monthly per-(country, parameter) series of
// value and the per-(country, parameter) summary of value and latitude.
func openAQPlan(tb testing.TB, rows int) *Plan {
	tb.Helper()
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: rows, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewPlan(tbl, []QuerySpec{
		{GroupBy: []string{"country", "parameter", "year", "month"}, Aggs: []AggColumn{{Column: "value"}}},
		{GroupBy: []string{"country", "parameter"}, Aggs: []AggColumn{{Column: "value"}, {Column: "latitude"}}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// Differential at plan scale: on the real ℓ2 shares of thousands of
// strata, over a budget sweep from 1 row to the whole table and floors
// 1–3, RoundAllocation equals the reference.
func TestRoundAllocationMatchesReferenceAtPlanScale(t *testing.T) {
	p := openAQPlan(t, 300_000)
	total := p.Table.NumRows()
	for m := 1; ; m = m*3/2 + 1 {
		m = min(m, total)
		real, err := powerAllocation(p.betas, float64(m), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for minPer := 1; minPer <= 3; minPer++ {
			got, err := RoundAllocation(real, p.caps, m, minPer)
			if err != nil {
				t.Fatal(err)
			}
			if want := roundAllocationRef(real, p.caps, m, minPer); !slices.Equal(got, want) {
				t.Fatalf("budget %d, floor %d: RoundAllocation differs from the reference", m, minPer)
			}
		}
		if m == total {
			break
		}
	}
}

// allocateRef is Allocate before β's roots were cached: every call raises
// β to its power afresh, and rounding sorts.
func allocateRef(st *strata, m int, opts Options) ([]int, error) {
	var real []float64
	var err error
	switch opts.Norm {
	case L2:
		real, err = powerAllocation(st.betas, float64(m), 0.5)
	case Lp:
		real, err = powerAllocation(st.betas, float64(m), opts.P/(opts.P+2))
	case LInf:
		real, err = st.infShares(m)
	}
	if err != nil {
		return nil, err
	}
	return roundAllocationRef(real, st.caps, m, opts.minPerStratum()), nil
}

// predictedCVsRef is the Section 4.1 walk before its terms were hoisted:
// every estimate looks up each member stratum's σ², n and its own weight
// afresh.
func predictedCVsRef(st *strata, alloc []int) []EstimateCV {
	var out []EstimateCV
	for qi, pr := range st.proj {
		for a, key := range pr.keys {
			na := float64(pr.stats[a].N())
			if na == 0 {
				continue
			}
			for _, ac := range st.Queries[qi].Aggs {
				pos := st.aggColPos[ac.Column]
				mu := pr.stats[a].Cols[pos].Mean
				var varY float64
				undefined := false
				for _, c := range pr.members[a] {
					sigma2 := st.groups[c].Cols[pos].Variance()
					if sigma2 == 0 {
						continue
					}
					s := float64(alloc[c])
					if s <= 0 {
						undefined = true
						break
					}
					n := float64(st.groups[c].N())
					varY += (n*n*sigma2/s - n*sigma2) / (na * na)
				}
				cv := math.Inf(1)
				switch {
				case undefined:
				case mu == 0 && varY == 0:
					cv = 0
				case mu != 0:
					cv = math.Sqrt(math.Max(varY, 0)) / math.Abs(mu)
				}
				out = append(out, EstimateCV{Query: qi, Group: key.String(), Column: ac.Column, CV: cv, Weight: ac.weightFor(key.String())})
			}
		}
	}
	return out
}

// An autoscale probe is what it was before its shares were cached, its
// rounding stopped sorting and its variance terms were hoisted: over a
// budget sweep of the paper_build plan under ℓ2, ℓp, a floor of 2 and
// (single query) ℓ∞, Allocate equals the sort-based reference and
// WorstCV and PredictedCVs equal the member walk bit for bit; and
// Autoscale chooses the budgets, with the evaluations and CV bits,
// recorded before any of the three.
func TestAutoscaleProbeMatchesReferencesAtPlanScale(t *testing.T) {
	p := openAQPlan(t, 300_000)
	single, err := NewPlan(p.Table, p.Queries[:1])
	if err != nil {
		t.Fatal(err)
	}
	total := p.Table.NumRows()
	for _, c := range []struct {
		p    *Plan
		opts Options
	}{{p, Options{}}, {p, Options{Norm: Lp, P: 3}}, {p, Options{MinPerStratum: 2}}, {single, Options{Norm: LInf}}} {
		for m := 1; ; m = 2*m + 1 {
			m = min(m, total)
			got, err := c.p.Allocate(m, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := allocateRef(&c.p.strata, m, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, budget %d: Allocate differs from the reference", c.opts, m)
			}
			ref := predictedCVsRef(&c.p.strata, got)
			worst := 0.0
			for _, e := range ref {
				if e.Weight > 0 {
					worst = max(worst, e.CV)
				}
			}
			if w := c.p.WorstCV(got); math.Float64bits(w) != math.Float64bits(worst) {
				t.Fatalf("%+v, budget %d: WorstCV %v, reference %v", c.opts, m, w, worst)
			}
			cvs := c.p.PredictedCVs(got)
			if len(cvs) != len(ref) {
				t.Fatalf("%+v, budget %d: %d estimates, reference %d", c.opts, m, len(cvs), len(ref))
			}
			for i, e := range cvs {
				r := ref[i]
				if e.Query != r.Query || e.Group != r.Group || e.Column != r.Column ||
					math.Float64bits(e.CV) != math.Float64bits(r.CV) || math.Float64bits(e.Weight) != math.Float64bits(r.Weight) {
					t.Fatalf("%+v, budget %d, estimate %d: %+v, reference %+v", c.opts, m, i, e, r)
				}
			}
			if m == total {
				break
			}
		}
	}

	for _, pin := range []struct {
		target        float64
		budget, evals int
		cv            uint64
	}{
		{0.05, 236137, 36, 0x3fa99890ea0b1dec},
		{0.1, 195487, 36, 0x3fb96ce80ebabe91},
		{0.2, 132187, 36, 0x3fc9319c2177f7ee},
		{0.205, 128646, 34, 0x3fca09068333ede6},
		{0.21, 126706, 34, 0x3fca7945c208c74f},
		{0.5, 58385, 32, 0x3fdfd029b266e2f7},
	} {
		res, err := p.Autoscale(AutoscaleParams{TargetCV: pin.target})
		if err != nil {
			t.Fatal(err)
		}
		if res.Budget != pin.budget || res.Evaluations != pin.evals || math.Float64bits(res.AchievedCV) != pin.cv || !res.Met {
			t.Fatalf("target %v: budget %d in %d evaluations, CV bits %#x, met %v; want %d in %d, %#x, met",
				pin.target, res.Budget, res.Evaluations, math.Float64bits(res.AchievedCV), res.Met, pin.budget, pin.evals, pin.cv)
		}
	}
}
