package core

// Plan and StreamSampler are two feeders of one strata model: these
// tests pin that they agree on what a stratum is and on everything the
// solver computes, and that a stream's guarantee describes the sample
// its reservoirs can actually supply.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/table"
)

func relClose(a, b float64) bool {
	if a == b { // covers +Inf == +Inf
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// streamOf feeds p's table through a fresh sampler of the given capacity.
func streamOf(t *testing.T, p *Plan, capacity int) *StreamSampler {
	t.Helper()
	s, err := NewStreamSampler(p.Queries, capacity, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamTable(s, p.Table); err != nil {
		t.Fatal(err)
	}
	return s
}

// Values containing the "|" GroupKey.String() joins with must not merge
// strata on either path (the stream used to key strata by that string).
func TestPlanAndStreamAgreeOnStratumIdentity(t *testing.T) {
	tbl := table.New("t", table.Schema{
		{Name: "a", Kind: table.String}, {Name: "b", Kind: table.String}, {Name: "v", Kind: table.Float},
	})
	for i := 0; i < 10; i++ {
		if err := tbl.AppendRow("x|y", "z", float64(1+i)); err != nil {
			t.Fatal(err)
		}
		if err := tbl.AppendRow("x", "y|z", float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPlan(tbl, []QuerySpec{{GroupBy: []string{"a", "b"}, Aggs: []AggColumn{{Column: "v"}}}})
	if err != nil {
		t.Fatal(err)
	}
	s := streamOf(t, p, 100)
	if p.NumStrata() != 2 || s.NumStrata() != p.NumStrata() {
		t.Fatalf("plan found %d strata, stream %d, want 2 and 2", p.NumStrata(), s.NumStrata())
	}
	for c := 0; c < 2; c++ {
		if !slices.Equal(s.Key(c), p.Index.Key(c)) {
			t.Fatalf("stratum %d: stream key %q, plan key %q", c, s.Key(c), p.Index.Key(c))
		}
	}
}

// ℓ∞ is the model's, so a single-query stream finalizes under it, and
// with reservoirs that hold every row it allocates exactly as the plan.
func TestStreamFinalizesUnderLInf(t *testing.T) {
	tbl := makeTable(t, defaultSpecs())
	p, err := NewPlan(tbl, streamSpecs())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Norm: LInf}
	s := streamOf(t, p, tbl.NumRows())
	for _, m := range []int{20, 150, 600} {
		want, err := p.Allocate(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Allocate(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("m=%d: stream allocates %v, plan %v", m, got, want)
		}
		ss, err := s.Finalize(m, opts)
		if err != nil {
			t.Fatalf("m=%d: finalize under linf: %v", m, err)
		}
		for c := range ss.Strata {
			if len(ss.Strata[c].Rows) != want[c] {
				t.Fatalf("m=%d stratum %d: drew %d rows, allocation says %d", m, c, len(ss.Strata[c].Rows), want[c])
			}
		}
	}
	multi := []QuerySpec{streamSpecs()[0], {GroupBy: []string{"h"}, Aggs: []AggColumn{{Column: "u"}}}}
	mp, err := NewPlan(tbl, multi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamOf(t, mp, 50).Finalize(20, opts); err == nil {
		t.Fatal("CVOPT-INF over two queries must be rejected on a stream exactly as on a plan")
	}
}

// One solver: over randomized tables, workloads and norms, a stream whose
// reservoirs hold every row returns the plan's Allocate, PredictedCVs
// and Autoscale; and when the reservoirs bind, Autoscale only ever
// promises what Finalize then draws.
func TestStreamSolverIsThePlanSolver(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 50
	}
	rng := rand.New(rand.NewSource(7))
	norms := []Options{{}, {Norm: LInf}, {Norm: Lp, P: 3}, {MinPerStratum: -1}}
	for trial := 0; trial < trials; trial++ {
		p := randomPlanCase(t, rng)
		opts := norms[rng.Intn(len(norms))]
		if opts.Norm == LInf && len(p.Queries) > 1 {
			opts = Options{}
		}
		target := math.Exp(math.Log(0.003) + rng.Float64()*math.Log(100))
		params := AutoscaleParams{TargetCV: target, Step: 1 + rng.Intn(3), Opts: opts}

		// capacity ≥ max n_c: nothing is clipped, everything agrees
		s := streamOf(t, p, p.Table.NumRows())
		if s.NumStrata() != p.NumStrata() {
			t.Fatalf("trial %d: %d stream strata vs %d", trial, s.NumStrata(), p.NumStrata())
		}
		m := 1 + rng.Intn(p.Table.NumRows())
		want, err := p.Allocate(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Allocate(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d m=%d: stream allocates %v, plan %v", trial, m, got, want)
		}
		pcv, scv := p.PredictedCVs(want), s.PredictedCVs(want)
		if len(pcv) != len(scv) {
			t.Fatalf("trial %d: %d vs %d estimates", trial, len(scv), len(pcv))
		}
		for i := range pcv {
			if pcv[i].Group != scv[i].Group || pcv[i].Column != scv[i].Column || !relClose(pcv[i].CV, scv[i].CV) {
				t.Fatalf("trial %d estimate %d: stream %+v, plan %+v", trial, i, scv[i], pcv[i])
			}
		}
		pres, err := p.Autoscale(params)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := s.Autoscale(params)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Budget != pres.Budget || sres.Met != pres.Met || sres.Evaluations != pres.Evaluations || !relClose(sres.AchievedCV, pres.AchievedCV) {
			t.Fatalf("trial %d: stream autoscale %+v, plan %+v", trial, sres, pres)
		}

		// a capacity that binds: the promise is about the drawn sample
		capacity := 1 + rng.Intn(6)
		s = streamOf(t, p, capacity)
		res, err := s.Autoscale(params)
		if err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, n := range p.StratumSizes() {
			held += min(int(n), capacity)
		}
		if res.Budget > held {
			t.Fatalf("trial %d: budget %d exceeds the %d rows the reservoirs hold", trial, res.Budget, held)
		}
		ss, err := s.Finalize(res.Budget, opts)
		if err != nil {
			t.Fatal(err)
		}
		drawn := make([]int, len(ss.Strata))
		for c := range ss.Strata {
			drawn[c] = len(ss.Strata[c].Rows)
		}
		if ss.TotalSampled() != res.Budget {
			t.Fatalf("trial %d: autoscale chose %d rows, finalize drew %d", trial, res.Budget, ss.TotalSampled())
		}
		// judged by the independent two-pass plan, the drawn allocation
		// delivers exactly the CV the stream reported
		if honest := p.WorstCV(drawn); !relClose(honest, res.AchievedCV) || res.Met != (honest <= target) {
			t.Fatalf("trial %d cap %d: reported %+v, drawn sample's worst CV %v (target %v)", trial, capacity, res, honest, target)
		}
	}
}

// WorstCV walks the same estimates PredictedCVs reports: over random
// tables, workloads and norms, with default, explicit and zero weights,
// it equals their largest CV among positive weights bit for bit — and
// allocates nothing.
func TestWorstCVMatchesPredictedCVs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	norms := []Options{{}, {Norm: LInf}, {Norm: Lp, P: 3}}
	for trial := 0; trial < 300; trial++ {
		base := randomPlanCase(t, rng)
		queries := slices.Clone(base.Queries)
		for qi := range queries {
			attr := queries[qi].GroupBy[0]
			aggs := slices.Clone(queries[qi].Aggs)
			for k := range aggs {
				aggs[k].Weight = []float64{0, 0.5, 3}[rng.Intn(3)]
				aggs[k].GroupWeights = map[string]float64{attr + "0": 0, attr + "1": 2 + rng.Float64()}
			}
			queries[qi].Aggs = aggs
		}
		p, err := NewPlan(base.Table, queries)
		if err != nil {
			t.Fatal(err)
		}
		opts := norms[rng.Intn(len(norms))]
		if opts.Norm == LInf && len(queries) > 1 {
			opts = Options{}
		}
		alloc, err := p.Allocate(1+rng.Intn(p.Table.NumRows()), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, e := range p.PredictedCVs(alloc) {
			if e.Weight > 0 {
				want = max(want, e.CV)
			}
		}
		if got := p.WorstCV(alloc); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: WorstCV %v, max over PredictedCVs %v", trial, got, want)
		}
		if n := testing.AllocsPerRun(5, func() { p.WorstCV(alloc) }); n != 0 {
			t.Fatalf("trial %d: WorstCV allocates %v times", trial, n)
		}
	}
}

// A Plan is read-only after NewPlan: every read path, run from many
// goroutines at once on one shared Plan, returns what a sequential run
// does (and `go test -race` sees no write).
func TestPlanIsSafeToShare(t *testing.T) {
	p := randomPlanCase(t, rand.New(rand.NewSource(32)))
	type outcome struct {
		betas []float64
		alloc []int
		cvs   []EstimateCV
		auto  *AutoscaleResult
	}
	run := func() (o outcome, err error) {
		if o.betas, err = p.Betas(); err != nil {
			return o, err
		}
		if o.alloc, err = p.Allocate(p.Table.NumRows()/3, Options{}); err != nil {
			return o, err
		}
		o.cvs = p.PredictedCVs(o.alloc)
		o.auto, err = p.Autoscale(AutoscaleParams{TargetCV: 0.05})
		return o, err
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]outcome, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("goroutine %d disagrees with the sequential run", i)
		}
	}
}

// No cache is filled on first use: four goroutines probing a Plan that no
// call has touched since NewPlan agree, and `go test -race` sees no
// write. TestPlanIsSafeToShare warms its Plan with a sequential run
// first, so it cannot see a lazily filled cache.
func TestFreshPlanIsSafeToShare(t *testing.T) {
	p := openAQPlan(t, 50_000)
	type outcome struct {
		l2, lp []int
		auto   *AutoscaleResult
	}
	got := make([]outcome, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &got[i]
			if o.l2, errs[i] = p.Allocate(5_000, Options{}); errs[i] != nil {
				return
			}
			if o.lp, errs[i] = p.Allocate(5_000, Options{Norm: Lp, P: 3}); errs[i] != nil {
				return
			}
			o.auto, errs[i] = p.Autoscale(AutoscaleParams{TargetCV: 0.2})
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Fatalf("goroutine %d disagrees with goroutine 0", i)
		}
	}
}

// The hoisted variance terms belong to the projections too: a stream that
// observes more rows between two Autoscale calls searches, and predicts,
// over the new statistics, exactly as a fresh sampler over the same rows.
func TestStreamRebuildsHoistedTermsBetweenAutoscales(t *testing.T) {
	p := randomPlanCase(t, rand.New(rand.NewSource(34)))
	n := p.Table.NumRows()
	s, err := NewStreamSampler(p.Queries, 1000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	params := AutoscaleParams{TargetCV: 0.05}
	if err := s.Observe(p.Table, 0, n/2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Autoscale(params); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(p.Table, n/2, n); err != nil {
		t.Fatal(err)
	}
	fresh := streamOf(t, p, 1000)
	got, err := s.Autoscale(params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Autoscale(params)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("autoscale after more rows %+v, fresh sampler %+v", got, want)
	}
	alloc, err := fresh.Allocate(want.Budget, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.PredictedCVs(alloc), fresh.PredictedCVs(alloc)) {
		t.Fatal("predicted CVs after more rows differ from a fresh sampler's")
	}
}

// The cached β belongs to the projections: rows a StreamSampler observes
// after a Finalize re-derive it, so the next Finalize allocates exactly
// as a fresh sampler over the same rows does.
func TestStreamRederivesBetasAfterFinalize(t *testing.T) {
	p := randomPlanCase(t, rand.New(rand.NewSource(33)))
	n := p.Table.NumRows()
	s, err := NewStreamSampler(p.Queries, 1000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(p.Table, 0, n/2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(n/10, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(p.Table, n/2, n); err != nil {
		t.Fatal(err)
	}
	fresh := streamOf(t, p, 1000)
	got, err := s.Betas()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Betas()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("β after more rows %v, fresh sampler %v", got, want)
	}
	ss, err := s.Finalize(n/10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fresh.Finalize(n/10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range fs.Strata {
		if len(ss.Strata[c].Rows) != len(fs.Strata[c].Rows) {
			t.Fatalf("stratum %d: %d rows drawn, fresh sampler draws %d", c, len(ss.Strata[c].Rows), len(fs.Strata[c].Rows))
		}
	}
}
