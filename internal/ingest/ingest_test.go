package ingest_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/samplers"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

func salesSchema() table.Schema {
	return table.Schema{
		{Name: "region", Kind: table.String},
		{Name: "amount", Kind: table.Float},
		{Name: "qty", Kind: table.Int},
	}
}

// seedTable builds a deterministic skewed table of n rows.
func seedTable(t testing.TB, n int) *table.Table {
	t.Helper()
	tbl := table.New("sales", salesSchema())
	tbl.Grow(n)
	for _, row := range rowBatch(0, n) {
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// rowBatch generates rows [start, start+n) of the same deterministic
// skewed distribution: NA dominates, EU is mid-sized, APAC is tiny and
// high-variance.
func rowBatch(start, n int) [][]any {
	rows := make([][]any, 0, n)
	for i := start; i < start+n; i++ {
		var region string
		var base float64
		switch {
		case i%20 == 0:
			region, base = "APAC", 300
		case i%20 < 5:
			region, base = "EU", 80
		default:
			region, base = "NA", 100
		}
		rows = append(rows, []any{region, base + float64(i%23) - 11, int64(1 + i%5)})
	}
	return rows
}

func salesQueries() []core.QuerySpec {
	return []core.QuerySpec{{
		GroupBy: []string{"region"},
		Aggs:    []core.AggColumn{{Column: "amount"}},
	}}
}

// collectPubs wires a publish callback into a slice (serialized by the
// stream's own mutex, per the New contract).
type collectPubs struct {
	mu   sync.Mutex
	pubs []*ingest.Publication
}

func (c *collectPubs) publish(p *ingest.Publication) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pubs = append(c.pubs, p)
}

func (c *collectPubs) snapshot() []*ingest.Publication {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*ingest.Publication(nil), c.pubs...)
}

func TestNewPublishesSeedGeneration(t *testing.T) {
	var pubs collectPubs
	s, err := ingest.New(seedTable(t, 2000), ingest.Config{
		Queries: salesQueries(),
		Budget:  200,
		Seed:    7,
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := pubs.snapshot()
	if len(got) != 1 {
		t.Fatalf("got %d publications, want 1", len(got))
	}
	p := got[0]
	if p.Generation != 1 || p.Rows != 2000 || p.Sample == nil || p.Sample.Len() == 0 {
		t.Fatalf("seed publication: gen=%d rows=%d sample=%v", p.Generation, p.Rows, p.Sample)
	}
	if p.Snapshot.NumRows() != 2000 {
		t.Fatalf("snapshot rows = %d", p.Snapshot.NumRows())
	}
	if s.Pending() != 0 || s.Generation() != 1 {
		t.Fatalf("pending=%d gen=%d after seed publish", s.Pending(), s.Generation())
	}
}

func TestEmptySeedPublishesSnapshotOnly(t *testing.T) {
	var pubs collectPubs
	s, err := ingest.New(table.New("sales", salesSchema()), ingest.Config{
		Queries: salesQueries(),
		Rate:    0.1,
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := pubs.snapshot()
	if len(got) != 1 || got[0].Sample != nil || got[0].Rows != 0 {
		t.Fatalf("empty-seed publication: %+v", got[0])
	}
	// refresh with zero rows has nothing to sample
	if _, err := s.Refresh(); err == nil {
		t.Fatal("refresh of an empty stream should fail")
	}
	// rows arrive; refresh succeeds and covers them
	if _, err := s.Append(rowBatch(0, 500)); err != nil {
		t.Fatal(err)
	}
	pub, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Generation != 2 || pub.Rows != 500 || pub.Sample == nil {
		t.Fatalf("post-append publication: gen=%d rows=%d", pub.Generation, pub.Rows)
	}
	if pub.Budget != 50 {
		t.Fatalf("rate budget = %d, want 50 (10%% of 500)", pub.Budget)
	}
}

func TestAppendValidatesBatchAtomically(t *testing.T) {
	s, err := ingest.New(seedTable(t, 100), ingest.Config{Queries: salesQueries(), Budget: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := [][]any{
		{"NA", 1.0, int64(1)},
		{"NA", "not-a-number", int64(1)}, // row 1 is broken
	}
	if _, err := s.Append(bad); err == nil {
		t.Fatal("batch with a bad row should fail")
	}
	if s.Rows() != 100 || s.Pending() != 0 {
		t.Fatalf("failed batch leaked rows: rows=%d pending=%d", s.Rows(), s.Pending())
	}
	// arity and integer-ness are enforced too
	for _, row := range [][]any{
		{"NA", 1.0},
		{"NA", 1.0, 1.5},
		{3, 1.0, int64(1)},
	} {
		if _, err := s.Append([][]any{row}); err == nil {
			t.Fatalf("row %v should be rejected", row)
		}
	}
	// JSON-shaped numbers coerce: float64 for both numeric kinds
	st, err := s.Append([][]any{{"NA", float64(7), float64(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != 1 || st.Pending != 1 || st.Rows != 101 {
		t.Fatalf("append status: %+v", st)
	}
}

func TestCoerceRow(t *testing.T) {
	sch := salesSchema()
	out, err := ingest.CoerceRow(sch, []any{"EU", 1, float64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != float64(1) || out[2] != int64(4) {
		t.Fatalf("coerced: %#v", out)
	}
	if _, err := ingest.CoerceRow(sch, []any{"EU", 1.0, math.NaN()}); err == nil {
		t.Fatal("NaN must not coerce to int")
	}
}

func TestThresholdTriggersRefresh(t *testing.T) {
	var pubs collectPubs
	s, err := ingest.New(seedTable(t, 1000), ingest.Config{
		Queries: salesQueries(),
		Budget:  100,
		Policy:  ingest.Policy{MaxPending: 200},
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(rowBatch(1000, 250)); err != nil {
		t.Fatal(err)
	}
	// the loop refreshes asynchronously; wait for generation 2
	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("threshold refresh never fired")
		}
		time.Sleep(time.Millisecond)
	}
	got := pubs.snapshot()
	last := got[len(got)-1]
	if last.Rows != 1250 {
		t.Fatalf("threshold publication covers %d rows, want 1250", last.Rows)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after auto refresh", s.Pending())
	}
}

func TestTickerTriggersRefresh(t *testing.T) {
	var pubs collectPubs
	s, err := ingest.New(seedTable(t, 1000), ingest.Config{
		Queries: salesQueries(),
		Budget:  100,
		Policy:  ingest.Policy{Interval: 5 * time.Millisecond},
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(rowBatch(1000, 10)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("periodic refresh never fired")
		}
		time.Sleep(time.Millisecond)
	}
	gen := s.Generation()
	// with nothing pending the ticker must NOT mint empty generations
	time.Sleep(30 * time.Millisecond)
	if got := s.Generation(); got != gen {
		t.Fatalf("ticker minted generations without pending rows: %d -> %d", gen, got)
	}
}

func TestRefreshIdempotentWhenNothingPending(t *testing.T) {
	s, err := ingest.New(seedTable(t, 500), ingest.Config{Queries: salesQueries(), Budget: 50, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p1, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || p1.Generation != 1 {
		t.Fatalf("no-op refresh rebuilt: gen %d -> %d", p1.Generation, p2.Generation)
	}
}

func TestConfigValidation(t *testing.T) {
	seed := seedTable(t, 10)
	cases := []ingest.Config{
		{},                                    // no queries, no budget
		{Queries: salesQueries()},             // no budget
		{Queries: salesQueries(), Budget: -1}, // negative budget
		{Queries: salesQueries(), Rate: 1.5},  // bad rate
		{Queries: salesQueries(), Budget: 5, Rate: 0.1},                                                                 // both
		{Queries: salesQueries(), Budget: 5, Capacity: -1},                                                              // bad capacity
		{Queries: []core.QuerySpec{{GroupBy: []string{"nope"}, Aggs: []core.AggColumn{{Column: "amount"}}}}, Budget: 5}, // unknown attr
		{Queries: []core.QuerySpec{{GroupBy: []string{"region"}, Aggs: []core.AggColumn{{Column: "nope"}}}}, Budget: 5}, // unknown agg
		{Queries: []core.QuerySpec{{GroupBy: []string{"region"}}}, Budget: 5},                                           // invalid spec
	}
	for i, cfg := range cases {
		if _, err := ingest.New(seed, cfg, nil); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := ingest.New(nil, ingest.Config{Queries: salesQueries(), Budget: 5}, nil); err == nil {
		t.Error("nil seed should be rejected")
	}
}

// The acceptance bar for in-place refresh: after streaming extra rows
// and refreshing, the published sample's per-group accuracy matches a
// fresh two-pass CVOPT build over exactly the same rows, within
// reservoir-subsampling tolerance.
func TestRefreshedSampleMatchesTwoPassBuild(t *testing.T) {
	const budget = 400
	var pubs collectPubs
	s, err := ingest.New(seedTable(t, 4000), ingest.Config{
		Queries: salesQueries(),
		Budget:  budget,
		// capacity comfortably above any per-stratum allocation: the
		// one-pass sample is then distributed like the two-pass one
		Capacity: 2 * budget,
		Seed:     11,
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(rowBatch(4000, 3000)); err != nil {
		t.Fatal(err)
	}
	pub, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Rows != 7000 || pub.Snapshot.NumRows() != 7000 {
		t.Fatalf("publication covers %d rows, want 7000", pub.Rows)
	}

	// two-pass ground build over the same 7000 rows
	cv := &samplers.CVOPT{}
	twoPass, err := cv.Build(pub.Snapshot, salesQueries(), budget, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}

	q, err := sqlparse.Parse("SELECT region, AVG(amount) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := exec.Run(pub.Snapshot, q)
	if err != nil {
		t.Fatal(err)
	}
	errOf := func(rows []int32, weights []float64) float64 {
		approx, err := exec.RunWeighted(pub.Snapshot, q, rows, weights)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Summarize(metrics.GroupErrors(exact, approx)).Mean
	}
	streamErr := errOf(pub.Sample.Rows, pub.Sample.Weights)
	twoPassErr := errOf(twoPass.Rows, twoPass.Weights)
	// both are ~1/sqrt(s_c) estimators off the same allocation; the
	// stream may only pay a subsampling penalty, never an order of
	// magnitude
	if streamErr > 0.05 {
		t.Fatalf("streamed sample mean error %.4f implausibly high", streamErr)
	}
	if twoPassErr > 0 && streamErr > 5*twoPassErr+0.01 {
		t.Fatalf("streamed sample error %.4f far above two-pass %.4f", streamErr, twoPassErr)
	}
	// and the sample sizes agree: identical statistics, identical
	// allocation, capacity high enough that nothing was clipped
	if got, want := pub.Sample.Len(), twoPass.Len(); got < want-len(exact.Rows) || got > want+len(exact.Rows) {
		t.Fatalf("streamed sample has %d rows, two-pass %d — allocations diverged", got, want)
	}
}

// A stream takes the norm a static build takes: registered under ℓ∞ over
// a single-query workload it publishes (it used to fail every refresh
// with "stream sampler supports L2/Lp norms"), and with reservoirs that
// hold every row its per-stratum sizes are exactly Plan.Allocate's.
func TestLInfStreamAllocatesAsThePlan(t *testing.T) {
	const budget = 300
	opts := core.Options{Norm: core.LInf}
	var pubs collectPubs
	s, err := ingest.New(seedTable(t, 4000), ingest.Config{
		Queries: salesQueries(), Budget: budget, Capacity: 4000, Opts: opts, Seed: 5,
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pub := pubs.snapshot()[0]
	plan, err := core.NewPlan(pub.Snapshot, salesQueries())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Allocate(budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, plan.NumStrata())
	for _, r := range pub.Sample.Rows {
		got[plan.Index.RowID[r]]++
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("stratum %v: stream drew %d rows, plan allocates %d", plan.Index.Key(c), got[c], want[c])
		}
	}
}

// Concurrent appends and refreshes against published snapshots: the
// race detector asserts the snapshot/append isolation, the checks
// assert generation monotonicity and complete publications.
func TestConcurrentAppendRefreshRace(t *testing.T) {
	var pubs collectPubs
	s, err := ingest.New(seedTable(t, 1000), ingest.Config{
		Queries: salesQueries(),
		Rate:    0.05,
		Policy:  ingest.Policy{MaxPending: 150},
		Seed:    5,
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	q, err := sqlparse.Parse("SELECT region, AVG(amount), COUNT(*) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) { // appender
			defer wg.Done()
			for b := 0; b < 20; b++ {
				if _, err := s.Append(rowBatch(1000+1000*w+20*b, 20)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func() { // reader of whatever generation is current
			defer wg.Done()
			var lastGen uint64
			for i := 0; i < 30; i++ {
				pub := s.Last()
				if pub.Generation < lastGen {
					t.Errorf("generation went backwards: %d -> %d", lastGen, pub.Generation)
					return
				}
				lastGen = pub.Generation
				if pub.Sample == nil {
					t.Error("published generation lost its sample")
					return
				}
				res, err := exec.RunWeighted(pub.Snapshot, q, pub.Sample.Rows, pub.Sample.Weights)
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range res.Rows {
					if len(row.Aggs) != 2 || math.IsNaN(row.Aggs[0]) {
						t.Errorf("torn read: group %v aggs %v", row.Key, row.Aggs)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := s.Rows(); got != 1000+4*20*20 {
		t.Fatalf("ingested %d rows, want %d", got, 1000+4*20*20)
	}
	if s.RefreshErrors() != 0 {
		t.Fatalf("automatic refreshes failed %d times", s.RefreshErrors())
	}
	// every publication covers a prefix: generations and row counts are
	// both strictly increasing
	got := pubs.snapshot()
	for i := 1; i < len(got); i++ {
		if got[i].Generation != got[i-1].Generation+1 {
			t.Fatalf("generation gap: %d after %d", got[i].Generation, got[i-1].Generation)
		}
		if got[i].Rows < got[i-1].Rows {
			t.Fatalf("publication %d covers fewer rows (%d) than its predecessor (%d)",
				got[i].Generation, got[i].Rows, got[i-1].Rows)
		}
	}
}

func BenchmarkStreamAppend(b *testing.B) {
	s, err := ingest.New(seedTable(b, 1000), ingest.Config{Queries: salesQueries(), Budget: 200}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := rowBatch(1000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "rows/op")
}

func BenchmarkStreamRefresh(b *testing.B) {
	s, err := ingest.New(seedTable(b, 50000), ingest.Config{Queries: salesQueries(), Budget: 500}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := rowBatch(50000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// keep one row pending so Refresh actually rebuilds
		if _, err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}
