package ingest_test

// Autoscaled streams: Config.TargetCV re-runs the budget search on
// every refresh, so the published guarantee tracks the ingested data
// instead of decaying as rows arrive.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/table"
)

func TestConfigSizingValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ingest.Config
		want string
	}{
		{"budget and target", ingest.Config{Budget: 100, TargetCV: 0.1}, "exactly one"},
		{"rate and target", ingest.Config{Rate: 0.1, TargetCV: 0.1}, "exactly one"},
		{"all three", ingest.Config{Budget: 100, Rate: 0.1, TargetCV: 0.1}, "exactly one"},
		{"none", ingest.Config{}, "required"},
		{"negative target", ingest.Config{TargetCV: -0.1}, "target CV"},
		{"max budget alone", ingest.Config{Budget: 100, MaxBudget: 500}, "requires target_cv"},
		{"negative max budget", ingest.Config{TargetCV: 0.1, MaxBudget: -1}, "max budget"},
	}
	for _, tc := range cases {
		tc.cfg.Queries = salesQueries()
		_, err := ingest.New(seedTable(t, 100), tc.cfg, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestAutoscaledStreamRefreshesGuarantee(t *testing.T) {
	var pubs collectPubs
	s, err := ingest.New(seedTable(t, 2000), ingest.Config{
		Queries:  salesQueries(),
		TargetCV: 0.05,
		Seed:     7,
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	got := pubs.snapshot()
	if len(got) != 1 {
		t.Fatalf("got %d publications, want 1", len(got))
	}
	first := got[0]
	if first.TargetCV != 0.05 || !first.TargetMet {
		t.Fatalf("seed publication guarantee: %+v", first)
	}
	if first.AchievedCV <= 0 || first.AchievedCV > 0.05 {
		t.Fatalf("achieved CV %v outside (0, target]", first.AchievedCV)
	}
	if first.Budget <= 0 || first.Budget >= 2000 {
		t.Fatalf("autoscaled budget %d should be a real sub-population budget", first.Budget)
	}

	// More data, same target: the search re-runs over the grown
	// population and the new generation carries its own fresh guarantee.
	if _, err := s.Append(rowBatch(2000, 3000)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	got = pubs.snapshot()
	second := got[len(got)-1]
	if second.Generation != 2 || second.Rows != 5000 {
		t.Fatalf("second publication: gen=%d rows=%d", second.Generation, second.Rows)
	}
	if second.TargetCV != 0.05 || !second.TargetMet || second.AchievedCV > 0.05 {
		t.Fatalf("refreshed guarantee: %+v", second)
	}
}

func TestAutoscaledStreamCapBestEffort(t *testing.T) {
	var pubs collectPubs
	s, err := ingest.New(seedTable(t, 2000), ingest.Config{
		Queries:   salesQueries(),
		TargetCV:  0.0001, // unreachable under the cap
		MaxBudget: 10,
		Seed:      7,
	}, pubs.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := pubs.snapshot()[0]
	if p.TargetMet {
		t.Fatalf("10 rows cannot hit CV 0.0001, yet TargetMet: %+v", p)
	}
	if p.Budget != 10 || p.AchievedCV <= 0.0001 {
		t.Fatalf("cap-bound publication: budget=%d achieved=%v", p.Budget, p.AchievedCV)
	}
}

// The published guarantee must describe the published sample: whatever
// the reservoir capacity, achieved_cv is the worst predicted CV of the
// rows actually drawn (judged by an independent two-pass plan over the
// same snapshot), target_met follows from it, and the budget is the
// sample's size. The search used to run over a throw-away plan capped at
// n_c while the draw was capped at the reservoirs, so a binding capacity
// published "0.02, met" over a sample whose worst CV was 0.13–0.56.
func TestAutoscaledStreamGuaranteeDescribesTheSample(t *testing.T) {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 200000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := []core.QuerySpec{{GroupBy: []string{"country"}, Aggs: []core.AggColumn{{Column: "value"}}}}
	const target = 0.02
	for _, capacity := range []int{0, 64, 16} { // 0 = ingest.DefaultCapacity
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			var pubs collectPubs
			s, err := ingest.New(tbl, ingest.Config{Queries: queries, TargetCV: target, Capacity: capacity, Seed: 3}, pubs.publish)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			pub := pubs.snapshot()[0]

			plan, err := core.NewPlan(pub.Snapshot, queries)
			if err != nil {
				t.Fatal(err)
			}
			drawn := make([]int, plan.NumStrata())
			for _, r := range pub.Sample.Rows {
				drawn[plan.Index.RowID[r]]++
			}
			honest := plan.WorstCV(drawn)
			if math.Abs(pub.AchievedCV-honest) > 1e-9*honest {
				t.Errorf("published achieved_cv %.6f, the drawn sample's worst CV is %.6f", pub.AchievedCV, honest)
			}
			if pub.TargetMet != (pub.AchievedCV <= target) {
				t.Errorf("target_met %v beside achieved_cv %.6f (target %v)", pub.TargetMet, pub.AchievedCV, target)
			}
			if pub.Budget != len(pub.Sample.Rows) {
				t.Errorf("published budget %d, sample holds %d rows", pub.Budget, len(pub.Sample.Rows))
			}
		})
	}
}

// BenchmarkStreamRefreshTargetCV times one refresh of a target_cv stream
// seeded with 200 k OpenAQ rows, stratified like the end-to-end
// benchmark's live table (~3 k strata): the 100 rows appended before each
// refresh leave the strata model stale, so the refresh re-derives it,
// re-runs the budget search over it and redraws the sample.
func BenchmarkStreamRefreshTargetCV(b *testing.B) {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 200_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := []core.QuerySpec{{GroupBy: []string{"country", "parameter", "month"}, Aggs: []core.AggColumn{{Column: "value"}}}}
	s, err := ingest.New(tbl, ingest.Config{Queries: queries, TargetCV: 0.2, Paused: true}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := make([][]any, 100)
	for r := range batch {
		for _, c := range tbl.Columns {
			if c.Spec.Kind == table.String {
				batch[r] = append(batch[r], c.StringAt(r))
			} else {
				batch[r] = append(batch[r], c.Numeric(r))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}
