package serve_test

// Streaming autoscale over the wire: a table streamed with target_cv
// re-derives its budget each refresh, and static autoscaled samples
// report target_met false once appended data outgrows the population
// their guarantee was computed over.

import (
	"math"
	"net/http"
	"testing"

	"repro/internal/core"
)

func TestHTTPStreamTargetCV(t *testing.T) {
	ts, _ := startServer(t)

	code := post(t, ts.URL+"/v1/tables/sales/stream", `{
		"queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}],
		"target_cv": 0.05, "seed": 7
	}`, nil)
	if code != http.StatusCreated {
		t.Fatalf("stream registration with target_cv: %d", code)
	}

	var ref wireSample
	if code := post(t, ts.URL+"/v1/tables/sales/refresh", "", &ref); code != http.StatusOK {
		t.Fatalf("refresh: %d", code)
	}
	if ref.TargetCV != 0.05 || ref.TargetMet == nil || !*ref.TargetMet {
		t.Fatalf("generation-1 guarantee: %+v", ref)
	}
	if ref.AchievedCV == nil || *ref.AchievedCV > 0.05 || ref.ChosenBudget != ref.Budget {
		t.Fatalf("generation-1 achieved CV: %+v", ref)
	}

	// Appended rows + refresh: the search re-runs over the grown table,
	// so the new generation carries a fresh, still-met guarantee.
	rows := `{"rows": [`
	for i := 0; i < 400; i++ {
		if i > 0 {
			rows += ","
		}
		rows += `["NA", "widget", 100]`
	}
	rows += `]}`
	if code := post(t, ts.URL+"/v1/tables/sales/rows", rows, nil); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	var ref2 wireSample
	if code := post(t, ts.URL+"/v1/tables/sales/refresh", "", &ref2); code != http.StatusOK {
		t.Fatalf("second refresh: %d", code)
	}
	if ref2.Generation != 2 || ref2.TargetCV != 0.05 || ref2.TargetMet == nil || !*ref2.TargetMet {
		t.Fatalf("generation-2 guarantee: %+v", ref2)
	}

	// Both sizing fields on a stream registration must conflict.
	if code := post(t, ts.URL+"/v1/tables/sales/stream",
		`{"queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}], "budget": 10, "target_cv": 0.1}`,
		nil); code == http.StatusCreated {
		t.Fatal("budget + target_cv stream registration should be rejected")
	}

	// A capacity small enough that the reservoirs bind: 3 regions × 4
	// held rows cannot reach the target, and the answer must say so with
	// the CV those 12 rows do deliver — not the CV of the budget an
	// unclipped search would have chosen.
	ts2, _ := startServer(t)
	code = post(t, ts2.URL+"/v1/tables/sales/stream", `{
		"queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}],
		"target_cv": 0.005, "capacity": 4, "seed": 7
	}`, nil)
	if code != http.StatusCreated {
		t.Fatalf("capacity-bound stream registration: %d", code)
	}
	var bound wireSample
	if code := post(t, ts2.URL+"/v1/tables/sales/refresh", "", &bound); code != http.StatusOK {
		t.Fatalf("capacity-bound refresh: %d", code)
	}
	plan, err := core.NewPlan(salesTable(t), streamCfg(0).Queries)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]int, plan.NumStrata())
	for c := range held {
		held[c] = 4
	}
	honest := plan.WorstCV(held)
	if bound.TargetMet == nil || *bound.TargetMet || bound.AchievedCV == nil {
		t.Fatalf("binding reservoirs must answer target_met:false: %+v", bound)
	}
	if math.Abs(*bound.AchievedCV-honest) > 1e-9*honest || honest <= 0.005 {
		t.Fatalf("achieved_cv %v, the 12 held rows deliver %v", *bound.AchievedCV, honest)
	}
	if bound.ChosenBudget != len(held)*4 || bound.Budget != bound.ChosenBudget {
		t.Fatalf("chosen budget must be the rows the reservoirs hold: %+v", bound)
	}
}

// wireSample mirrors the autoscale-relevant slice of apiv1.Sample.
type wireSample struct {
	Key          string   `json:"key"`
	Budget       int      `json:"budget"`
	Generation   uint64   `json:"generation"`
	TargetCV     float64  `json:"target_cv"`
	ChosenBudget int      `json:"chosen_budget"`
	AchievedCV   *float64 `json:"achieved_cv"`
	TargetMet    *bool    `json:"target_met"`
}

func TestStaticAutoscaledSampleGoesStaleOnAppend(t *testing.T) {
	ts, reg := startServer(t)

	// A static autoscaled sample over the 3740 seed rows.
	var built wireSample
	code := post(t, ts.URL+"/v1/samples", `{
		"table": "sales",
		"queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}],
		"target_cv": 0.05, "seed": 7
	}`, &built)
	if code != http.StatusCreated {
		t.Fatalf("autoscaled build: %d", code)
	}
	if built.TargetMet == nil || !*built.TargetMet {
		t.Fatalf("fresh static guarantee: %+v", built)
	}

	// Converting the table to streaming republishes the same rows:
	// nothing appended yet, the guarantee stands.
	if err := reg.StreamTable("sales", streamCfg(300)); err != nil {
		t.Fatal(err)
	}
	listMet := func() *bool {
		t.Helper()
		var list struct {
			Samples []wireSample `json:"samples"`
		}
		if code := get(t, ts.URL+"/v1/samples", &list); code != http.StatusOK {
			t.Fatalf("samples list: %d", code)
		}
		for _, s := range list.Samples {
			if s.Key == built.Key {
				return s.TargetMet
			}
		}
		t.Fatalf("static sample %q vanished from the listing", built.Key)
		return nil
	}
	if met := listMet(); met == nil || !*met {
		t.Fatal("guarantee must survive a same-rows streaming conversion")
	}

	// Appended rows outgrow the guarantee's population: once the next
	// generation publishes, the static sample's target_met flips false.
	if _, err := reg.Append("sales", [][]any{{"NA", "widget", 100.0}, {"EU", "gadget", 90.0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Refresh("sales"); err != nil {
		t.Fatal(err)
	}
	if met := listMet(); met == nil || *met {
		t.Fatal("appended data must flip the static autoscale guarantee to target_met false")
	}

	// The query path reports the same staleness.
	var q struct {
		TargetMet *bool `json:"target_met"`
	}
	if code := post(t, ts.URL+"/v1/query",
		`{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region", "target_cv": 0.05}`,
		&q); code != http.StatusOK {
		t.Fatalf("target_cv query: %d", code)
	}
	if q.TargetMet == nil {
		t.Fatal("target_cv query response missing target_met")
	}
}
