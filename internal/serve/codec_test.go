// White-box tests of the /v1/query wire path: the hand codec in api/v1
// fed by wireGroups must write exactly the bytes encoding/json wrote
// for the []apiv1.Group the handler used to build, and decode to
// exactly what json.Unmarshal gives, over every result of the
// planner's differential generator and a table of edge cases.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/plan/plangen"
	"repro/internal/sqlparse"
)

// legacyResponse is the handler's construction before the hand codec:
// one Group per row and one pointer per cell, compare mode's relative
// errors from the exact answer's index.
func legacyResponse(head apiv1.QueryResponse, res *exec.Result, exactIdx map[string][]float64) apiv1.QueryResponse {
	head.Groups = make([]apiv1.Group, len(res.Rows))
	for i, row := range res.Rows {
		g := apiv1.Group{Set: row.Set, Key: row.Key, Aggs: apiv1.Float64s(row.Aggs)}
		if row.SE != nil {
			g.SE = apiv1.Float64s(row.SE)
		}
		if exactIdx != nil {
			want, ok := exactIdx[exec.KeyOf(row.Set, row.Key)]
			rel := make([]*float64, len(row.Aggs))
			for j, got := range row.Aggs {
				if ok && j < len(want) {
					rel[j] = apiv1.Float64(metrics.RelativeError(want[j], got))
				}
			}
			g.RelErr = rel
		}
		head.Groups[i] = g
	}
	return head
}

// checkWire encodes res both ways and decodes the hand encoder's body
// both ways.
func checkWire(t *testing.T, what string, head apiv1.QueryResponse, res *exec.Result, exactIdx map[string][]float64) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(legacyResponse(head, res, exactIdx)); err != nil {
		t.Fatalf("%s: encoding/json: %v", what, err)
	}
	got, err := apiv1.AppendQueryResponse(nil, &head, &wireGroups{rows: res.Rows, exact: exactIdx})
	if err != nil {
		t.Fatalf("%s: AppendQueryResponse: %v", what, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: body differs from encoding/json:\n got %s\nwant %s", what, got, want.Bytes())
	}
	var hand, ref apiv1.QueryResponse
	if err := apiv1.DecodeQueryResponse(got, &hand); err != nil {
		t.Fatalf("%s: DecodeQueryResponse: %v", what, err)
	}
	if err := json.Unmarshal(got, &ref); err != nil {
		t.Fatalf("%s: json.Unmarshal: %v", what, err)
	}
	if !reflect.DeepEqual(hand, ref) {
		t.Fatalf("%s: decoded value differs from json.Unmarshal's:\n got %+v\nwant %+v", what, hand, ref)
	}
}

// TestWireCodecDifferential runs every result of the planner's
// differential generator through the wire path: exact, weighted (with
// standard errors) and weighted in compare mode — 1200 cases, 150
// under -short.
func TestWireCodecDifferential(t *testing.T) {
	cases := 1200
	if testing.Short() {
		cases = 150
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		c := plangen.NewCase(seed)
		q, err := sqlparse.Parse(c.SQL)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Compile(c.Table, q)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := p.Execute(c.Table, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := p.Execute(c.Table, c.Rows, c.Weights)
		if err != nil {
			t.Fatal(err)
		}
		head := apiv1.QueryResponse{Table: c.Table.Name, Exact: true, Sets: exact.Sets,
			AggLabels: exact.AggLabels, Executor: apiv1.ExecutorColumnar}
		checkWire(t, c.SQL+" (exact)", head, exact, nil)
		head.Exact, head.SampleKey, head.SampleRows = false, "k", len(c.Rows)
		checkWire(t, c.SQL+" (sampled)", head, sampled, nil)
		checkWire(t, c.SQL+" (compare)", head, sampled, exact.Index())
	}
}

// TestWireCodecCases pins the edges the generator rarely reaches.
func TestWireCodecCases(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	row := func(key []string, aggs, se []float64) exec.Row { return exec.Row{Key: key, Aggs: aggs, SE: se} }
	plain := apiv1.QueryResponse{Table: "t", Sets: [][]string{{"k"}}, AggLabels: []string{"a", "b"},
		Executor: apiv1.ExecutorColumnar}
	cases := map[string]struct {
		rows  []exec.Row
		exact []exec.Row // compare mode when non-nil
	}{
		"non-finite": {rows: []exec.Row{row([]string{"x"}, []float64{nan, inf}, []float64{-inf, nan})}},
		"floats": {rows: []exec.Row{
			row([]string{"a"}, []float64{negZero, 1e-7}, []float64{1e21, 5e-324}),
			row([]string{"b"}, []float64{math.MaxFloat64, -1e-7}, []float64{1e-6, 1e20}),
		}},
		"escaped keys": {rows: []exec.Row{
			row([]string{`q"uote`}, []float64{1}, nil), row([]string{`back\slash`}, []float64{2}, nil),
			row([]string{"<tag>"}, []float64{3}, nil), row([]string{"a&b"}, []float64{4}, nil),
			row([]string{"line\u2028sep"}, []float64{5}, nil), row([]string{"bad\xffutf8"}, []float64{6}, nil),
		}},
		"global group": {rows: []exec.Row{row([]string{}, []float64{3, 4}, nil)}},
		"exact nil se": {rows: []exec.Row{row([]string{"a"}, []float64{1, 2}, nil)}},
		"zero groups":  {rows: []exec.Row{}},
		"compare": {
			rows:  []exec.Row{row([]string{"a"}, []float64{1, 2}, []float64{0.1, 0.2}), row([]string{"b"}, []float64{3, 0}, []float64{0.3, nan})},
			exact: []exec.Row{row([]string{"a"}, []float64{1.5}, nil), row([]string{"b"}, []float64{0, 0}, nil)},
		},
	}
	for name, c := range cases {
		var idx map[string][]float64
		if c.exact != nil {
			idx = (&exec.Result{Rows: c.exact}).Index()
		}
		checkWire(t, name, plain, &exec.Result{Rows: c.rows}, idx)
	}

	// every optional header field at once: explain, debug, compare and
	// a degraded target_cv answer
	met := false
	full := plain
	full.SampleKey, full.SampleRows, full.Generation = "sales/m=187", 187, 2
	full.TargetCV, full.ChosenBudget, full.AchievedCV, full.TargetMet = 0.05, 187, apiv1.Float64(0.081), &met
	full.Degraded = true
	q, err := sqlparse.Parse("SELECT region, AVG(amount) FROM t WHERE amount > 1 GROUP BY region ORDER BY region LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(shardTestTable(t, "t"), q)
	if err != nil {
		t.Fatal(err)
	}
	full.Plan = p.Explain(plan.ExplainInput{Source: "sample", Rows: 187, SampleKey: full.SampleKey, TargetCV: 0.05})
	full.Trace = &apiv1.RequestTrace{RequestID: "req-1", Route: apiv1.RouteQuery,
		Start: time.Date(2024, 5, 6, 7, 8, 9, 10, time.UTC), DurationMS: 1.5,
		Spans: []apiv1.TraceSpan{{Name: "decode", DurationMS: 0.25}, {Name: "encode", StartMS: 1, DurationMS: 0.5}}}
	res := &exec.Result{Rows: []exec.Row{row([]string{"NA"}, []float64{1, 2}, []float64{0.5, nan})}}
	checkWire(t, "every header", full, res, (&exec.Result{Rows: []exec.Row{row([]string{"NA"}, []float64{1.25, 2}, nil)}}).Index())
}

// TestAnswerPresizeFitsTiles serves the benchmark's tiles over a
// 200 000-row OpenAQ table (the benchmark's stratification and
// resident budget) and checks the measured presize figures against
// them: the handler's buffer holds each answer without regrowing, and
// the decoder's guesses from the body length reserve at least as many
// groups, keys and cells as the answer has.
func TestAnswerPresizeFitsTiles(t *testing.T) {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	specs := []core.QuerySpec{
		{GroupBy: []string{"country", "parameter", "year", "month"}, Aggs: []core.AggColumn{{Column: "value"}}},
		{GroupBy: []string{"country", "parameter"}, Aggs: []core.AggColumn{{Column: "value"}, {Column: "latitude"}}},
	}
	if _, _, err := reg.Build(context.Background(), BuildRequest{Table: tbl.Name, Queries: specs, Budget: 20_000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	for _, sql := range []string{
		"SELECT country, parameter, year, month, AVG(value), COUNT(*) FROM OpenAQ GROUP BY country, parameter, year, month",
		"SELECT country, parameter, year, month, SUM(value), AVG(value) FROM OpenAQ GROUP BY country, parameter, year, month",
		"SELECT country, parameter, AVG(value), COUNT(*) FROM OpenAQ WHERE month = 1 GROUP BY country, parameter",
	} {
		req, err := json.Marshal(apiv1.QueryRequest{SQL: sql, Mode: apiv1.ModeSample})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, apiv1.Path(apiv1.RouteQuery), bytes.NewReader(req)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sql, rec.Code, rec.Body.Bytes())
		}
		body := rec.Body.Bytes()
		var resp apiv1.QueryResponse
		if err := apiv1.DecodeQueryResponse(body, &resp); err != nil {
			t.Fatal(err)
		}
		n, keys, cells := len(resp.Groups), 0, 0
		for _, g := range resp.Groups {
			keys += len(g.Key)
			cells += len(g.Aggs) + len(g.SE) + len(g.RelErr)
		}
		if size := apiv1.AnswerHeadBytes + apiv1.MaxGroupBytes*n; len(body) > size {
			t.Errorf("%s: %d groups encode to %d B, over the %d B buffer", sql, n, len(body), size)
		}
		// the decoder reserves four keys and four cells a guessed group
		if guess := len(body)/apiv1.MinGroupBytes + 1; n > guess || keys > 4*guess || cells > 4*guess {
			t.Errorf("%s: %d B body guesses %d groups, has %d groups, %d keys, %d cells", sql, len(body), guess, n, keys, cells)
		}
	}
}
