package sqlparse_test

// FuzzParse checks robustness end to end down the query stack. On
// arbitrary input: the parser never panics, and any query it accepts
// renders to SQL that re-parses to the same canonical form (String is
// a fixed point after one round). Every accepted query is then pushed
// through the physical planner (internal/plan), which must never panic
// and must reject exactly the queries the row interpreter rejects
// (acceptance parity). When both accept, the columnar execution must
// agree bit-for-bit with the interpreter, so the fuzzer searches for
// differential counterexamples too, not just crashes.
//
// The test lives outside package sqlparse because the planner imports
// sqlparse; an in-package test would be an import cycle.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// fuzzTables builds the fixed execution targets: a plain table "t"
// whose column names cover the corpus vocabulary, and an
// OpenAQ-shaped "OpenAQ" so the EXPLAIN golden seeds bind too.
func fuzzTables() map[string]*table.Table {
	t := table.New("t", table.Schema{
		{Name: "a", Kind: table.String},
		{Name: "c", Kind: table.String},
		{Name: "g", Kind: table.String},
		{Name: "v", Kind: table.Float},
		{Name: "x", Kind: table.Float},
		{Name: "y", Kind: table.Int},
		{Name: "b", Kind: table.Int},
	})
	as := []string{"p", "q", "r", "it's"}
	gs := []string{"g1", "g2"}
	for i := 0; i < 64; i++ {
		err := t.AppendRow(as[i%len(as)], as[(i/2)%len(as)], gs[i%len(gs)],
			float64(i%7)-2.5, float64(i%11)/3, int64(i%5), int64(i%3))
		if err != nil {
			panic(err)
		}
	}
	aq := table.New("OpenAQ", table.Schema{
		{Name: "country", Kind: table.String},
		{Name: "parameter", Kind: table.String},
		{Name: "unit", Kind: table.String},
		{Name: "value", Kind: table.Float},
		{Name: "year", Kind: table.Int},
	})
	countries := []string{"US", "IN", "CN"}
	params := []string{"pm25", "pm10", "co"}
	for i := 0; i < 48; i++ {
		err := aq.AppendRow(countries[i%3], params[(i/3)%3], "ppm",
			float64(i%19)*1.5, int64(2015+i%5))
		if err != nil {
			panic(err)
		}
	}
	return map[string]*table.Table{"t": t, "openaq": aq}
}

// sameResult compares two executor results bit-for-bit (NaN == NaN).
func sameResult(a, b *exec.Result) bool {
	sameStrs := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !sameStrs(a.GroupAttrs, b.GroupAttrs) || !sameStrs(a.AggLabels, b.AggLabels) ||
		len(a.Sets) != len(b.Sets) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Sets {
		if !sameStrs(a.Sets[i], b.Sets[i]) {
			return false
		}
	}
	for i := range a.Rows {
		ra, rb := &a.Rows[i], &b.Rows[i]
		if ra.Set != rb.Set || !sameStrs(ra.Key, rb.Key) || len(ra.Aggs) != len(rb.Aggs) {
			return false
		}
		for j := range ra.Aggs {
			if math.Float64bits(ra.Aggs[j]) != math.Float64bits(rb.Aggs[j]) {
				return false
			}
		}
	}
	return true
}

func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT major, AVG(gpa) FROM Student GROUP BY major",
		"SELECT country, parameter, unit, SUM(value) AS agg1, COUNT(*) AS agg2 FROM OpenAQ GROUP BY country, parameter, unit WITH CUBE",
		"SELECT a, SUM(v) FROM t WHERE x BETWEEN 0 AND 5 AND c IN ('p', 'q') GROUP BY a HAVING SUM(v) > 1 ORDER BY a DESC LIMIT 3",
		"SELECT COUNT_IF(v > 0.5), MIN(v), MAX(v), VAR(v), STDDEV(v) FROM t GROUP BY g",
		"SELECT -a FROM t WHERE NOT x = 'it''s' OR y != 1e3",
		"SELECT SUM(IF(v > 2, 1, 0)) / COUNT(*) FROM t GROUP BY g",
		"SELECT g, AVG(IF(v > 0, v, a)), COUNT_IF(IF(y > 2, a, c) >= 'q') FROM t WHERE IF(b = 1, c, x) GROUP BY g",
		"SELECT SUM(-IF(v > 0, IF(y = 1, a, b), v < 1)), COUNT_IF(a IN ('p', IF(x > 1, c, 2))) FROM t WHERE v BETWEEN IF(b > 0, a, -1) AND 3",
		"SELECT",
		"SELECT (((((a FROM t",
		"'unterminated",
		"SELECT a FROM t WHERE \x00\xff",
	}
	// the EXPLAIN golden corpus: every shape with a committed plan
	// rendering is a permanent planner seed
	seeds = append(seeds,
		"SELECT country, AVG(value), COUNT(*) FROM OpenAQ WHERE (value > 10) GROUP BY country",
		"SELECT country, parameter, SUM(value) AS total FROM OpenAQ GROUP BY country, parameter HAVING (COUNT(*) > 5)",
		"SELECT country, AVG(value) AS avg_v FROM OpenAQ WHERE (parameter = 'pm25') GROUP BY country ORDER BY avg_v DESC LIMIT 10",
		"SELECT country, parameter, AVG(value) FROM OpenAQ GROUP BY country, parameter WITH CUBE",
		"SELECT country, AVG(value) FROM OpenAQ GROUP BY country",
	)
	for _, s := range seeds {
		f.Add(s)
	}
	tables := fuzzTables()
	f.Fuzz(func(t *testing.T, input string) {
		q, err := sqlparse.Parse(input)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		rendered := q.String()
		q2, err := sqlparse.Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q does not re-parse: %v", input, rendered, err)
		}
		if q2.String() != rendered {
			t.Fatalf("render not canonical:\n%q\n%q", rendered, q2.String())
		}

		// planner round trip: Compile must not panic, must error iff
		// the interpreter's compile errors, and an accepted plan must
		// execute to the exact interpreter result
		tbl, ok := tables[strings.ToLower(q.From)]
		if !ok {
			tbl = tables["t"]
		}
		p, perr := plan.Compile(tbl, q)
		want, ierr := exec.Run(tbl, q)
		if (perr == nil) != (ierr == nil) {
			t.Fatalf("acceptance differs on %q:\nplanner:     %v\ninterpreter: %v", rendered, perr, ierr)
		}
		if perr != nil {
			return
		}
		got, err := p.Execute(tbl, nil, nil)
		if err != nil {
			t.Fatalf("compiled plan for %q failed to execute: %v", rendered, err)
		}
		if !sameResult(want, got) {
			t.Fatalf("executor divergence on %q:\ninterpreter: %+v\ncolumnar:    %+v", rendered, want, got)
		}
	})
}
