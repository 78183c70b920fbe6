package plan_test

// Deterministic unit tests for the planner's edges: validation
// errors, schema re-binding, the rows/weights contract, and a handful
// of semantic corners — among them the kind-varying IF in every
// consumer position — pinned as fixed cases (the randomized oracle in differential_test.go covers
// the same ground statistically; these are the human-readable
// counterexamples-by-construction).

import (
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

func miniTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("mini", table.Schema{
		{Name: "cat", Kind: table.String},
		{Name: "tag", Kind: table.String},
		{Name: "v", Kind: table.Float},
		{Name: "n", Kind: table.Int},
	})
	rows := []struct {
		cat, tag string
		v        float64
		n        int64
	}{
		{"a", "x", 1.5, 1}, {"b", "y", -2, 2}, {"a", "a", 0, 3},
		{"c", "x", 10, 4}, {"b", "b", 7.25, 5}, {"a", "x", math.Pi, 6},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.cat, r.tag, r.v, r.n); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func mustPlan(t *testing.T, tbl *table.Table, sql string) *plan.Plan {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Compile(tbl, q)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	return p
}

// runBoth executes sql through both executors, exactly and over a
// fixed weighted multiset of rows, and requires bit-equal results.
func runBoth(t *testing.T, tbl *table.Table, sql string) {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(tbl, q)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	want, err := exec.Run(tbl, q)
	if err != nil {
		t.Fatalf("interpret %q: %v", sql, err)
	}
	got, err := p.Execute(tbl, nil, nil)
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("exact divergence on %q: %s", sql, d)
	}
	rows, weights := []int32{5, 0, 0, 3, 1, 4, 2, 5}, []float64{2, 1.5, 3, 40, 0.25, 7, 1, 2.5}
	want, err = exec.RunWeighted(tbl, q, rows, weights)
	if err != nil {
		t.Fatalf("weighted interpret %q: %v", sql, err)
	}
	got, err = p.Execute(tbl, rows, weights)
	if err != nil {
		t.Fatalf("weighted execute %q: %v", sql, err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("weighted divergence on %q: %s", sql, d)
	}
}

func TestPlanSemanticCorners(t *testing.T) {
	tbl := miniTable(t)
	for _, sql := range []string{
		// boolean under a numeric aggregate: asNum(bool)
		"SELECT cat, SUM((v > 1)) FROM mini GROUP BY cat",
		// string column vs column, all six operators
		"SELECT COUNT_IF(cat = tag), COUNT_IF(cat != tag), COUNT_IF(cat < tag), COUNT_IF(cat <= tag), COUNT_IF(cat > tag), COUNT_IF(cat >= tag) FROM mini",
		// literal-vs-column orientations
		"SELECT COUNT_IF('b' < cat), COUNT_IF(cat > 'b'), COUNT_IF('b' = 'b'), COUNT_IF('a' != 'b') FROM mini",
		// mixed-kind comparisons constant-fold: != true, everything else false
		"SELECT COUNT_IF(cat = 1), COUNT_IF(cat != 1), COUNT_IF(cat < 1), COUNT_IF(1 >= tag) FROM mini",
		// string in arithmetic reads the num field (0); under an
		// aggregate it goes through asNum (NaN)
		"SELECT SUM(cat + v), MIN(cat) FROM mini",
		// division by zero is NaN, which MIN/MAX must propagate like
		// the interpreter (first-NaN sticks)
		"SELECT MIN(v / 0), MAX(v / 0), AVG(n / n) FROM mini",
		// HAVING with BETWEEN and NOT over aggregate expressions
		"SELECT cat, COUNT(*) FROM mini GROUP BY cat HAVING COUNT(*) BETWEEN 2 AND 9 AND NOT SUM(v) < 0",
		// IF with boolean branches in a predicate
		"SELECT COUNT_IF(IF(v > 0, cat = 'a', cat = 'b')) FROM mini",
		// empty result: nothing passes the filter
		"SELECT cat, AVG(v) FROM mini WHERE v > 1e9 GROUP BY cat",
	} {
		runBoth(t, tbl, sql)
	}
}

// TestPlanKindVaryingIF pins the two IF shapes with no single static
// kind — branches of different kinds, and string branches — in every
// position that consumes a value. mix is number-or-string, strs is
// string-or-string, deep nests one inside the other with a boolean arm.
func TestPlanKindVaryingIF(t *testing.T) {
	tbl := miniTable(t)
	const (
		mix  = "IF(v > 0, v, cat)"
		strs = "IF(n > 2, cat, tag)"
		deep = "IF(cat = 'a', IF(v > 1, tag, n), IF(n > 4, v > 5, 'x'))"
	)
	for _, tmpl := range []string{
		// WHERE truthiness
		"SELECT cat, COUNT(*) FROM mini WHERE $ GROUP BY cat",
		// both sides of each comparison operator, against a number, a
		// string column, a string literal and another kind-varying IF
		"SELECT COUNT_IF($ = 1.5), COUNT_IF($ != 1.5), COUNT_IF($ < 2), COUNT_IF($ <= 7.25), COUNT_IF($ > 0), COUNT_IF($ >= 10) FROM mini",
		"SELECT COUNT_IF(1.5 = $), COUNT_IF(1.5 != $), COUNT_IF(2 < $), COUNT_IF(7.25 <= $), COUNT_IF(0 > $), COUNT_IF(10 >= $) FROM mini",
		"SELECT COUNT_IF($ = tag), COUNT_IF($ != tag), COUNT_IF($ < tag), COUNT_IF(tag <= $), COUNT_IF(tag > $), COUNT_IF($ >= 'b') FROM mini",
		"SELECT COUNT_IF($ = " + strs + "), COUNT_IF(" + mix + " < $), COUNT_IF($ >= " + deep + ") FROM mini",
		// IN: as the probe and as an item
		"SELECT COUNT_IF($ IN ('a', 10, tag)), COUNT_IF(cat IN ('zz', $)), COUNT_IF(v IN (0, $)) FROM mini",
		// BETWEEN: as the probe and as either bound
		"SELECT COUNT_IF($ BETWEEN 0 AND 8), COUNT_IF(v BETWEEN $ AND 100), COUNT_IF(cat BETWEEN 'a' AND $) FROM mini",
		// arithmetic operand, unary minus, ABS: the raw num field
		"SELECT SUM($ + 1), SUM(n * $), SUM(-$), SUM(ABS($)), SUM(v / $) FROM mini",
		// aggregate arguments: asNum (strings are NaN) and truthiness
		"SELECT cat, AVG($), SUM($), MIN($), MAX($), VAR($), COUNT($), COUNT_IF($) FROM mini GROUP BY cat",
		// logical operators and NOT, and an IF condition
		"SELECT COUNT_IF(NOT $), COUNT_IF($ AND v > 0), COUNT_IF(n > 3 OR $), SUM(IF($, 1, 2)) FROM mini",
	} {
		for _, sel := range []string{mix, strs, deep} {
			runBoth(t, tbl, strings.ReplaceAll(tmpl, "$", sel))
		}
	}
}

func TestPlanRejections(t *testing.T) {
	tbl := miniTable(t)
	for _, sql := range []string{
		"SELECT AVG(nope) FROM mini",
		"SELECT AVG(v) FROM elsewhere",
		"SELECT cat FROM mini",                    // no aggregate outputs
		"SELECT v, AVG(v) FROM mini",              // ungrouped column ref
		"SELECT cat, AVG(v) FROM mini GROUP BY v", // grouping a Float
		"SELECT AVG(IF(v > 0, nope, cat)) FROM mini",
	} {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := plan.Compile(tbl, q); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", sql)
		}
		if _, err := exec.Run(tbl, q); err == nil {
			t.Errorf("interpreter accepted %q, want error", sql)
		}
	}
}

func TestPlanBindCheck(t *testing.T) {
	tbl := miniTable(t)
	p := mustPlan(t, tbl, "SELECT cat, AVG(v) FROM mini GROUP BY cat")

	// same schema, new snapshot: fine (the streaming case)
	again := miniTable(t)
	if _, err := p.Execute(again, nil, nil); err != nil {
		t.Fatalf("re-binding an identical schema should work: %v", err)
	}

	// column count changed
	fewer := table.New("mini", table.Schema{{Name: "cat", Kind: table.String}})
	if _, err := p.Execute(fewer, nil, nil); err == nil {
		t.Fatal("executing against a narrower schema must fail")
	}

	// column kind changed
	mutated := table.New("mini", table.Schema{
		{Name: "cat", Kind: table.String},
		{Name: "tag", Kind: table.String},
		{Name: "v", Kind: table.Int}, // was Float
		{Name: "n", Kind: table.Int},
	})
	if _, err := p.Execute(mutated, nil, nil); err == nil {
		t.Fatal("executing against a kind-changed schema must fail")
	} else if !strings.Contains(err.Error(), "changed kind") {
		t.Fatalf("want a changed-kind error, got: %v", err)
	}

	// same kinds under other names: column indexes would bind to the
	// wrong data
	renamed := table.New("mini", table.Schema{
		{Name: "tag", Kind: table.String},
		{Name: "cat", Kind: table.String},
		{Name: "v", Kind: table.Float},
		{Name: "n", Kind: table.Int},
	})
	if _, err := p.Execute(renamed, nil, nil); err == nil || p.Binds(renamed) {
		t.Fatal("executing against a renamed schema must fail")
	}
}

func TestPlanExecuteRowWeightContract(t *testing.T) {
	tbl := miniTable(t)
	p := mustPlan(t, tbl, "SELECT cat, AVG(v) FROM mini GROUP BY cat")
	if _, err := p.Execute(tbl, []int32{0, 1}, []float64{2}); err == nil {
		t.Fatal("mismatched rows/weights lengths must fail")
	}
	res, err := p.Execute(tbl, []int32{0, 0, 5}, []float64{2, 3, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.SE == nil {
			t.Fatal("weighted execution must attach SE estimates")
		}
	}
}
