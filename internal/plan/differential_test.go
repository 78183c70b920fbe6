package plan_test

// The differential oracle. The row interpreter (internal/exec) is the
// reference semantics of the engine; the columnar executor is an
// optimization that must be invisible. This harness takes the
// randomized (table, query) cases of package plangen — group-bys over
// datagen's synthetic OpenAQ and Bikes schemas with predicates, CUBE,
// HAVING, ORDER BY and LIMIT — runs every case through both executors,
// exact and weighted, and fails on ANY divergence: group keys, row
// order, aggregate values, standard-error estimates. Floats are compared bit-for-bit
// (math.Float64bits), so "close enough" does not exist here: the
// columnar executor is required to perform the same float64 operations
// in the same order as the interpreter.
//
// Every generated query must also compile: the planner accepts exactly
// what the interpreter accepts, so a Compile rejection is a planner
// regression, not a skip.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/plan/plangen"
	"repro/internal/sqlparse"
)

// --- result comparison --------------------------------------------------

// sameF64 is bit-identity with NaN == NaN: the oracle's float equality.
func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffResults reports the first divergence between the interpreter's
// result and the columnar executor's, or "" when bit-identical.
func diffResults(want, got *exec.Result) string {
	if !sameStrs(want.GroupAttrs, got.GroupAttrs) {
		return fmt.Sprintf("GroupAttrs: %v vs %v", want.GroupAttrs, got.GroupAttrs)
	}
	if len(want.Sets) != len(got.Sets) {
		return fmt.Sprintf("Sets: %d vs %d", len(want.Sets), len(got.Sets))
	}
	for i := range want.Sets {
		if !sameStrs(want.Sets[i], got.Sets[i]) {
			return fmt.Sprintf("Sets[%d]: %v vs %v", i, want.Sets[i], got.Sets[i])
		}
	}
	if !sameStrs(want.AggLabels, got.AggLabels) {
		return fmt.Sprintf("AggLabels: %v vs %v", want.AggLabels, got.AggLabels)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("row count: %d vs %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		w, g := &want.Rows[i], &got.Rows[i]
		if w.Set != g.Set {
			return fmt.Sprintf("row %d: Set %d vs %d", i, w.Set, g.Set)
		}
		if !sameStrs(w.Key, g.Key) {
			return fmt.Sprintf("row %d: Key %q vs %q", i, w.Key, g.Key)
		}
		if len(w.Aggs) != len(g.Aggs) {
			return fmt.Sprintf("row %d: %d aggs vs %d", i, len(w.Aggs), len(g.Aggs))
		}
		for j := range w.Aggs {
			if !sameF64(w.Aggs[j], g.Aggs[j]) {
				return fmt.Sprintf("row %d agg %d: %v (%#x) vs %v (%#x)", i, j,
					w.Aggs[j], math.Float64bits(w.Aggs[j]), g.Aggs[j], math.Float64bits(g.Aggs[j]))
			}
		}
		if (w.SE == nil) != (g.SE == nil) || len(w.SE) != len(g.SE) {
			return fmt.Sprintf("row %d: SE shape %v vs %v", i, w.SE, g.SE)
		}
		for j := range w.SE {
			if !sameF64(w.SE[j], g.SE[j]) {
				return fmt.Sprintf("row %d SE %d: %v (%#x) vs %v (%#x)", i, j,
					w.SE[j], math.Float64bits(w.SE[j]), g.SE[j], math.Float64bits(g.SE[j]))
			}
		}
	}
	return ""
}

// --- the oracle ---------------------------------------------------------

// oracleCase runs one generated case through both executors, exact and
// weighted, and fails on any divergence.
func oracleCase(t *testing.T, seed int64) {
	t.Helper()
	c := plangen.NewCase(seed)
	sql := c.SQL

	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("case %d: generator emitted unparseable SQL %q: %v", seed, sql, err)
	}
	p, err := plan.Compile(c.Table, q)
	if err != nil {
		t.Fatalf("case %d: planner rejected %q: %v", seed, sql, err)
	}

	// exact path
	want, err := exec.Run(c.Table, q)
	if err != nil {
		t.Fatalf("case %d: interpreter rejected %q: %v", seed, sql, err)
	}
	got, err := p.Execute(c.Table, nil, nil)
	if err != nil {
		t.Fatalf("case %d: columnar executor failed on %q: %v", seed, sql, err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("case %d: exact divergence on %q:\n  %s", seed, sql, d)
	}

	// weighted path: a random multiset of rows with non-unit weights
	want, err = exec.RunWeighted(c.Table, q, c.Rows, c.Weights)
	if err != nil {
		t.Fatalf("case %d: weighted interpreter rejected %q: %v", seed, sql, err)
	}
	got, err = p.Execute(c.Table, c.Rows, c.Weights)
	if err != nil {
		t.Fatalf("case %d: weighted columnar executor failed on %q: %v", seed, sql, err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("case %d: weighted divergence on %q:\n  %s", seed, sql, d)
	}
}

// TestDifferentialOracle is the headline correctness gate: 1200
// randomized cases (150 under -short), sharded across parallel
// subtests so the executors also run concurrently under -race.
func TestDifferentialOracle(t *testing.T) {
	cases := 1200
	if testing.Short() {
		cases = 150
	}
	const shards = 8
	per := (cases + shards - 1) / shards
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < per; i++ {
				oracleCase(t, int64(s*per+i))
			}
		})
	}
}
