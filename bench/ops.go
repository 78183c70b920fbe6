package main

import (
	"fmt"
	"math/rand"
)

// Operation classes. A class is one kind of request whose latencies are
// summarised together; the traced run reports one breakdown per class.
const (
	classNarrow = "narrow" // sample mode, ≤ 266 groups back, 36 repeating texts
	classWide   = "wide"   // sample mode, every stratum back (~MB responses)
	classCold   = "cold"   // sample mode, never-seen SQL text: plan-cache miss
	classExact  = "exact"  // exact mode, full-table scan
	classStream = "stream" // sample mode against the live table
)

// op is one generated request: the SQL to send and the index of the
// reference answer it must match (into the class's reference list).
type op struct {
	Class string
	SQL   string
	Ref   int
}

const months = 12

// narrowTemplates are the dashboard tiles: one month of data, grouped
// three ways (≤ 266, 38 and 7 groups). Every group-by is a subset of
// both stratifications in use — the static sample's (country,
// parameter, year, month) and the live table's (country, parameter,
// month) — so either sample covers them.
var narrowTemplates = []string{
	"SELECT country, parameter, AVG(value), COUNT(*) FROM %s WHERE month = %d GROUP BY country, parameter",
	"SELECT country, SUM(value), AVG(latitude) FROM %s WHERE month = %d GROUP BY country",
	"SELECT parameter, AVG(value), COUNT(*) FROM %s WHERE month = %d GROUP BY parameter",
}

// narrowTexts returns the 36 narrow SQL texts over the named table:
// template-major, month-minor, so text i is template i/12, month i%12+1.
func narrowTexts(table string) []string {
	out := make([]string, 0, len(narrowTemplates)*months)
	for _, t := range narrowTemplates {
		for m := 1; m <= months; m++ {
			out = append(out, fmt.Sprintf(t, table, m))
		}
	}
	return out
}

// exactTextIdx picks the narrow texts that exact mode replays: one
// month per quarter of each template. Twelve texts keep the row
// interpreter's reference pass (a full scan each) out of the way of
// set-up time while still covering every template.
func exactTextIdx() []int {
	var out []int
	for t := range narrowTemplates {
		for _, m := range []int{3, 6, 9, 12} {
			out = append(out, t*months+m-1)
		}
	}
	return out
}

// wideTexts are the two full-resolution tiles: one group per stratum.
func wideTexts(table string) []string {
	return []string{
		"SELECT country, parameter, year, month, AVG(value), COUNT(*) FROM " + table + " GROUP BY country, parameter, year, month",
		"SELECT country, parameter, year, month, SUM(value), AVG(value) FROM " + table + " GROUP BY country, parameter, year, month",
	}
}

// coldText is narrow template 0 for the given month with a predicate
// that is true for every row (values are positive) but whose literal
// makes the text — and so the plan-cache key — unique. Its answer is
// therefore the reference answer of narrow text month-1.
func coldText(table string, month, literal int) string {
	return fmt.Sprintf("SELECT country, parameter, AVG(value), COUNT(*) FROM %s WHERE month = %d AND value > -%d GROUP BY country, parameter",
		table, month, literal)
}

// genOps returns the deterministic op list of one phase: n ops of the
// class, drawn with the given seed. The same (class, table, n, seed)
// always yields the same list.
func genOps(class, table string, n int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed ^ int64(len(class))<<32 ^ int64(n)))
	ops := make([]op, n)
	switch class {
	case classNarrow, classStream:
		texts := narrowTexts(table)
		for i := range ops {
			k := rng.Intn(len(texts))
			ops[i] = op{class, texts[k], k}
		}
	case classExact:
		texts, idx := narrowTexts(table), exactTextIdx()
		for i := range ops {
			k := rng.Intn(len(idx))
			ops[i] = op{class, texts[idx[k]], k}
		}
	case classWide:
		texts := wideTexts(table)
		for i := range ops {
			k := rng.Intn(len(texts))
			ops[i] = op{class, texts[k], k}
		}
	case classCold:
		// literals are 1..n in a seeded order: no text repeats
		for i, lit := range rng.Perm(n) {
			m := rng.Intn(months) + 1
			ops[i] = op{class, coldText(table, m, lit+1), m - 1}
		}
	default:
		panic("bench: unknown op class " + class)
	}
	return ops
}
