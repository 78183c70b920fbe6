package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

func TestGenOpsDeterministic(t *testing.T) {
	for _, class := range []string{classNarrow, classWide, classCold, classExact, classStream} {
		a := renderOps(genOps(class, staticTable, 500, 7))
		b := renderOps(genOps(class, staticTable, 500, 7))
		c := renderOps(genOps(class, staticTable, 500, 8))
		if a != b {
			t.Errorf("%s: the same seed gave two different op lists", class)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", class)
		}
	}
}

func TestOpTextsParseAndReferenceInRange(t *testing.T) {
	limits := map[string]int{
		classNarrow: len(narrowTexts(staticTable)),
		classStream: len(narrowTexts(liveName)),
		classWide:   len(wideTexts(staticTable)),
		classExact:  len(exactTextIdx()),
		classCold:   months,
	}
	for class, limit := range limits {
		for _, o := range genOps(class, staticTable, 300, 1) {
			if _, err := sqlparse.Parse(o.SQL); err != nil {
				t.Fatalf("%s: %q does not parse: %v", class, o.SQL, err)
			}
			if o.Ref < 0 || o.Ref >= limit {
				t.Fatalf("%s: reference %d out of range %d", class, o.Ref, limit)
			}
		}
	}
	if n := len(narrowTexts(staticTable)); n != 36 {
		t.Errorf("%d narrow texts, want 36", n)
	}
}

func TestColdTextsNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	for _, o := range genOps(classCold, staticTable, 4000, 3) {
		if seen[o.SQL] {
			t.Fatalf("cold text repeats: %s", o.SQL)
		}
		seen[o.SQL] = true
		// the cold text is its month's narrow template-0 text plus an
		// always-true predicate
		base := narrowTexts(staticTable)[o.Ref]
		where := base[:strings.Index(base, " GROUP BY")]
		if !strings.HasPrefix(o.SQL, where+" AND value > -") {
			t.Fatalf("cold text %q is not reference %d plus a predicate", o.SQL, o.Ref)
		}
	}
}

// renderOps is the byte form of an op list.
func renderOps(ops []op) string {
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "%s\t%d\t%s\n", o.Class, o.Ref, o.SQL)
	}
	return b.String()
}
