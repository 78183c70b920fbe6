package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "exact_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "exact_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same runs", lower, steady, steady, verdictUnchanged},
		{"latency up 20 %", lower, steady, scale(steady, 1.2), verdictRegression},
		{"latency up 5 %: inside the bound", lower, steady, scale(steady, 1.05), verdictUnchanged},
		{"latency down 20 %", lower, steady, scale(steady, 0.8), verdictImproved},
		{"throughput down 20 %", higher, steady, scale(steady, 0.8), verdictRegression},
		{"throughput up 20 %", higher, steady, scale(steady, 1.2), verdictImproved},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 110, 100}, []float64{85, 100, 118, 92, 108, 101}, verdictUnresolved},
		{"noisy, but every run better than every parent run", lower, []float64{80, 100, 120, 90, 110, 100}, []float64{40, 50, 60, 45, 55, 50}, verdictImproved},
		{"noisy and worse beyond the bound", lower, []float64{80, 100, 120, 90, 110, 100}, []float64{120, 150, 180, 135, 165, 150}, verdictRegression},
		{"single runs, equal", lower, []float64{100}, []float64{103}, verdictUnchanged},
	} {
		if got, _, _, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// records writes one run per value of exact_p50_ms for dash_exact.
func writeRecords(t *testing.T, path string, p50s []float64, evals float64, failed int) {
	t.Helper()
	for i, v := range p50s {
		rec := &record{Workload: wlDashExact, Seed: int64(i + 1), Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]float64{"exact_p50_ms": v, "core.autoscale_evals": evals}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	parent, same, slow, recount, failing := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "same.jsonl"),
		filepath.Join(dir, "slow.jsonl"), filepath.Join(dir, "recount.jsonl"), filepath.Join(dir, "failing.jsonl")
	steady := []float64{14.0, 14.1, 13.9, 14.2, 14.0}
	writeRecords(t, parent, steady, 38, 0)
	writeRecords(t, same, steady, 38, 0)
	writeRecords(t, slow, scale(steady, 1.3), 38, 0)
	writeRecords(t, recount, steady, 42, 0)
	writeRecords(t, failing, steady, 38, 2)

	for _, c := range []struct {
		change string
		code   int
		want   []string
	}{
		{same, 0, []string{"exact_p50_ms", verdictUnchanged, "core.autoscale_evals", verdictSame, "0 regressions, 0 unresolved"}},
		{slow, 1, []string{verdictRegression, "1 regressions"}},
		{recount, 0, []string{verdictChanged, "0 regressions"}},
		{failing, 1, []string{"failed", verdictRegression}},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, parent, c.change); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", filepath.Base(c.change), code, c.code, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", filepath.Base(c.change), w, out.String())
			}
		}
	}
	var out bytes.Buffer
	if code := compareFiles(&out, parent, filepath.Join(dir, "missing.jsonl")); code != 2 {
		t.Errorf("missing file: exit code %d, want 2", code)
	}
	if code := summarizeFile(&out, parent, false); code != 0 || !strings.Contains(out.String(), "exact_p50_ms") {
		t.Errorf("summary: code %d, output %s", code, out.String())
	}
}
