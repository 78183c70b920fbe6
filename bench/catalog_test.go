package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestCatalogIsConsistent(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the contract allows 1-16 and 1-128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	owners := append([]string{allWorkloads}, workloadNames...)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if !slices.Contains(owners, d.Workload) {
			t.Errorf("metric %q names unknown workload %q", d.Name, d.Workload)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if len(d.Moves) == 0 {
			t.Errorf("per-layer metric %q does not say which end-to-end metric it should move", d.Name)
		}
		for _, m := range d.Moves {
			if _, ok := findMetric(endToEnd, m); !ok {
				t.Errorf("per-layer metric %q points at %q, which is not an end-to-end metric", d.Name, m)
			}
		}
	}
	setup, ok := findMetric(endToEnd, "setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	for _, w := range workloadNames {
		if why := workloadWhy[w]; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1-200", w, len(why))
		}
	}
}

// BENCHMARK.json is generated (bench -benchmark-json); it must not
// drift from the catalogue the program reports by.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes; the contract allows 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(keys), []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Errorf("keys %v, want exactly %v", got, want)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `bench -benchmark-json`")
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 || len(got.Workloads) < 2 || len(got.Workloads) > 8 {
		t.Errorf("run_seconds %d, %d workloads", got.RunSeconds, len(got.Workloads))
	}
}

// baseline.json is the first full-scale measurement: every workload ×
// end-to-end metric, with the spread the bound was derived from.
func TestBaselineCoversEveryGate(t *testing.T) {
	data, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			b, ok := base.EndToEnd[w][d.Name]
			if !ok || b.Median <= 0 || b.Runs < 5 {
				t.Errorf("baseline lacks %s / %s (or has fewer than 5 runs): %+v", w, d.Name, b)
				continue
			}
			if d.Name != "setup_s" && b.Spread > d.Bound {
				t.Errorf("%s / %s: recorded spread %.3f is wider than the bound %.2f", w, d.Name, b.Spread, d.Bound)
			}
		}
	}
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
