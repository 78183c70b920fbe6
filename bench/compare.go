package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// readRecords loads a JSON-lines record file; an empty one is an error.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// series collects, per workload and metric, the values of the runs in a
// record file, in file order.
type series map[string]map[string][]float64

// collect gathers the records' metrics. End-to-end metrics are taken
// from untraced runs only (a traced run measures them too, but under a
// heap the traced replay has grown); everything else from every run.
func collect(recs []record) (s series, failed map[string]int) {
	s, failed = series{}, map[string]int{}
	for _, rec := range recs {
		if rec.Trace {
			for _, def := range endToEnd {
				delete(rec.Metrics, def.Name)
			}
		}
		if s[rec.Workload] == nil {
			s[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			s[rec.Workload][name] = append(s[rec.Workload][name], v)
		}
		failed[rec.Workload] += rec.Failed
	}
	return s, failed
}

// Verdicts of one workload × metric comparison.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"    // a count that repeated exactly
	verdictChanged    = "CHANGED" // a count that did not
)

// worsening is how much worse b's median is than a's, as a share of
// a's, in the metric's own direction: positive is worse.
func worsening(def metricDef, a, b float64) float64 {
	w := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		w = -w
	}
	return w
}

// judge compares the change's runs (b) with the parent's (a) on one
// end-to-end metric. A median worse by more than the bound is a
// regression. Otherwise, where either side's own quartile spread is
// wider than the bound the runs cannot tell "unchanged" from "regressed
// within the bound": the verdict is unresolved, unless every run of b
// reads better than every run of a.
func judge(def metricDef, a, b []float64) (verdict string, worse, spreadA, spreadB float64) {
	_, medA, _, spreadA := quartileSpread(a)
	_, medB, _, spreadB := quartileSpread(b)
	worse = worsening(def, medA, medB)
	noisy := spreadA > def.Bound || spreadB > def.Bound // false for NaN: a single run has no spread
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worsening(def, x, y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > def.Bound:
		verdict = verdictRegression
	case allBetter:
		verdict = verdictImproved
	case noisy:
		verdict = verdictUnresolved
	case worse < -math.Max(spreadA, spreadB):
		verdict = verdictImproved
	default:
		verdict = verdictUnchanged
	}
	return verdict, worse, spreadA, spreadB
}

// compareFiles prints one row per workload × end-to-end metric and one
// per workload × count, and returns the exit code: 1 when any metric
// regressed or the change failed ops the parent did not.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, failedA := collect(parent)
	b, failedB := collect(change)

	regressions, unresolved := 0, 0
	fmt.Fprintf(w, "%-14s %-26s %12s %12s %8s %7s %8s %8s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range workloadNames {
		if a[wl] == nil || b[wl] == nil {
			continue
		}
		for _, def := range endToEnd {
			xa, xb := a[wl][def.Name], b[wl][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict, worse, sa, sb := judge(def, xa, xb)
			switch verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-14s %-26s %12.5g %12.5g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl, def.Name, median(xa), median(xb), worse*100, def.Bound*100, sa*100, sb*100, verdict)
		}
		for _, def := range perLayer {
			xa, xb := a[wl][def.Name], b[wl][def.Name]
			if !def.Count || len(xa) == 0 || len(xb) == 0 {
				continue
			}
			// a count repeats exactly for equal inputs, so compare the
			// sorted multisets: the two files hold the same seeds
			verdict := verdictSame
			if !slices.Equal(sortedCopy(xa), sortedCopy(xb)) {
				verdict = verdictChanged
			}
			fmt.Fprintf(w, "%-14s %-26s %12.5g %12.5g %8s %7s %8s %8s  %s\n", wl, def.Name, median(xa), median(xb), "", "exact", "", "", verdict)
		}
		if failedB[wl] > failedA[wl] {
			regressions++
			fmt.Fprintf(w, "%-14s %-26s %12d %12d %8s %7s %8s %8s  %s\n", wl, "failed", failedA[wl], failedB[wl], "", "", "", "", verdictRegression)
		}
	}
	fmt.Fprintf(w, "%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

// summarizeFile prints median, quartiles and spread of every metric of
// every workload in a record file, with the end-to-end bound next to
// the spread — the noise characterisation behind the bounds.
func summarizeFile(w io.Writer, path string, asJSON bool) int {
	recs, err := readRecords(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	s, failed := collect(recs)
	if asJSON {
		data, err := json.MarshalIndent(baselineOf(s, len(recs)), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(w, string(data))
		return 0
	}
	fmt.Fprintf(w, "%-14s %-34s %4s %12s %12s %12s %8s %7s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloadNames {
		if s[wl] == nil {
			continue
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range defs {
				xs := s[wl][def.Name]
				if len(xs) == 0 {
					continue
				}
				q1, med, q3, spread := quartileSpread(xs)
				bound := ""
				if def.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", def.Bound*100)
					if spread > def.Bound/3 {
						bound += " !"
					}
				}
				fmt.Fprintf(w, "%-14s %-34s %4d %12.5g %12.5g %12.5g %7.1f%% %7s\n", wl, def.Name, len(xs), q1, med, q3, spread*100, bound)
			}
		}
		fmt.Fprintf(w, "%-14s %-34s %4d\n", wl, "failed", failed[wl])
	}
	return 0
}

// baselineFile is bench/baseline.json: the numbers of the builder's own
// full-scale runs, the first baseline every later claim is made
// against. End-to-end metrics carry the quartile spread their bound was
// checked against; per-layer metrics (from traced runs, when the record
// file has any) carry medians only.
type baselineFile struct {
	Note     string                              `json:"note"`
	Records  int                                 `json:"records"`
	EndToEnd map[string]map[string]baselineEntry `json:"end_to_end"`
	PerLayer map[string]map[string]float64       `json:"per_layer,omitempty"`
}

type baselineEntry struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
	Bound  float64 `json:"bound"`
}

func baselineOf(s series, records int) baselineFile {
	b := baselineFile{
		Note:     "medians and quartile spreads per workload of the runs in one record file (bench -summary <file> -json); workload = the --workload the run was started with",
		Records:  records,
		EndToEnd: map[string]map[string]baselineEntry{},
		PerLayer: map[string]map[string]float64{},
	}
	for wl, metrics := range s {
		b.EndToEnd[wl] = map[string]baselineEntry{}
		for _, def := range endToEnd {
			if xs := metrics[def.Name]; len(xs) > 0 {
				q1, med, q3, spread := quartileSpread(xs)
				b.EndToEnd[wl][def.Name] = baselineEntry{def.Unit, len(xs), q1, med, q3, spread, def.Bound}
			}
		}
		for _, def := range perLayer {
			if xs := metrics[def.Name]; len(xs) > 0 {
				if b.PerLayer[wl] == nil {
					b.PerLayer[wl] = map[string]float64{}
				}
				b.PerLayer[wl][def.Name] = median(xs)
			}
		}
	}
	return b
}
