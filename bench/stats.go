package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 read off 50 samples is one observation, not a tail.
const minBeyond = 10

// tailPercentiles are the candidates for "the highest percentile that
// still has minBeyond samples beyond it", tried highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90}

// median returns the middle of xs (mean of the two middle values for an
// even count). xs need not be sorted; it is not modified. NaN for empty
// input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0 < p < 1) of xs by the
// nearest-rank rule, or an error when fewer than minBeyond samples lie
// beyond it — the caller must pick a lower percentile or more samples.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, max(n-rank, 0), minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

// tail returns the highest reportable percentile of xs and its value;
// ok is false when even p90 has too few samples beyond it.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, err := percentile(xs, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// quartileSpread is the contract's repeatability measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles computed like Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method). Needs at least two values.
func quartileSpread(xs []float64) (q1, med, q3, spread float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), median(xs), math.NaN(), math.NaN()
	}
	q := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := min(max(int(math.Floor(pos)), 1), n-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	q1, med, q3 = q(1), median(xs), q(3)
	return q1, med, q3, (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timing summarises one phase's per-op latencies.
type timing struct {
	n        int
	p50      float64 // in the unit the caller asked for
	tailP    float64 // 0 when no tail percentile is reportable
	tailV    float64
	max      float64
	unitName string
}

// summarize digests durations into a timing in the given unit ("ms",
// "us", "ns" or "s").
func summarize(ds []time.Duration, unit string) timing {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = inUnit(d, unit)
	}
	t := timing{n: len(xs), p50: median(xs), unitName: unit}
	for _, x := range xs {
		t.max = math.Max(t.max, x)
	}
	if p, v, ok := tail(xs); ok {
		t.tailP, t.tailV = p, v
	}
	return t
}

// tailOrMax is the value reported as a phase's tail: the highest
// percentile with enough samples beyond it, or the maximum when the
// phase is too short for any.
func (t timing) tailOrMax() float64 {
	if t.tailP > 0 {
		return t.tailV
	}
	return t.max
}

func (t timing) String() string {
	s := fmt.Sprintf("p50 %.4g %s", t.p50, t.unitName)
	if t.tailP > 0 {
		s += fmt.Sprintf(", p%g %.4g %s", t.tailP*100, t.tailV, t.unitName)
	}
	return s + fmt.Sprintf(", n=%d", t.n)
}

func inUnit(d time.Duration, unit string) float64 {
	switch unit {
	case "s":
		return d.Seconds()
	case "ms":
		return float64(d) / float64(time.Millisecond)
	case "us":
		return float64(d) / float64(time.Microsecond)
	case "ns":
		return float64(d)
	}
	panic("bench: unknown time unit " + unit)
}

// warm drops the first 5 % of a phase's samples (warm-up: cold caches,
// connection set-up, first-touch page faults).
func warm[T any](xs []T) []T {
	return xs[len(xs)/20:]
}
