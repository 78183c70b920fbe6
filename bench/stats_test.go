package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// 100 samples: p90 has exactly 10 beyond it, p95 only 5
	if v, err := percentile(seq(100), 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(100), 0.95); err == nil {
		t.Fatal("p95 of 100 samples has 5 beyond it and must be refused")
	}
	if _, err := percentile(seq(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Fatalf("percentile %v accepted", p)
		}
	}
}

func TestTailPicksHighestReportable(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		okay bool
	}{{50, 0, false}, {100, 0.90, true}, {200, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		p, _, ok := tail(seq(c.n))
		if ok != c.okay || p != c.p {
			t.Errorf("tail of %d samples = p%v, %v; want p%v, %v", c.n, p*100, ok, c.p*100, c.okay)
		}
	}
	// a phase too short for any tail reports its maximum
	short := summarize([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}, "ms")
	if short.p50 != 2 || short.tailOrMax() != 3 || short.n != 3 {
		t.Errorf("summary of 3 samples = %+v", short)
	}
}

func TestMedianAndQuartileSpread(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3, spread := quartileSpread(seq(10))
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || math.Abs(spread-1) > 1e-12 {
		t.Errorf("quartiles of 1..10 = %v %v %v spread %v", q1, med, q3, spread)
	}
	// statistics.quantiles([10, 10.5, 9.5, 10.2], n=4) == [9.625, 10.1, 10.425]
	q1, _, q3, _ = quartileSpread([]float64{10, 10.5, 9.5, 10.2})
	if math.Abs(q1-9.625) > 1e-12 || math.Abs(q3-10.425) > 1e-12 {
		t.Errorf("quartiles = %v %v", q1, q3)
	}
}

func TestWarmDropsFivePercent(t *testing.T) {
	if got := len(warm(seq(100))); got != 95 {
		t.Errorf("warm kept %d of 100", got)
	}
	if got := len(warm(seq(3))); got != 3 {
		t.Errorf("warm kept %d of 3", got)
	}
}

func TestPerSecondIsTheMedianWindow(t *testing.T) {
	// 100 ops completing 10 ms apart, except a 2 s stall before op 60:
	// the stall lands in one window and the median window ignores it
	t0 := time.Unix(1000, 0)
	p := &phase{lat: make([]time.Duration, 100), end: make([]time.Time, 100)}
	at := t0
	for i := range p.end {
		at = at.Add(10 * time.Millisecond)
		if i == 60 {
			at = at.Add(2 * time.Second)
		}
		p.end[i] = at
	}
	if got := p.perSecond(); math.Abs(got-100) > 1e-6 {
		t.Errorf("perSecond = %v, want 100", got)
	}
}
