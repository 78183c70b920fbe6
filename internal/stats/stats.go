// Package stats provides one-pass, mergeable summary statistics used by
// the CVOPT sampling framework.
//
// All samplers in this repository (CVOPT, Congressional, RL, Sample+Seek)
// need the count, mean and variance of one or more aggregation columns
// within every stratum, computed in a single scan of the data. Summary
// implements Welford's online algorithm, which is numerically stable and
// supports merging two summaries (Chan et al.), so statistics of a coarse
// stratum can be derived from the statistics of its finer refinement —
// the property Section 5 of the paper requires of any aggregate plugged
// into the framework.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Summary is a mergeable running summary of a stream of float64 values:
// count, mean, and centered second moment (Welford M2). The zero value is
// an empty summary ready for use.
type Summary struct {
	N    int64   // number of observations
	Mean float64 // running mean
	M2   float64 // sum of squared deviations from the mean
	Min  float64 // minimum observed value (undefined when N == 0)
	Max  float64 // maximum observed value (undefined when N == 0)
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.N++
	if s.N == 1 {
		s.Mean = x
		s.M2 = 0
		s.Min = x
		s.Max = x
		return
	}
	delta := x - s.Mean
	s.Mean += delta / float64(s.N)
	s.M2 += delta * (x - s.Mean)
	if x < s.Min {
		s.Min = x
	}
	if x > s.Max {
		s.Max = x
	}
}

// Merge folds another summary into s using the parallel-variance
// combination rule. Merging an empty summary is a no-op.
func (s *Summary) Merge(o Summary) {
	if o.N == 0 {
		return
	}
	if s.N == 0 {
		*s = o
		return
	}
	n1, n2 := float64(s.N), float64(o.N)
	delta := o.Mean - s.Mean
	total := n1 + n2
	s.Mean += delta * n2 / total
	s.M2 += o.M2 + delta*delta*n1*n2/total
	s.N += o.N
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Variance returns the population variance (M2/N). It returns 0 for
// summaries with fewer than one observation.
func (s *Summary) Variance() float64 {
	if s.N < 1 {
		return 0
	}
	v := s.M2 / float64(s.N)
	if v < 0 { // guard tiny negative rounding residue
		return 0
	}
	return v
}

// SampleVariance returns the Bessel-corrected variance (M2/(N-1)), 0 when
// N < 2.
func (s *Summary) SampleVariance() float64 {
	if s.N < 2 {
		return 0
	}
	v := s.M2 / float64(s.N-1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Sum returns the total of all observations (N·mean).
func (s *Summary) Sum() float64 { return float64(s.N) * s.Mean }

// CV returns the coefficient of variation σ/µ. The paper assumes the
// aggregated attribute has a non-zero mean; when the mean is zero CV is
// reported as +Inf (for nonzero σ) or 0 (degenerate all-zero group).
func (s *Summary) CV() float64 {
	sd := s.StdDev()
	if s.Mean == 0 {
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / math.Abs(s.Mean)
}

// String implements fmt.Stringer for diagnostics.
func (s *Summary) String() string {
	return fmt.Sprintf("Summary{n=%d mean=%.6g sd=%.6g}", s.N, s.Mean, s.StdDev())
}

// GroupStats holds, for one stratum, a Summary per aggregation column.
// Columns are addressed positionally; the mapping from position to table
// column is owned by the caller (core.Plan).
type GroupStats struct {
	Cols []Summary
}

// NewGroupStats returns stats for t aggregation columns.
func NewGroupStats(t int) *GroupStats { return &GroupStats{Cols: make([]Summary, t)} }

// Add records one row's aggregation values. len(vals) must equal the
// number of columns the GroupStats was created with.
func (g *GroupStats) Add(vals []float64) {
	for i, v := range vals {
		g.Cols[i].Add(v)
	}
}

// N returns the number of rows observed (taken from column 0; all columns
// see every row).
func (g *GroupStats) N() int64 {
	if len(g.Cols) == 0 {
		return 0
	}
	return g.Cols[0].N
}

// Merge folds another GroupStats with the same arity into g.
func (g *GroupStats) Merge(o *GroupStats) error {
	if len(g.Cols) != len(o.Cols) {
		return fmt.Errorf("stats: merge arity mismatch: %d vs %d", len(g.Cols), len(o.Cols))
	}
	for i := range g.Cols {
		g.Cols[i].Merge(o.Cols[i])
	}
	return nil
}

// Collector accumulates per-stratum statistics over one scan of a table.
// Strata are identified by dense integer ids assigned by the caller
// (table.GroupIndex). It is the "first pass" of the paper's two-pass
// offline sampling phase.
type Collector struct {
	arity  int
	groups []*GroupStats
}

// ErrArity is returned when an observation's arity does not match the
// collector's.
var ErrArity = errors.New("stats: observation arity mismatch")

// NewCollector creates a collector for nStrata strata and arity
// aggregation columns.
func NewCollector(nStrata, arity int) *Collector {
	c := &Collector{arity: arity, groups: make([]*GroupStats, nStrata)}
	gs := make([]GroupStats, nStrata) // one allocation per collector, not per stratum
	cols := make([]Summary, nStrata*arity)
	for i := range c.groups {
		gs[i].Cols = cols[i*arity : (i+1)*arity : (i+1)*arity]
		c.groups[i] = &gs[i]
	}
	return c
}

// Observe records one row belonging to stratum id with the given
// aggregation values.
func (c *Collector) Observe(stratum int, vals []float64) error {
	if len(vals) != c.arity {
		return ErrArity
	}
	if stratum < 0 || stratum >= len(c.groups) {
		return fmt.Errorf("stats: stratum %d out of range [0,%d)", stratum, len(c.groups))
	}
	c.groups[stratum].Add(vals)
	return nil
}

// Group returns the statistics of stratum id.
func (c *Collector) Group(id int) *GroupStats { return c.groups[id] }

// NumStrata returns the number of strata the collector tracks.
func (c *Collector) NumStrata() int { return len(c.groups) }

// Arity returns the number of aggregation columns tracked per stratum.
func (c *Collector) Arity() int { return c.arity }

// TotalRows returns the total number of observed rows across strata.
func (c *Collector) TotalRows() int64 {
	var n int64
	for _, g := range c.groups {
		n += g.N()
	}
	return n
}

// MergeProjected combines the statistics of a set of fine strata into a
// single GroupStats, used to derive the statistics of a coarse group a
// from its refinement C(a) (Section 4.1's Π projection).
func MergeProjected(groups []*GroupStats) (*GroupStats, error) {
	if len(groups) == 0 {
		return nil, errors.New("stats: MergeProjected on empty set")
	}
	out := NewGroupStats(len(groups[0].Cols))
	for _, g := range groups {
		if err := out.Merge(g); err != nil {
			return nil, err
		}
	}
	return out, nil
}
