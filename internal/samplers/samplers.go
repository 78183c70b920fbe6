// Package samplers puts every sampling method of the paper's evaluation
// behind one interface: CVOPT (ℓ2 and ℓ∞) and the four competitors —
// Uniform, Congressional sampling (CS, Acharya et al.), RL (Rösch &
// Lehner) and Sample+Seek's measure-biased sampling (Ding et al.) — plus
// the Senate strategy CS builds on.
//
// Every sampler turns a table, the query specs the sample must serve,
// and a row budget M into a weighted row sample: row ids of the original
// table, each carrying a Horvitz-Thompson style weight such that the
// weighted sample is an unbiased (or, for the heuristics, approximately
// unbiased) representation of the full table. The query engine
// (internal/exec) evaluates any aggregate over the weighted rows.
package samplers

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/table"
)

// RowSample is a weighted row sample of a table.
type RowSample struct {
	Rows    []int32
	Weights []float64
}

// Len returns the number of sampled rows.
func (r *RowSample) Len() int { return len(r.Rows) }

// Sampler builds a weighted sample serving the given group-by queries
// within a budget of m rows.
type Sampler interface {
	Name() string
	Build(tbl *table.Table, queries []core.QuerySpec, m int, rng *rand.Rand) (*RowSample, error)
}

// fromStratified converts a stratified sample into weighted rows.
func fromStratified(ss *sample.StratifiedSample) *RowSample {
	rows, weights := core.RowWeights(ss)
	return &RowSample{Rows: rows, Weights: weights}
}

// stratify builds the finest stratification for the queries; shared by
// the stratified competitors, which differ only in the allocation rule.
func stratify(tbl *table.Table, queries []core.QuerySpec) (*table.GroupIndex, error) {
	attrs, err := core.StratAttrs(queries)
	if err != nil {
		return nil, err
	}
	return table.BuildGroupIndex(tbl, attrs)
}

// drawAndWeight draws the allocation from the stratification's row
// lists and wraps it as a RowSample.
func drawAndWeight(gi *table.GroupIndex, sizes []int, rng *rand.Rand) (*RowSample, error) {
	ss, err := sample.DrawStratified(gi.RowsByStratum(), sizes, gi.Attrs, rng)
	if err != nil {
		return nil, err
	}
	return fromStratified(ss), nil
}

// CVOPT is the paper's ℓ2-optimal sampler (Sections 3-4).
type CVOPT struct {
	Opts core.Options
}

// Name implements Sampler.
func (c *CVOPT) Name() string {
	switch c.Opts.Norm {
	case core.LInf:
		return "CVOPT-INF"
	case core.Lp:
		return fmt.Sprintf("CVOPT-L%g", c.Opts.P)
	default:
		return "CVOPT"
	}
}

// Build implements Sampler via core.Plan.
func (c *CVOPT) Build(tbl *table.Table, queries []core.QuerySpec, m int, rng *rand.Rand) (*RowSample, error) {
	plan, err := core.NewPlan(tbl, queries)
	if err != nil {
		return nil, err
	}
	ss, _, err := plan.Sample(m, c.Opts, rng)
	if err != nil {
		return nil, err
	}
	return fromStratified(ss), nil
}

// Uniform samples m rows uniformly without replacement from the table.
// Per-group estimates are post-stratified: a sampled row's weight is
// n/m, so small groups are frequently missing — the failure mode the
// paper's Figure 1 shows.
type Uniform struct{}

// Name implements Sampler.
func (Uniform) Name() string { return "Uniform" }

// Build implements Sampler.
func (Uniform) Build(tbl *table.Table, queries []core.QuerySpec, m int, rng *rand.Rand) (*RowSample, error) {
	n := tbl.NumRows()
	if m > n {
		m = n
	}
	rows := sample.UniformWithoutReplacement(n, m, rng)
	w := float64(n) / float64(len(rows))
	weights := make([]float64, len(rows))
	for i := range weights {
		weights[i] = w
	}
	return &RowSample{Rows: rows, Weights: weights}, nil
}

// Senate splits the budget equally among the strata of the finest
// stratification, ignoring size, mean and variance (the "senate"
// component of congressional sampling, used standalone as a baseline in
// Section 3.1).
type Senate struct{}

// Name implements Sampler.
func (Senate) Name() string { return "Senate" }

// Build implements Sampler.
func (Senate) Build(tbl *table.Table, queries []core.QuerySpec, m int, rng *rand.Rand) (*RowSample, error) {
	gi, err := stratify(tbl, queries)
	if err != nil {
		return nil, err
	}
	r := gi.NumStrata()
	real := make([]float64, r)
	for i := range real {
		real[i] = float64(m) / float64(r)
	}
	sizes, err := core.RoundAllocation(real, gi.StratumSizes(), m, 1)
	if err != nil {
		return nil, err
	}
	return drawAndWeight(gi, sizes, rng)
}

// Congress implements congressional sampling (CS): the allocation of a
// stratum is proportional to the maximum of its "house" share
// (frequency-proportional) and its "senate" share (equal split),
// generalized over all groupings of the submitted queries exactly as in
// the scaled-congress construction of Acharya et al.: for each query's
// grouping A, a stratum c's share under A is (1/|A-groups|)·(n_c /
// n_{Π(c,A)}); the house is the share under the empty grouping, n_c/n.
type Congress struct{}

// Name implements Sampler.
func (Congress) Name() string { return "CS" }

// Build implements Sampler.
func (Congress) Build(tbl *table.Table, queries []core.QuerySpec, m int, rng *rand.Rand) (*RowSample, error) {
	gi, err := stratify(tbl, queries)
	if err != nil {
		return nil, err
	}
	nc := gi.StratumSizes()
	total := float64(tbl.NumRows())
	r := gi.NumStrata()
	share := make([]float64, r)
	// house
	for c := 0; c < r; c++ {
		share[c] = float64(nc[c]) / total
	}
	// senate + scaled congress per query grouping
	for _, q := range queries {
		f2c, keys, err := gi.Project(q.GroupBy)
		if err != nil {
			return nil, err
		}
		ng := make([]float64, len(keys))
		for c := 0; c < r; c++ {
			ng[f2c[c]] += float64(nc[c])
		}
		g := float64(len(keys))
		for c := 0; c < r; c++ {
			s := (1.0 / g) * float64(nc[c]) / ng[f2c[c]]
			if s > share[c] {
				share[c] = s
			}
		}
	}
	real := make([]float64, r)
	var sumShare float64
	for _, s := range share {
		sumShare += s
	}
	for c := 0; c < r; c++ {
		real[c] = float64(m) * share[c] / sumShare
	}
	sizes, err := core.RoundAllocation(real, nc, m, 1)
	if err != nil {
		return nil, err
	}
	return drawAndWeight(gi, sizes, rng)
}

// RL implements the Rösch-Lehner heuristic: like CVOPT-SASG it sizes
// strata proportionally to the coefficient of variation, but — as the
// paper points out in Section 6.1 — it assumes groups are large, ignores
// group size when allocating, and may therefore assign a stratum more
// rows than it has; the excess is clipped and lost rather than
// redistributed, and no minimum-representation repair is applied. For
// multiple group-bys it follows a hierarchical-partitioning heuristic:
// the budget is split equally across queries, each query's share is
// allocated over its own groups by CV, and a group's quota is spread
// over its finest strata proportionally to stratum size.
type RL struct{}

// Name implements Sampler.
func (RL) Name() string { return "RL" }

// Build implements Sampler.
func (RL) Build(tbl *table.Table, queries []core.QuerySpec, m int, rng *rand.Rand) (*RowSample, error) {
	plan, err := core.NewPlan(tbl, queries)
	if err != nil {
		return nil, err
	}
	nc := plan.StratumSizes()
	r := plan.NumStrata()
	aggCols := plan.AggColumns()
	real := make([]float64, r)
	perQuery := float64(m) / float64(len(queries))
	for qi, q := range plan.Queries {
		keys, coarse, f2c := plan.CoarseGroups(qi)
		// CV per coarse group, averaged over the query's aggregates.
		cv := make([]float64, len(keys))
		var cvSum float64
		for a := range keys {
			var v float64
			for _, ac := range q.Aggs {
				col := coarse[a].Cols[slices.Index(aggCols, ac.Column)]
				if col.Mean != 0 {
					v += col.StdDev() / abs(col.Mean)
				}
			}
			cv[a] = v / float64(len(q.Aggs))
			cvSum += cv[a]
		}
		if cvSum == 0 {
			continue
		}
		// spread each group's quota over its strata by stratum size
		for c, a := range f2c {
			if na := float64(coarse[a].N()); na != 0 {
				real[c] += perQuery * (cv[a] / cvSum) * float64(nc[c]) / na
			}
		}
	}
	// RL's defining flaw: clip at the population without redistribution.
	sizes := make([]int, r)
	for c := 0; c < r; c++ {
		s := int(real[c] + 0.5)
		if int64(s) > nc[c] {
			s = int(nc[c])
		}
		sizes[c] = s
	}
	return drawAndWeight(plan.Index, sizes, rng)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// SampleSeek implements the sampling component of Sample+Seek:
// measure-biased sampling, where a row is drawn with probability
// proportional to its value on the (first) aggregation column, with
// replacement. A drawn row's weight is Σv/(M·v_row), the inverse
// inclusion intensity. The paper notes this favors rows with large
// values but ignores within-group variability — a uniform large-valued
// group still soaks up samples. Rows with non-positive measure fall back
// to the minimum positive measure so they stay sampleable.
type SampleSeek struct{}

// Name implements Sampler.
func (SampleSeek) Name() string { return "Sample+Seek" }

// Build implements Sampler.
func (SampleSeek) Build(tbl *table.Table, queries []core.QuerySpec, m int, rng *rand.Rand) (*RowSample, error) {
	if len(queries) == 0 || len(queries[0].Aggs) == 0 {
		return nil, fmt.Errorf("samplers: Sample+Seek needs an aggregation column")
	}
	col := tbl.Column(queries[0].Aggs[0].Column)
	if col == nil {
		return nil, fmt.Errorf("samplers: unknown measure column %q", queries[0].Aggs[0].Column)
	}
	n := tbl.NumRows()
	measures := make([]float64, n)
	minPos := 0.0
	var total float64
	for r := 0; r < n; r++ {
		v := col.Numeric(r)
		if v > 0 && (minPos == 0 || v < minPos) {
			minPos = v
		}
		measures[r] = v
	}
	if minPos == 0 {
		minPos = 1
	}
	for r := 0; r < n; r++ {
		if measures[r] <= 0 {
			measures[r] = minPos
		}
		total += measures[r]
	}
	idx, err := sample.WeightedWithReplacement(measures, m, rng)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(idx))
	for i, r := range idx {
		weights[i] = total / (float64(m) * measures[r])
	}
	return &RowSample{Rows: idx, Weights: weights}, nil
}

// All returns the paper's full comparison set in display order, with
// CVOPT last as in the figures. Senate is included for the ablation
// discussion of Section 3.1 but excluded from All (the paper reports it
// only as a component of CS); use WithSenate for the extended set.
func All() []Sampler {
	return []Sampler{Uniform{}, SampleSeek{}, Congress{}, RL{}, &CVOPT{}}
}

// WithSenate returns All plus the standalone Senate strategy.
func WithSenate() []Sampler {
	return []Sampler{Uniform{}, SampleSeek{}, Congress{}, RL{}, Senate{}, &CVOPT{}}
}
