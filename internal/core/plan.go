package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/table"
)

// Plan is the precomputed state of CVOPT's offline phase for a table and
// a set of queries: the strata model (the finest stratification
// C = ∪ A_i, the per-stratum statistics of every aggregation column, and
// for every query the projection Π(·, A_i) with the coarse-group
// statistics it induces) fed from a stored table, plus the row index
// pass 2 draws from. Every stratum can be drawn in full, so allocations
// are capped at n_c.
type Plan struct {
	strata
	Table     *table.Table
	Index     *table.GroupIndex // finest stratification index
	Collector *stats.Collector  // per-stratum stats, one column per AggColumns entry
}

// NewPlan validates the queries, builds the finest stratification over
// the union of all group-by attributes, and performs the single
// statistics pass (Welford per stratum per aggregation column).
func NewPlan(tbl *table.Table, queries []QuerySpec) (*Plan, error) {
	if tbl == nil {
		return nil, errors.New("core: nil table")
	}
	st, err := analyze(queries)
	if err != nil {
		return nil, err
	}
	aggs, err := st.aggColumns(tbl)
	if err != nil {
		return nil, err
	}
	gi, err := table.BuildGroupIndex(tbl, st.StratAttrs)
	if err != nil {
		return nil, err
	}

	// Pass 1: per-stratum statistics for every aggregation column. Large
	// tables are scanned by parallel workers over fixed-size row chunks
	// whose per-stratum summaries merge (Welford/Chan) in chunk order, so
	// the result is the same bits on every host, and equals a sequential
	// scan's up to float rounding.
	collector := collectStats(gi, aggs)
	st.grouper = gi.Grouper()
	st.groups = make([]*stats.GroupStats, gi.NumStrata())
	for c := range st.groups {
		st.groups[c] = collector.Group(c)
	}
	p := &Plan{strata: st, Table: tbl, Index: gi, Collector: collector}
	p.view() // derive the projections now: a Plan is read-only from here on
	return p, nil
}

// Sample runs pass 2: draws Allocate's sizes uniformly without
// replacement within each stratum.
func (p *Plan) Sample(m int, opts Options, rng *rand.Rand) (*sample.StratifiedSample, []int, error) {
	sizes, err := p.Allocate(m, opts)
	if err != nil {
		return nil, nil, err
	}
	ss, err := sample.DrawStratified(p.Index.RowsByStratum(), sizes, p.StratAttrs, rng)
	if err != nil {
		return nil, nil, err
	}
	return ss, sizes, nil
}

// ObjectiveL2 evaluates the exact (finite-population-corrected) weighted
// squared-ℓ2 objective Σ_i w_i CV[y_i]² for a given integer allocation,
// summing over every (query, group, aggregate) estimate. Groups with an
// unsampled stratum contribute +Inf (the estimate is undefined), which is
// what makes Uniform lose on max error in the experiments. Used by tests
// to verify optimality and by the ablation benches.
func (p *Plan) ObjectiveL2(alloc []int) float64 {
	var total float64
	for _, e := range p.PredictedCVs(alloc) {
		total += e.Weight * e.CV * e.CV
	}
	return total
}

// ObjectiveLInf evaluates max_i CV[y_i] for an allocation (weights are
// not applied, matching Section 5).
func (p *Plan) ObjectiveLInf(alloc []int) float64 {
	m := 0.0
	for _, e := range p.PredictedCVs(alloc) {
		if e.CV > m {
			m = e.CV
		}
	}
	return m
}

// DescribeAllocation renders an allocation for diagnostics: stratum key,
// population, sample size.
func (p *Plan) DescribeAllocation(alloc []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stratification %v, %d strata\n", p.StratAttrs, p.NumStrata())
	for c, g := range p.groups {
		fmt.Fprintf(&sb, "  %-30s n=%-8d s=%d\n", p.Key(c).String(), g.N(), alloc[c])
	}
	return sb.String()
}
