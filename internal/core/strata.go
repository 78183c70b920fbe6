package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/stats"
	"repro/internal/table"
)

// strata is the one model of the paper's offline chain — finest
// stratification C = ∪A_i → per-stratum (n_c, µ_c, σ_c) → projection
// Π(c, A_i) → β_c → s_c → predicted CV — and the one solver over it.
// It has two feeders: Plan fills it from a stored table in two passes
// (group index, then statistics); StreamSampler grows it row by row.
// Everything downstream (Betas, Allocate, PredictedCVs, WorstCV,
// Autoscale) reads the model and is therefore shared, promoted method
// by promoted method.
type strata struct {
	Queries    []QuerySpec
	StratAttrs []string // C, in first-appearance order

	aggCols   []string       // union of aggregation columns, in first-appearance order
	aggColPos map[string]int // name -> position in every GroupStats
	attrPos   [][]int        // per query: positions of its GroupBy in StratAttrs

	grouper *table.Grouper      // stratum ids, keys and representative rows
	groups  []*stats.GroupStats // per stratum; the only owner of n_c
	// capacity is the most rows any one stratum can contribute to a
	// draw: a StreamSampler's reservoir size, or 0 for a Plan, which can
	// draw a whole stratum.
	capacity int

	// derived from groups by view(); stale marks them out of date
	stale   bool
	caps    []int64      // per stratum: min(n_c, capacity)
	proj    []projection // per query
	betas   []float64    // per stratum: β_c, which does not depend on M
	betaErr error        // why β is undefined (a zero-mean coarse group), or nil
	roots   []float64    // per stratum: β_c^½, the ℓ2 shares before scaling to M
	rootSum float64      // Σ roots in stratum order
	rootErr error        // why β cannot be shared out (see powers), or nil
}

// projection is Π(·, A_i) for one query: where every stratum lands, which
// strata make up every coarse group, the coarse groups' keys and merged
// statistics, and its estimates.
type projection struct {
	f2c     []int               // stratum -> coarse group
	members [][]int32           // coarse group -> its strata, ascending
	keys    []table.GroupKey    // per coarse group
	stats   []*stats.GroupStats // per coarse group: (n_a, µ_a, σ_a) merged over members
	est     []estimate          // per (coarse group a, aggregate k of the query): at a·len(Aggs)+k
	terms   []cvTerm            // every estimate's terms, estimate by estimate
}

// estimate is one (coarse group a, aggregate) estimate of a query with
// everything its Section 4.1 variance
//
//	VAR[y_a] = Σ_c (n_c²σ_c²/s_c − n_cσ_c²) / n_a²
//
// needs except the allocation s: the sum runs over terms[lo:hi], one per
// member stratum with σ_c² > 0, in ascending stratum id.
type estimate struct {
	mu     float64 // µ_a
	na2    float64 // n_a²
	w      float64 // the weight, GroupWeights resolved
	lo, hi int
}

// cvTerm is one member stratum's share of an estimate's variance.
type cvTerm struct {
	c    int32   // the stratum
	nn2s float64 // n_c²σ_c²
	ns   float64 // n_cσ_c²
}

// analyze is the one workload analysis: it validates the queries and
// forms the attribute union C and the aggregation-column union.
func analyze(queries []QuerySpec) (strata, error) {
	if len(queries) == 0 {
		return strata{}, errors.New("core: no queries")
	}
	st := strata{Queries: queries, aggColPos: map[string]int{}, stale: true}
	seen := map[string]int{}
	for qi, q := range queries {
		if err := q.Validate(); err != nil {
			return strata{}, fmt.Errorf("core: query %d: %w", qi, err)
		}
		pos := make([]int, len(q.GroupBy))
		for i, a := range q.GroupBy {
			p, ok := seen[a]
			if !ok {
				p = len(st.StratAttrs)
				seen[a] = p
				st.StratAttrs = append(st.StratAttrs, a)
			}
			pos[i] = p
		}
		st.attrPos = append(st.attrPos, pos)
		for _, ac := range q.Aggs {
			if _, ok := st.aggColPos[ac.Column]; !ok {
				st.aggColPos[ac.Column] = len(st.aggCols)
				st.aggCols = append(st.aggCols, ac.Column)
			}
		}
	}
	return st, nil
}

// StratAttrs returns the finest stratification C = ∪ A_i of a workload,
// in first-appearance order, validating the queries on the way.
func StratAttrs(queries []QuerySpec) ([]string, error) {
	st, err := analyze(queries)
	return st.StratAttrs, err
}

// aggColumns resolves the aggregation-column union against tbl; every
// column must exist and be numeric.
func (st *strata) aggColumns(tbl *table.Table) ([]*table.Column, error) {
	cols := make([]*table.Column, len(st.aggCols))
	for i, name := range st.aggCols {
		cols[i] = tbl.Column(name)
		if cols[i] == nil {
			return nil, fmt.Errorf("core: workload aggregates unknown column %q", name)
		}
		if cols[i].Spec.Kind == table.String {
			return nil, fmt.Errorf("core: cannot aggregate string column %q", name)
		}
	}
	return cols, nil
}

// view returns the per-query projections, re-deriving them, the caps, β
// and its roots first if a feeder has changed the per-stratum statistics
// since. Coarse statistics merge member strata in ascending stratum id,
// so they do not depend on which feeder built the model.
func (st *strata) view() []projection {
	if !st.stale {
		return st.proj
	}
	st.caps = make([]int64, len(st.groups))
	for c, g := range st.groups {
		st.caps[c] = g.N()
		if st.capacity > 0 {
			st.caps[c] = min(st.caps[c], int64(st.capacity))
		}
	}
	st.proj = make([]projection, len(st.Queries))
	for qi := range st.Queries {
		f2c, keys := st.grouper.Project(st.attrPos[qi])
		pr := projection{f2c: f2c, keys: keys, members: make([][]int32, len(keys)), stats: make([]*stats.GroupStats, len(keys))}
		for a := range keys {
			pr.stats[a] = stats.NewGroupStats(len(st.aggCols))
		}
		for c, a := range f2c {
			pr.members[a] = append(pr.members[a], int32(c))
			_ = pr.stats[a].Merge(st.groups[c]) // cannot fail: every GroupStats here has len(aggCols) columns
		}
		st.hoist(qi, &pr)
		st.proj[qi] = pr
	}
	st.betas, st.betaErr = st.deriveBetas()
	st.roots, st.rootSum, st.rootErr = powers(st.betas, 0.5)
	st.stale = false
	return st.proj
}

// hoist fills query qi's estimates and their terms from the projection's
// members and statistics.
func (st *strata) hoist(qi int, pr *projection) {
	aggs := st.Queries[qi].Aggs
	pr.est = make([]estimate, 0, len(pr.keys)*len(aggs))
	for a, key := range pr.keys {
		na := float64(pr.stats[a].N())
		k := key.String()
		for _, ac := range aggs {
			pos := st.aggColPos[ac.Column]
			e := estimate{mu: pr.stats[a].Cols[pos].Mean, na2: na * na, w: ac.weightFor(k), lo: len(pr.terms)}
			for _, c := range pr.members[a] {
				g := st.groups[c]
				sigma2 := g.Cols[pos].Variance()
				if sigma2 == 0 {
					continue // a constant stratum adds no variance
				}
				n := float64(g.N())
				pr.terms = append(pr.terms, cvTerm{c: c, nn2s: n * n * sigma2, ns: n * sigma2})
			}
			e.hi = len(pr.terms)
			pr.est = append(pr.est, e)
		}
	}
}

// NumStrata returns |C|, the number of finest strata.
func (st *strata) NumStrata() int { return len(st.groups) }

// Key returns the attribute values of stratum c, in StratAttrs order.
func (st *strata) Key(c int) table.GroupKey { return st.grouper.Key(c) }

// AggColumns returns the union of aggregation columns, in plan order.
func (st *strata) AggColumns() []string { return slices.Clone(st.aggCols) }

// StratumSizes returns n_c per stratum.
func (st *strata) StratumSizes() []int64 {
	n := make([]int64, len(st.groups))
	for c, g := range st.groups {
		n[c] = g.N()
	}
	return n
}

// CoarseGroups returns query q's projection Π(·, A_q): the coarse group
// keys, their merged statistics (n_a, µ_a, σ_a per aggregation column),
// and the coarse group each stratum belongs to.
func (st *strata) CoarseGroups(q int) (keys []table.GroupKey, coarse []*stats.GroupStats, fineToCoarse []int) {
	pr := st.view()[q]
	return pr.keys, pr.stats, pr.f2c
}

// Betas returns the per-stratum allocation scores of the general MAMG
// formula (Section 4.2):
//
//	β_c = n_c² Σ_i [ 1/n²_{Π(c,A_i)} Σ_{ℓ∈L_i} w_{Π(c,A_i),ℓ} σ²_{c,ℓ} / µ²_{Π(c,A_i),ℓ} ]
//
// which specializes to α_i = Σ_j w_ij σ_ij²/µ_ij² for a single group-by
// (Theorems 1–2) and to Lemma 2/3's β for one or two queries. Strata
// whose coarse groups have zero mean contribute +Inf CV; the paper
// assumes non-zero means, so such terms are rejected with an error.
func (st *strata) Betas() ([]float64, error) {
	st.view()
	if st.betaErr != nil {
		return nil, st.betaErr
	}
	return slices.Clone(st.betas), nil
}

// deriveBetas computes β over freshly derived projections, once per view.
func (st *strata) deriveBetas() ([]float64, error) {
	betas := make([]float64, len(st.groups))
	for qi, pr := range st.proj {
		aggs := st.Queries[qi].Aggs
		for c, g := range st.groups {
			a := pr.f2c[c]
			na := float64(pr.stats[a].N())
			if na == 0 {
				continue
			}
			var inner float64
			for k, ac := range aggs {
				sigma2 := g.Cols[st.aggColPos[ac.Column]].Variance()
				if sigma2 == 0 {
					continue // constant stratum: no sampling need (paper §5)
				}
				e := &pr.est[a*len(aggs)+k]
				if e.mu == 0 {
					return nil, fmt.Errorf("core: group %q has zero mean on column %q; CV undefined (paper §1 assumes non-zero means)",
						pr.keys[a].String(), ac.Column)
				}
				inner += e.w * sigma2 / (e.mu * e.mu)
			}
			nc := float64(g.N())
			betas[c] += nc * nc * inner / (na * na)
		}
	}
	return betas, nil
}

// Allocate computes the integer sample-size assignment for budget M
// under the chosen norm, never giving a stratum more rows than it can
// supply (n_c, or the reservoir's share of it on a stream). The returned
// slice has one entry per stratum of the finest stratification.
func (st *strata) Allocate(m int, opts Options) ([]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: non-positive budget %d", m)
	}
	st.view()
	var real []float64
	var err error
	switch opts.Norm {
	case L2, Lp:
		switch {
		case st.betaErr != nil:
			return nil, st.betaErr
		case opts.Norm == L2:
			// the roots view cached: a probe raises nothing to a power
			real, err = scaleShares(st.roots, st.rootSum, float64(m)), st.rootErr
		case opts.P < 1:
			return nil, fmt.Errorf("core: Lp norm requires P >= 1, got %v", opts.P)
		default:
			real, err = powerAllocation(st.betas, float64(m), opts.P/(opts.P+2))
		}
	case LInf:
		real, err = st.infShares(m)
	default:
		return nil, fmt.Errorf("core: unknown norm %v", opts.Norm)
	}
	if err != nil {
		return nil, err
	}
	return RoundAllocation(real, st.caps, m, opts.minPerStratum())
}
