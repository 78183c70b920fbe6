package core

import (
	"math"
)

// EstimateCV is the predicted coefficient of variation of one per-group
// estimator under a candidate allocation — the quantity the CVOPT
// objective aggregates. Via Chebyshev (Section 1), the relative error of
// the estimate exceeds ε with probability at most (CV/ε)²; PredictedCVs
// therefore doubles as an a-priori error report for a sample before it
// is drawn.
type EstimateCV struct {
	Query  int     // index into the plan's queries
	Group  string  // rendered group key (GroupKey.String())
	Column string  // aggregation column
	CV     float64 // predicted CV; +Inf when a needed stratum is unsampled
	Weight float64 // the weight this estimate carries in the objective
}

// PredictedCVs computes, for every (query, group, aggregate) estimate,
// the CV implied by the given integer allocation using
// VAR[y_a] = 1/n_a² Σ_{c∈C(a)} [n_c²σ_c²/s_c − n_cσ_c²] (Section 4.1),
// summing each group's member strata in ascending stratum id.
func (st *strata) PredictedCVs(alloc []int) []EstimateCV {
	var out []EstimateCV
	st.eachCV(alloc, func(qi, a, k int, cv, w float64) {
		out = append(out, EstimateCV{Query: qi, Group: st.proj[qi].keys[a].String(),
			Column: st.Queries[qi].Aggs[k].Column, CV: cv, Weight: w})
	})
	return out
}

// eachCV is the one Section 4.1 walk: it hands visit the predicted CV and
// the weight of estimate (query qi, coarse group a, aggregate k), in
// query, group, aggregate order. It allocates nothing itself.
func (st *strata) eachCV(alloc []int, visit func(qi, a, k int, cv, w float64)) {
	for qi, pr := range st.view() {
		aggs := st.Queries[qi].Aggs
		for a := range pr.keys {
			na := float64(pr.stats[a].N())
			if na == 0 {
				continue
			}
			for k, ac := range aggs {
				pos := st.aggColPos[ac.Column]
				mu := pr.stats[a].Cols[pos].Mean
				var varY float64
				undefined := false
				for _, c := range pr.members[a] {
					sigma2 := st.groups[c].Cols[pos].Variance()
					if sigma2 == 0 {
						continue
					}
					s := float64(alloc[c])
					if s <= 0 {
						undefined = true
						break
					}
					n := float64(st.groups[c].N())
					varY += (n*n*sigma2/s - n*sigma2) / (na * na)
				}
				cv := math.Inf(1)
				switch {
				case undefined:
				case mu == 0 && varY == 0:
					cv = 0
				case mu != 0:
					cv = math.Sqrt(math.Max(varY, 0)) / math.Abs(mu)
				}
				visit(qi, a, k, cv, pr.weights[a*len(aggs)+k])
			}
		}
	}
}
