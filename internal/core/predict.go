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
// query, group, aggregate order. It allocates nothing itself, and does
// O(1) work per estimate and per variance term: everything but the
// allocation was hoisted into the estimates by view.
func (st *strata) eachCV(alloc []int, visit func(qi, a, k int, cv, w float64)) {
	for qi, pr := range st.view() {
		nk := len(st.Queries[qi].Aggs)
		for i := range pr.est {
			e := &pr.est[i]
			if e.na2 == 0 {
				continue // an empty coarse group has no estimate
			}
			var varY float64
			undefined := false
			for _, t := range pr.terms[e.lo:e.hi] {
				s := float64(alloc[t.c])
				if s <= 0 {
					undefined = true
					break
				}
				varY += (t.nn2s/s - t.ns) / e.na2
			}
			cv := math.Inf(1)
			switch {
			case undefined:
			case e.mu == 0 && varY == 0:
				cv = 0
			case e.mu != 0:
				cv = math.Sqrt(math.Max(varY, 0)) / math.Abs(e.mu)
			}
			visit(qi, i/nk, i%nk, cv, e.w)
		}
	}
}
