package core

import (
	"fmt"
)

// allocateInf implements CVOPT-INF (Section 5): minimize the ℓ∞ norm of
// the per-group CVs,
//
//	max_i (σ_i/µ_i)·sqrt((n_i − s_i)/(n_i·s_i)),
//
// subject to Σ s_i ≤ M. By Lemma 4 the optimum equalizes all CVs, which
// reduces to x_i/(n_i − x_i) ∝ d_i with d_i = (σ_i/µ_i)²/n_i; the
// algorithm binary-searches the largest integer q ∈ [0, n] such that
//
//	Σ_i  (q·d_i/D)/(1 + q·d_i/D) · n_i  ≤  M,
//
// then assigns s_i = x_i/Σx_j · M, which Allocate rounds within caps.
// Total time is O(r log n), matching the paper.
//
// The paper defines CVOPT-INF for a single group-by clause; with several
// aggregation columns the per-group CV is the worst CV across that
// group's aggregates, a conservative and natural extension. Multiple
// group-by queries are rejected.
func (st *strata) infShares(m int) ([]float64, error) {
	if len(st.Queries) != 1 {
		return nil, fmt.Errorf("core: CVOPT-INF supports a single group-by query (got %d); the paper defines the ℓ∞ algorithm for SASG", len(st.Queries))
	}
	q := st.Queries[0]
	nc := st.StratumSizes()
	r := st.NumStrata()

	// d_i = (σ_i/µ_i)²/n_i per stratum; several aggregates take the max.
	// A stratification for a single query is exactly its grouping, so the
	// projection is the identity and stratum stats are group stats.
	d := make([]float64, r)
	var totalN int64
	for c := 0; c < r; c++ {
		totalN += nc[c]
		for _, ac := range q.Aggs {
			col := st.groups[c].Cols[st.aggColPos[ac.Column]]
			if col.Mean == 0 {
				if col.Variance() == 0 {
					continue // constant zero group: no sampling need
				}
				return nil, fmt.Errorf("core: group %q has zero mean on column %q; CV undefined",
					st.Key(c).String(), ac.Column)
			}
			cv := col.StdDev() / col.Mean
			if cv < 0 {
				cv = -cv
			}
			di := cv * cv / float64(nc[c])
			if di > d[c] {
				d[c] = di
			}
		}
	}

	var dTotal float64
	for _, di := range d {
		dTotal += di
	}
	if dTotal == 0 {
		// Every group is constant; any coverage works. Spread evenly.
		real := make([]float64, r)
		even := float64(m) / float64(r)
		for i := range real {
			real[i] = even
		}
		return real, nil
	}

	// x_i(q) as in the paper; S(q) = Σ x_i(q) is increasing in q. The
	// search needs only S, so x is materialized once, at the chosen q.
	xi := func(qv float64, i int) float64 {
		t := qv * d[i] / dTotal
		return t / (1 + t) * float64(nc[i])
	}

	// Binary search the largest integer q in [0, totalN] with S(q) <= M.
	lo, hi := int64(0), totalN
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		var s float64
		for i := 0; i < r; i++ {
			s += xi(float64(mid), i)
		}
		if s <= float64(m) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	qv := lo
	if qv == 0 {
		qv = 1
	}
	x := make([]float64, r)
	var sum float64
	for i := range x {
		x[i] = xi(float64(qv), i)
		sum += x[i]
	}
	if sum <= 0 {
		return nil, fmt.Errorf("core: CVOPT-INF degenerate allocation (q=%d)", qv)
	}
	// Scale to the budget (the paper's s_i = ceil(x_i/Σx_j · M), with
	// cap/repair as in RoundAllocation).
	for i := range x {
		x[i] = x[i] / sum * float64(m)
	}
	return x, nil
}
