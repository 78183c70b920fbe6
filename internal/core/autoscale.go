package core

import (
	"fmt"
	"math"
)

// Budget autoscaling: instead of guessing a row budget M, a caller
// states the accuracy it needs — "every per-group estimate with CV at
// most target" — and the autoscaler searches for the smallest budget
// whose *predicted* worst CV (Plan.PredictedCVs, Section 4.1) meets it.
// Via Chebyshev the target doubles as an a-priori error guarantee: the
// probability a relative error exceeds ε is at most (target/ε)², fixed
// before a single row is drawn.
//
// The search is pure evaluation over the already-computed plan
// statistics (no sampling, no table scans): an exponential probe brackets
// the first passing budget, bisection narrows the bracket, and a final
// step-down refinement guarantees the reported minimality — the budget
// one Step below the answer does NOT meet the target — even where
// integer rounding makes the CV curve locally non-monotone. Because the
// probe grid and the bisection decisions depend on the target only
// through "does this budget meet it", a tighter target can never choose
// a smaller budget than a looser one.

// AutoscaleParams configures one budget search.
type AutoscaleParams struct {
	// TargetCV is the goal: the worst predicted per-group CV of the
	// chosen allocation must not exceed it. Must be positive and finite.
	TargetCV float64
	// MaxBudget is the hard cap. When even MaxBudget cannot meet the
	// target, the search returns best-effort (Met=false) at the cap. 0
	// defaults to every drawable row: the table's row count for a Plan —
	// always sufficient, since a full sample has zero sampling error —
	// and the reservoirs' holdings for a StreamSampler, which may not be.
	MaxBudget int
	// MinBudget is the smallest candidate considered (default 1).
	MinBudget int
	// Step is the search granularity: the minimality guarantee is
	// "Budget−Step misses the target" (default 1, exact minimality).
	Step int
	// Opts selects the allocation norm and repair, exactly as passed to
	// Plan.Allocate for the final sample — the search must predict the
	// allocation that will actually be drawn.
	Opts Options
}

// AutoscaleResult reports the chosen budget and the guarantee it comes
// with.
type AutoscaleResult struct {
	// Budget is the chosen row budget: the smallest candidate meeting
	// TargetCV, or MaxBudget when the cap binds.
	Budget int
	// AchievedCV is the worst predicted per-group CV at Budget. +Inf
	// means some needed stratum stays unsampled even at the cap.
	AchievedCV float64
	// TargetCV echoes the request.
	TargetCV float64
	// Met reports whether AchievedCV <= TargetCV. False means the cap
	// bound the search and Budget/AchievedCV are best-effort.
	Met bool
	// Evaluations counts the distinct budgets whose allocation was
	// predicted — the search cost (O(log MaxBudget) by construction).
	Evaluations int
}

// WorstCV returns the largest predicted CV over all (query, group,
// aggregate) estimates under the given allocation — the quantity
// autoscaling drives below the target — walking the estimates
// PredictedCVs reports without building them. Estimates whose weight is
// zero are ignored: a caller that explicitly zero-weighted a group
// declared its accuracy irrelevant, so it must not hold the budget hostage.
// Weights otherwise gate inclusion only; they do not scale the CV,
// because the target is a per-group guarantee, not a norm.
func (st *strata) WorstCV(alloc []int) float64 {
	worst := 0.0
	st.eachCV(alloc, func(_, _, _ int, cv, w float64) {
		if w <= 0 {
			return
		}
		if cv > worst {
			worst = cv
		}
	})
	return worst
}

// Autoscale searches for the smallest budget whose predicted worst
// per-group CV meets params.TargetCV. See the package comment above for
// the search shape and its guarantees. The returned budget feeds
// Plan.Sample (or any Build path) unchanged; AchievedCV is the a-priori
// CV bound of that sample.
func (st *strata) Autoscale(params AutoscaleParams) (*AutoscaleResult, error) {
	target := params.TargetCV
	if !(target > 0) || math.IsInf(target, 1) {
		return nil, fmt.Errorf("core: target CV must be positive and finite, got %v", target)
	}
	st.view()
	drawable := 0
	for _, c := range st.caps {
		drawable += int(c)
	}
	if drawable == 0 {
		return nil, fmt.Errorf("core: cannot autoscale over an empty table")
	}
	maxB := params.MaxBudget
	if maxB <= 0 || maxB > drawable {
		// budgets beyond what the strata can supply allocate identically
		// to taking every drawable row (Allocate clamps at the caps), so
		// a larger cap only wastes probes
		maxB = drawable
	}
	minB := params.MinBudget
	if minB < 1 {
		minB = 1
	}
	if minB > maxB {
		minB = maxB
	}
	step := params.Step
	if step < 1 {
		step = 1
	}

	res := &AutoscaleResult{TargetCV: target}
	memo := make(map[int]float64)
	eval := func(m int) (float64, error) {
		if cv, ok := memo[m]; ok {
			return cv, nil
		}
		alloc, err := st.Allocate(m, params.Opts)
		if err != nil {
			return 0, fmt.Errorf("core: autoscale probing budget %d: %w", m, err)
		}
		cv := st.WorstCV(alloc)
		memo[m] = cv
		res.Evaluations++
		return cv, nil
	}

	// Exponential probe: double from MinBudget until a budget meets the
	// target or the cap is reached. The probe sequence is fixed (it does
	// not depend on the target except through pass/fail), which is what
	// makes the chosen budget monotone in the target.
	hi := minB
	cv, err := eval(hi)
	if err != nil {
		return nil, err
	}
	lo := minB - 1 // everything at or below lo is known/assumed failing
	for cv > target && hi < maxB {
		lo = hi
		hi *= 2
		if hi > maxB || hi < 0 { // < 0: overflow guard
			hi = maxB
		}
		if cv, err = eval(hi); err != nil {
			return nil, err
		}
	}
	if cv > target {
		// cap binds: best effort at the cap, with the achieved CV so the
		// caller knows exactly what guarantee it is getting instead
		res.Budget, res.AchievedCV, res.Met = maxB, cv, false
		return res, nil
	}

	// Bisection inside (lo, hi]: hi meets the target, lo does not.
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		mcv, err := eval(mid)
		if err != nil {
			return nil, err
		}
		if mcv <= target {
			hi = mid
		} else {
			lo = mid
		}
	}

	// Step-down refinement: integer rounding (largest-remainder,
	// min-per-stratum repair) can make the CV curve locally non-monotone,
	// so bisection alone cannot promise minimality. Walk down while the
	// budget one Step below still meets the target; on exit the reported
	// guarantee — Budget meets, Budget−Step does not — holds by
	// construction.
	for hi-step >= minB {
		bcv, err := eval(hi - step)
		if err != nil {
			return nil, err
		}
		if bcv > target {
			break
		}
		hi -= step
	}
	acv, err := eval(hi)
	if err != nil {
		return nil, err
	}
	res.Budget, res.AchievedCV, res.Met = hi, acv, true
	return res, nil
}
