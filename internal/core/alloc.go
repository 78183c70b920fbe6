package core

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
)

// SqrtAllocation is the Lemma 1 solution: minimize Σ α_i/s_i subject to
// Σ s_i = M over positive reals, which gives s_i = M·√α_i / Σ_j √α_j.
// Negative αs are rejected; an all-zero α vector yields a uniform split.
func SqrtAllocation(alphas []float64, m float64) ([]float64, error) {
	return powerAllocation(alphas, m, 0.5)
}

// powerAllocation assigns s_i ∝ α_i^exp (exp in (0,1]); exp = 1/2 is
// Lemma 1 (ℓ2), exp = p/(p+2) is the ℓp generalization without the
// finite-population correction.
func powerAllocation(alphas []float64, m float64, exp float64) ([]float64, error) {
	if m < 0 {
		return nil, fmt.Errorf("core: negative budget %v", m)
	}
	out := make([]float64, len(alphas))
	var total float64
	for i, a := range alphas {
		if a < 0 || math.IsNaN(a) {
			return nil, fmt.Errorf("core: invalid alpha[%d] = %v", i, a)
		}
		if math.IsInf(a, 1) {
			return nil, fmt.Errorf("core: infinite alpha[%d]", i)
		}
		out[i] = math.Pow(a, exp)
		total += out[i]
	}
	if total == 0 {
		// degenerate: all groups have zero relative variance; split evenly.
		if len(out) > 0 {
			even := m / float64(len(out))
			for i := range out {
				out[i] = even
			}
		}
		return out, nil
	}
	for i := range out {
		out[i] = m * out[i] / total
	}
	return out, nil
}

// RoundAllocation converts a real-valued allocation into integers that
// (a) sum to at most M, (b) never exceed the stratum population caps,
// (c) when the budget permits, give every non-empty stratum at least
// minPer rows, and (d) redistribute budget freed by caps to the remaining
// strata in proportion to their real allocation (water-filling). This is
// the "repair" step that lets CVOPT handle small groups that RL breaks
// on (Section 6.1).
func RoundAllocation(real []float64, caps []int64, m int, minPer int) ([]int, error) {
	if len(real) != len(caps) {
		return nil, fmt.Errorf("core: %d allocations vs %d caps", len(real), len(caps))
	}
	n := len(real)
	out := make([]int, n)
	if n == 0 || m <= 0 {
		return out, nil
	}

	// Clamp the total possible allocation: if the budget exceeds the
	// population, everything is taken in full.
	var totalCap int64
	for _, c := range caps {
		if c < 0 {
			return nil, errors.New("core: negative stratum cap")
		}
		totalCap += c
	}
	if int64(m) >= totalCap {
		for i, c := range caps {
			out[i] = int(c)
		}
		return out, nil
	}

	// Water-filling over the real allocation: repeatedly cap strata whose
	// proportional share exceeds their population and re-share the rest.
	share := append([]float64(nil), real...)
	capped := make([]bool, n)
	budget := float64(m)
	for {
		var sumShare float64
		for i := range share {
			if !capped[i] {
				sumShare += share[i]
			}
		}
		if sumShare <= 0 {
			break
		}
		overflow := false
		scale := budget / sumShare
		for i := range share {
			if capped[i] {
				continue
			}
			if share[i]*scale >= float64(caps[i]) {
				capped[i] = true
				budget -= float64(caps[i])
				overflow = true
			}
		}
		if !overflow {
			for i := range share {
				if !capped[i] {
					share[i] *= scale
				} else {
					share[i] = float64(caps[i])
				}
			}
			break
		}
	}
	for i := range share {
		if capped[i] {
			share[i] = float64(caps[i])
		}
	}

	// Largest-remainder rounding within caps.
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, 0, n)
	used := 0
	for i, s := range share {
		fl := math.Floor(s)
		if fl > float64(caps[i]) {
			fl = float64(caps[i])
		}
		out[i] = int(fl)
		used += out[i]
		rems = append(rems, rem{i, s - fl})
	}
	slices.SortFunc(rems, func(a, b rem) int { return cmp.Compare(b.f, a.f) })
	for _, r := range rems {
		if used >= m {
			break
		}
		if int64(out[r.i]) < caps[r.i] {
			out[r.i]++
			used++
		}
	}
	// Any residual budget (possible when many strata hit caps mid-round)
	// goes to uncapped strata in descending real-share order.
	if used < m {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(share[b], share[a]) })
		for used < m {
			progress := false
			for _, i := range order {
				if used >= m {
					break
				}
				if int64(out[i]) < caps[i] {
					out[i]++
					used++
					progress = true
				}
			}
			if !progress {
				break
			}
		}
	}

	// Minimum-representation repair: if the budget can cover minPer rows
	// for every non-empty stratum, steal from the largest allocations.
	if minPer > 0 {
		var nonEmpty int
		for _, c := range caps {
			if c > 0 {
				nonEmpty++
			}
		}
		if m >= nonEmpty*minPer {
			d := donors{out: out}
			for j, v := range out {
				if v > minPer && caps[j] > 0 {
					d.idx = append(d.idx, j)
				}
			}
			heap.Init(&d)
			// recipients sit below the floor, so they never become donors
			for i := range out {
				want := min(minPer, int(caps[i]))
				for out[i] < want && d.Len() > 0 {
					j := d.idx[0]
					out[j]--
					out[i]++
					if out[j] > minPer {
						heap.Fix(&d, 0)
					} else {
						heap.Pop(&d)
					}
				}
			}
		}
	}
	return out, nil
}

// donors is a max-heap of the strata allocated strictly above the floor,
// richest first and lowest index among equals, so the repair steals from
// exactly the stratum a first-index argmax scan would pick.
type donors struct {
	idx []int
	out []int
}

func (d *donors) Len() int { return len(d.idx) }
func (d *donors) Less(a, b int) bool {
	i, j := d.idx[a], d.idx[b]
	return d.out[i] > d.out[j] || d.out[i] == d.out[j] && i < j
}
func (d *donors) Swap(a, b int) { d.idx[a], d.idx[b] = d.idx[b], d.idx[a] }
func (d *donors) Push(x any)    { d.idx = append(d.idx, x.(int)) }
func (d *donors) Pop() any {
	x := d.idx[len(d.idx)-1]
	d.idx = d.idx[:len(d.idx)-1]
	return x
}

// SumInts is a small helper used across the package and its tests.
func SumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
