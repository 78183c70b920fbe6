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
	pow, total, err := powers(alphas, exp)
	if err != nil {
		return nil, err
	}
	return scaleShares(pow, total, m), nil
}

// powers validates the αs and returns α_i^exp with their sum in index
// order: the half of powerAllocation that does not depend on the budget.
func powers(alphas []float64, exp float64) ([]float64, float64, error) {
	pow := make([]float64, len(alphas))
	var total float64
	for i, a := range alphas {
		if a < 0 || math.IsNaN(a) {
			return nil, 0, fmt.Errorf("core: invalid alpha[%d] = %v", i, a)
		}
		if math.IsInf(a, 1) {
			return nil, 0, fmt.Errorf("core: infinite alpha[%d]", i)
		}
		pow[i] = math.Pow(a, exp)
		total += pow[i]
	}
	return pow, total, nil
}

// scaleShares is the other half: the real allocation m·pow_i/total.
func scaleShares(pow []float64, total, m float64) []float64 {
	out := make([]float64, len(pow))
	for i, p := range pow {
		if total == 0 {
			// degenerate: all groups have zero relative variance; split evenly.
			out[i] = m / float64(len(out))
		} else {
			out[i] = m * p / total
		}
	}
	return out
}

// RoundAllocation converts a real-valued allocation into integers that
// (a) sum to at most M, (b) never exceed the stratum population caps,
// (c) when the budget permits, give every non-empty stratum at least
// minPer rows, and (d) redistribute budget freed by caps to the remaining
// strata in proportion to their real allocation (water-filling). This is
// the "repair" step that lets CVOPT handle small groups that RL breaks
// on (Section 6.1). Rounding hands the rows left after flooring to the
// strata below their cap with the largest fractional parts; ties go to
// the lower stratum index.
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

	// Largest-remainder rounding within caps: one more row each for the
	// m−used strata still below their cap that come first in rounding
	// order. Selecting them is O(strata); no sort is needed.
	rems := make([]remainder, 0, n)
	used := 0
	for i, s := range share {
		fl := math.Floor(s)
		if fl > float64(caps[i]) {
			fl = float64(caps[i])
		}
		out[i] = int(fl)
		used += out[i]
		if int64(out[i]) < caps[i] {
			rems = append(rems, remainder{i, s - fl})
		}
	}
	if k := min(m-used, len(rems)); k > 0 {
		selectFirst(rems, k)
		for _, r := range rems[:k] {
			out[r.i]++
		}
		used += k
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

// remainder is stratum i's fractional share f after flooring.
type remainder struct {
	i int
	f float64
}

// before is the rounding order: the larger fractional part first, the
// lower stratum index among equals.
func before(a, b remainder) bool {
	if c := cmp.Compare(a.f, b.f); c != 0 {
		return c > 0
	}
	return a.i < b.i
}

// selectFirst reorders rs so that rs[:k] holds the k entries that come
// first in rounding order, in no particular order among themselves:
// quickselect with a median-of-three pivot, expected O(len(rs)).
func selectFirst(rs []remainder, k int) {
	// invariant: every entry of rs[:lo] comes before every entry of
	// rs[lo:], every entry of rs[:hi] before every entry of rs[hi:], and
	// lo ≤ k ≤ hi
	lo, hi := 0, len(rs)
	for lo < k && k < hi {
		last := hi - 1
		piv := medianOf3(rs, lo, lo+(hi-lo)/2, last)
		rs[piv], rs[last] = rs[last], rs[piv]
		p := lo
		for j := lo; j < last; j++ {
			if before(rs[j], rs[last]) {
				rs[p], rs[j] = rs[j], rs[p]
				p++
			}
		}
		rs[p], rs[last] = rs[last], rs[p]
		if k <= p {
			hi = p
		} else {
			lo = p + 1
		}
	}
}

// medianOf3 returns whichever of a, b and c holds the middle entry in
// rounding order.
func medianOf3(rs []remainder, a, b, c int) int {
	if before(rs[b], rs[a]) {
		a, b = b, a
	}
	if !before(rs[c], rs[b]) {
		return b
	}
	if before(rs[c], rs[a]) {
		return a
	}
	return c
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
