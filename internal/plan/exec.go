package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/table"
)

// batchSize is the vectorized batch width: large enough to amortize
// per-batch dispatch, small enough that a plan's scratch vectors stay
// cache-resident.
const batchSize = 1024

// setState is the per-execution accumulation state of one grouping set:
// the grouping kernel that maps rows to dense group ids in first-visit
// order (the interpreter's visit order over the same row stream, so
// per-group accumulation order is identical) and the accumulators those
// ids index.
type setState struct {
	g    *table.Grouper
	accs []aggAcc // flat per-(gid, site): len = numGroups * stride
}

// accumulate folds one site's batch values into the per-group
// accumulators. The per-(group, site) observation stream is in row
// order — exactly the interpreter's — so floating-point accumulation
// is bit-identical.
func accumulateSite(accs []aggAcc, stride, si int, kind aggKind, gids []int32, xs, ws []float64, n int) {
	switch kind {
	case aggCount:
		for j := 0; j < n; j++ {
			accs[int(gids[j])*stride+si].accumulate(1, ws[j])
		}
	case aggMin, aggMax:
		for j := 0; j < n; j++ {
			a := &accs[int(gids[j])*stride+si]
			x := xs[j]
			if !a.seen {
				a.minV, a.maxV = x, x
				a.seen = true
			} else {
				if x < a.minV {
					a.minV = x
				}
				if x > a.maxV {
					a.maxV = x
				}
			}
		}
	default: // AVG/SUM/VAR/STDDEV and COUNT_IF's prepared 0/1 vector
		for j := 0; j < n; j++ {
			accs[int(gids[j])*stride+si].accumulate(xs[j], ws[j])
		}
	}
}

// Binds reports whether p can execute over tbl — the check a plan cache
// runs before reusing a plan for a table that may have been replaced.
func (p *Plan) Binds(tbl *table.Table) bool { return p.bindCheck(tbl) == nil }

// bindCheck verifies the executing table still matches the schema the
// plan was compiled against (streaming snapshots share it; a mismatch
// means the caller's cache is stale and it should recompile).
func (p *Plan) bindCheck(tbl *table.Table) error {
	if len(tbl.Columns) != len(p.schema) {
		return fmt.Errorf("plan: table %q has %d columns, plan compiled for %d", tbl.Name, len(tbl.Columns), len(p.schema))
	}
	for i, col := range tbl.Columns {
		if col.Spec != p.schema[i] {
			return fmt.Errorf("plan: column %d of table %q changed kind or name since compile", i, tbl.Name)
		}
	}
	return nil
}

// Execute evaluates the plan over tbl: the full table with unit
// weights when rows is nil, or the weighted row sample otherwise —
// the same contract as exec.Run / exec.RunWeighted, with bit-identical
// output.
func (p *Plan) Execute(tbl *table.Table, rows []int32, weights []float64) (*exec.Result, error) {
	if rows != nil && len(rows) != len(weights) {
		return nil, fmt.Errorf("plan: %d rows but %d weights", len(rows), len(weights))
	}
	if err := p.bindCheck(tbl); err != nil {
		return nil, err
	}

	ec := newExecCtx(tbl.Columns, p.numSlots, p.boolSlots, p.tabSlots)
	stride := len(p.sites)
	states := make([]*setState, len(p.setNames))
	for i, attrs := range p.setNames {
		g, err := table.NewGrouper(tbl, attrs)
		if err != nil {
			return nil, err
		}
		states[i] = &setState{g: g}
	}

	rowBuf := make([]int32, batchSize)
	wBuf := make([]float64, batchSize)
	gidBuf := make([]int32, batchSize)
	argVecs := make([][]float64, len(p.sites))

	total := tbl.NumRows()
	if rows != nil {
		total = len(rows)
	}
	for start := 0; start < total; start += batchSize {
		n := total - start
		if n > batchSize {
			n = batchSize
		}
		if rows == nil {
			for i := 0; i < n; i++ {
				rowBuf[i] = int32(start + i)
				wBuf[i] = 1
			}
		} else {
			copy(rowBuf[:n], rows[start:start+n])
			copy(wBuf[:n], weights[start:start+n])
		}
		ec.rows, ec.n = rowBuf, n

		if p.where != nil {
			sel := p.where.eval(ec)
			m := 0
			for i := 0; i < n; i++ {
				if sel[i] {
					rowBuf[m], wBuf[m] = rowBuf[i], wBuf[i]
					m++
				}
			}
			n = m
			ec.n = n
		}
		if n == 0 {
			continue
		}

		// Site argument vectors are evaluated once per batch and shared
		// across grouping sets: arguments are pure, so every set would
		// compute the same values anyway.
		for si := range p.sites {
			s := &p.sites[si]
			switch {
			case s.argNum != nil:
				argVecs[si] = s.argNum.eval(ec)
			case s.argBool != nil:
				bv := s.argBool.eval(ec)
				xs := ec.nums[s.cifSlot][:n]
				for i, b := range bv {
					if b {
						xs[i] = 1
					} else {
						xs[i] = 0
					}
				}
				argVecs[si] = xs
			default:
				argVecs[si] = nil
			}
		}

		for _, st := range states {
			st.g.Assign(rowBuf[:n], gidBuf)
			if need := st.g.NumGroups()*stride - len(st.accs); need > 0 {
				st.accs = append(st.accs, make([]aggAcc, need)...) // groups this batch created
			}
			for si := range p.sites {
				accumulateSite(st.accs, stride, si, p.sites[si].kind, gidBuf[:n], argVecs[si], wBuf[:n], n)
			}
		}
	}

	res := &exec.Result{
		GroupAttrs: p.groupAttrs,
		Sets:       p.setNames,
		AggLabels:  p.aggLabels,
	}
	for setIdx, st := range states {
		// The interpreter sorts groups by their "\x00"-joined rendered
		// keys; joined keys are unique per group, so this order matches
		// its sort.Strings exactly.
		order := make([]int, st.g.NumGroups())
		joined := make([]string, len(order))
		for gid := range order {
			order[gid] = gid
			joined[gid] = strings.Join(st.g.Key(gid), "\x00")
		}
		sort.Slice(order, func(i, j int) bool { return joined[order[i]] < joined[order[j]] })
		for _, gid := range order {
			siteVals := make([]float64, stride)
			for si := range p.sites {
				siteVals[si] = st.accs[gid*stride+si].final(p.sites[si].kind)
			}
			if p.having != nil && !p.having(siteVals) {
				continue
			}
			aggs := make([]float64, len(p.items))
			for ii, combine := range p.items {
				aggs[ii] = combine(siteVals)
			}
			row := exec.Row{Set: setIdx, Key: st.g.Key(gid), Aggs: aggs}
			if rows != nil {
				row.SE = make([]float64, len(p.items))
				for ii, site := range p.itemSite {
					if site >= 0 {
						row.SE[ii] = st.accs[gid*stride+site].stdErr(p.sites[site].kind)
					} else {
						row.SE[ii] = math.NaN()
					}
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	exec.ApplyOrderAndLimit(res, p.orderBy, p.limit)
	return res, nil
}
