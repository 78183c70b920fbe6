package plan

import (
	"encoding/binary"
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

// grouping strategies, picked per grouping set at Execute time.
const (
	gmGlobal uint8 = iota // no group columns: a single grand-total group
	gmDense               // one string column: dense code → gid array
	gmInt                 // one int column: map[int64]gid
	gmBytes               // multi-column: fixed-width binary key → gid
	gmJoin                // multi-column with NUL-bearing dictionary values:
	// rendered joined key → gid, so groups merge exactly as the
	// interpreter's "\x00"-joined map keys would
)

// setState is the per-execution accumulation state of one grouping set.
type setState struct {
	pos  []int           // positions into the plan's group columns
	cols []*table.Column // bound group columns of this set
	mode uint8

	dense  []int32          // gmDense: dict code → gid+1 (0 = unseen)
	intm   map[int64]int32  // gmInt
	bytm   map[string]int32 // gmBytes
	joinm  map[string]int32 // gmJoin
	keybuf []byte

	keys   [][]string // per gid: rendered key parts (output Row.Key)
	joined []string   // per gid: the interpreter's map key (ordering)
	accs   []aggAcc   // flat per-(gid, site): len = numGroups * stride
}

// dictHasNUL reports whether any dictionary value contains the "\x00"
// the interpreter joins key parts with — the one case where joining is
// not injective and code-tuple identity could split groups the
// interpreter merges.
func dictHasNUL(d *table.Dict) bool {
	for i := 0; i < d.Len(); i++ {
		if strings.IndexByte(d.Value(int32(i)), 0) >= 0 {
			return true
		}
	}
	return false
}

func newSetState(pos []int, groupCols []*table.Column) *setState {
	st := &setState{pos: pos}
	for _, p := range pos {
		st.cols = append(st.cols, groupCols[p])
	}
	switch {
	case len(st.cols) == 0:
		st.mode = gmGlobal
	case len(st.cols) == 1 && st.cols[0].Spec.Kind == table.String:
		st.mode = gmDense
		st.dense = make([]int32, st.cols[0].Dict.Len())
	case len(st.cols) == 1:
		st.mode = gmInt
		st.intm = make(map[int64]int32, 64)
	default:
		st.mode = gmBytes
		for _, c := range st.cols {
			if c.Spec.Kind == table.String && dictHasNUL(c.Dict) {
				st.mode = gmJoin
				break
			}
		}
		if st.mode == gmBytes {
			st.bytm = make(map[string]int32, 64)
			st.keybuf = make([]byte, 8*len(st.cols))
		} else {
			st.joinm = make(map[string]int32, 64)
		}
	}
	return st
}

// newGroup registers a fresh group: renders its key parts exactly as
// the interpreter does (Column.StringAt) and grows the accumulators.
func (st *setState) newGroup(r int32, stride int) int32 {
	parts := make([]string, len(st.cols))
	for i, c := range st.cols {
		parts[i] = c.StringAt(int(r))
	}
	gid := int32(len(st.keys))
	st.keys = append(st.keys, parts)
	st.joined = append(st.joined, strings.Join(parts, "\x00"))
	st.accs = append(st.accs, make([]aggAcc, stride)...)
	return gid
}

// assign maps each batch row to its group id, creating groups in
// first-visit order (the interpreter's visit order over the same row
// stream, so per-group accumulation order is identical).
func (st *setState) assign(rows []int32, n, stride int, gids []int32) {
	switch st.mode {
	case gmGlobal:
		if len(st.keys) == 0 && n > 0 {
			parts := make([]string, 0)
			st.keys = append(st.keys, parts)
			st.joined = append(st.joined, "")
			st.accs = append(st.accs, make([]aggAcc, stride)...)
		}
		for i := 0; i < n; i++ {
			gids[i] = 0
		}
	case gmDense:
		codes := st.cols[0].Str
		for i := 0; i < n; i++ {
			r := rows[i]
			code := codes[r]
			id := st.dense[code]
			if id == 0 {
				id = st.newGroup(r, stride) + 1
				st.dense[code] = id
			}
			gids[i] = id - 1
		}
	case gmInt:
		vals := st.cols[0].Int
		for i := 0; i < n; i++ {
			r := rows[i]
			v := vals[r]
			id, ok := st.intm[v]
			if !ok {
				id = st.newGroup(r, stride)
				st.intm[v] = id
			}
			gids[i] = id
		}
	case gmBytes:
		for i := 0; i < n; i++ {
			r := rows[i]
			buf := st.keybuf
			for ci, c := range st.cols {
				var u uint64
				if c.Spec.Kind == table.String {
					u = uint64(uint32(c.Str[r]))
				} else {
					u = uint64(c.Int[r])
				}
				binary.BigEndian.PutUint64(buf[ci*8:], u)
			}
			id, ok := st.bytm[string(buf)]
			if !ok {
				id = st.newGroup(r, stride)
				st.bytm[string(buf)] = id
			}
			gids[i] = id
		}
	default: // gmJoin
		parts := make([]string, len(st.cols))
		for i := 0; i < n; i++ {
			r := rows[i]
			for ci, c := range st.cols {
				parts[ci] = c.StringAt(int(r))
			}
			k := strings.Join(parts, "\x00")
			id, ok := st.joinm[k]
			if !ok {
				id = st.newGroup(r, stride)
				st.joinm[k] = id
			}
			gids[i] = id
		}
	}
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
	groupCols := make([]*table.Column, len(p.groupIdx))
	for i, idx := range p.groupIdx {
		groupCols[i] = tbl.Columns[idx]
	}
	stride := len(p.sites)
	states := make([]*setState, len(p.sets))
	for i, pos := range p.sets {
		states[i] = newSetState(pos, groupCols)
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
			st.assign(rowBuf, n, stride, gidBuf)
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
		order := make([]int, len(st.keys))
		for i := range order {
			order[i] = i
		}
		// The interpreter sorts groups by their "\x00"-joined rendered
		// keys; joined keys are unique per group, so this order matches
		// its sort.Strings exactly.
		sort.Slice(order, func(i, j int) bool { return st.joined[order[i]] < st.joined[order[j]] })
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
			row := exec.Row{Set: setIdx, Key: st.keys[gid], Aggs: aggs}
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
