package table

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// grouping strategies, picked per Grouper from its columns.
const (
	gmGlobal uint8 = iota // no group columns: a single grand-total group
	gmDense               // one string column: dense code → gid array
	gmInt                 // one int column: map[int64]gid
	gmBytes               // multi-column: fixed-width binary key → gid
	gmJoin                // multi-column with NUL-bearing dictionary values:
	// rendered joined key → gid, so groups merge exactly as the
	// interpreter's "\x00"-joined map keys would
)

// assignBatch is AssignRange's batch width: large enough to amortize the
// per-batch dispatch, small enough that the row-id scratch stays in L1.
const assignBatch = 1024

// Grouper is the one "rows → dense group ids" kernel: the query planner
// (per grouping set), the stratification index (BuildGroupIndex), its
// projections Π(c, A) and the one-pass stream sampler all assign through
// it. Group ids are dense and handed out in first-visit order; a group's
// key parts are rendered once, when the group is created, exactly as
// Column.StringAt renders them. Rows are identified by dictionary codes
// and raw ints, never by rendered strings, so distinct value tuples
// never share a group — except under gmJoin, the escape hatch that keeps
// "\x00"-bearing values merging the way the interpreter's joined map
// keys do.
//
// A Grouper stays bound to its columns: as the table they belong to
// gains rows and dictionary codes, later Assign calls keep extending the
// same id space. The strategy is picked once, from the dictionaries as
// they stand at construction. It is not safe for concurrent use.
type Grouper struct {
	cols []*Column
	mode uint8

	dense  []int32          // gmDense: dict code → gid+1 (0 = unseen)
	intm   map[int64]int32  // gmInt
	bytm   map[string]int32 // gmBytes
	joinm  map[string]int32 // gmJoin
	keybuf []byte           // gmBytes: 8 bytes per column
	batch  []int32          // AssignRange's row-id scratch
	box    []boxDim         // AssignRange's code box, one entry per column

	keys  []GroupKey // per gid: rendered key parts
	first []int32    // per gid: the row that created the group
}

// boxDim is one column's axis of a row range's code box: a row's
// coordinate is its dictionary code (String) or its value minus the
// range's minimum (Int), and its cell is Σ coordinate·stride.
type boxDim struct {
	min    int64 // Int: the range's smallest value; String: 0
	stride int32
}

// NewGrouper binds a grouper to the named columns of tbl. String
// attributes group by value, Int attributes by value (rendered in
// decimal); Float attributes are rejected because grouping on continuous
// attributes is ill-defined. No attributes at all means one global
// group.
func NewGrouper(tbl *Table, attrs []string) (*Grouper, error) {
	cols := make([]*Column, len(attrs))
	for i, a := range attrs {
		c := tbl.Column(a)
		if c == nil {
			return nil, fmt.Errorf("table: unknown group-by attribute %q", a)
		}
		if c.Spec.Kind == Float {
			return nil, fmt.Errorf("table: cannot group by float column %q", a)
		}
		cols[i] = c
	}
	return newGrouper(cols), nil
}

func newGrouper(cols []*Column) *Grouper {
	g := &Grouper{cols: cols}
	switch {
	case len(cols) == 0:
		g.mode = gmGlobal
	case len(cols) == 1 && cols[0].Spec.Kind == String:
		g.mode = gmDense
	case len(cols) == 1:
		g.mode = gmInt
		g.intm = make(map[int64]int32, 64)
	default:
		g.mode = gmBytes
		for _, c := range cols {
			if c.Spec.Kind == String && dictHasNUL(c.Dict) {
				g.mode = gmJoin
				break
			}
		}
		if g.mode == gmBytes {
			g.bytm = make(map[string]int32, 64)
			g.keybuf = make([]byte, 8*len(cols))
		} else {
			g.joinm = make(map[string]int32, 64)
		}
	}
	return g
}

// dictHasNUL reports whether any dictionary value contains the "\x00"
// the interpreter joins key parts with — the one case where joining is
// not injective and code-tuple identity could split groups the
// interpreter merges.
func dictHasNUL(d *Dict) bool {
	for _, v := range d.values {
		if strings.IndexByte(v, 0) >= 0 {
			return true
		}
	}
	return false
}

// newGroup registers a fresh group created by row r, rendering its key
// parts exactly as the interpreter does (Column.StringAt).
func (g *Grouper) newGroup(r int32) int32 {
	parts := make(GroupKey, len(g.cols))
	for i, c := range g.cols {
		parts[i] = c.StringAt(int(r))
	}
	g.keys = append(g.keys, parts)
	g.first = append(g.first, r)
	return int32(len(g.keys) - 1)
}

// Assign writes the group id of every rows[i] into gids[i], creating
// groups in first-visit order. This is the only place a row's
// group-column values turn into a group id.
func (g *Grouper) Assign(rows, gids []int32) {
	switch g.mode {
	case gmGlobal:
		if len(g.keys) == 0 && len(rows) > 0 {
			g.newGroup(rows[0])
		}
		for i := range rows {
			gids[i] = 0
		}
	case gmDense:
		if n := g.cols[0].Dict.Len(); n > len(g.dense) {
			g.dense = append(g.dense, make([]int32, n-len(g.dense))...)
		}
		codes := g.cols[0].Str
		for i, r := range rows {
			code := codes[r]
			id := g.dense[code]
			if id == 0 {
				id = g.newGroup(r) + 1
				g.dense[code] = id
			}
			gids[i] = id - 1
		}
	case gmInt:
		vals := g.cols[0].Int
		for i, r := range rows {
			v := vals[r]
			id, ok := g.intm[v]
			if !ok {
				id = g.newGroup(r)
				g.intm[v] = id
			}
			gids[i] = id
		}
	case gmBytes:
		buf := g.keybuf
		for i, r := range rows {
			for ci, c := range g.cols {
				var u uint64
				if c.Spec.Kind == String {
					u = uint64(uint32(c.Str[r]))
				} else {
					u = uint64(c.Int[r])
				}
				binary.BigEndian.PutUint64(buf[ci*8:], u)
			}
			id, ok := g.bytm[string(buf)]
			if !ok {
				id = g.newGroup(r)
				g.bytm[string(buf)] = id
			}
			gids[i] = id
		}
	default: // gmJoin
		parts := make([]string, len(g.cols))
		for i, r := range rows {
			for ci, c := range g.cols {
				parts[ci] = c.StringAt(int(r))
			}
			k := strings.Join(parts, "\x00")
			id, ok := g.joinm[k]
			if !ok {
				id = g.newGroup(r)
				g.joinm[k] = id
			}
			gids[i] = id
		}
	}
}

// AssignRange assigns the contiguous rows [lo, hi): gids[i] receives the
// group of row lo+i, exactly as Assign would give it. A range whose code
// box is small enough goes through a dense memo (assignBoxed), any other
// through Assign in batches.
func (g *Grouper) AssignRange(lo, hi int, gids []int32) {
	if g.batch == nil {
		g.batch = make([]int32, assignBatch)
		g.box = make([]boxDim, len(g.cols))
	}
	if g.assignBoxed(lo, hi, gids) {
		return
	}
	for start := lo; start < hi; start += assignBatch {
		n := min(hi-start, assignBatch)
		for i := 0; i < n; i++ {
			g.batch[i] = int32(start + i)
		}
		g.Assign(g.batch[:n], gids[start-lo:])
	}
}

// assignBoxed is AssignRange over a dense memo, for the map-keyed
// strategies. The range's code box has one axis per column: a String
// column's dictionary size, an Int column's max−min+1 over the range.
// When the box has at most hi−lo cells, every row's mixed-radix cell
// indexes a memo of gid+1 (0 = unseen): a hit writes the cached gid, a
// miss sends that one row through Assign — which alone decides group
// identity and creates groups — and caches its answer. So the result is
// Assign's, row for row, at one Assign per distinct code tuple. Otherwise
// it reports false, having assigned nothing.
func (g *Grouper) assignBoxed(lo, hi int, gids []int32) bool {
	n := hi - lo
	if n == 0 || g.mode == gmGlobal || g.mode == gmDense {
		return false
	}
	// cells·radix ≤ n, tested without overflow; dictionary sizes first,
	// so a box that cannot fit is declined before any scan
	cells := 1
	fits := func(radix uint64) bool {
		if radix > uint64(n/cells) {
			return false
		}
		cells *= int(radix)
		return true
	}
	for i, c := range g.cols {
		if c.Spec.Kind == String {
			g.box[i] = boxDim{stride: int32(cells)}
			if !fits(uint64(c.Dict.Len())) {
				return false
			}
		}
	}
	for i, c := range g.cols {
		if c.Spec.Kind == Int {
			vals := c.Int[lo:hi]
			vmin, vmax := vals[0], vals[0]
			for _, v := range vals {
				vmin, vmax = min(vmin, v), max(vmax, v)
			}
			g.box[i] = boxDim{min: vmin, stride: int32(cells)}
			// the span cannot wrap in uint64, span+1 can: compare the span
			if span := uint64(vmax) - uint64(vmin); span >= uint64(n) || !fits(span+1) {
				return false
			}
		}
	}

	// every row's cell, accumulated one column at a time in gids; cells
	// ≤ n ≤ MaxInt32, so no partial sum overflows
	cell := gids[:n]
	clear(cell)
	for i, c := range g.cols {
		d := g.box[i]
		if c.Spec.Kind == String {
			for k, code := range c.Str[lo:hi] {
				cell[k] += code * d.stride
			}
		} else {
			for k, v := range c.Int[lo:hi] {
				cell[k] += int32(v-d.min) * d.stride
			}
		}
	}
	memo := make([]int32, cells)
	for k, x := range cell {
		id := memo[x]
		if id == 0 {
			g.batch[0] = int32(lo + k)
			g.Assign(g.batch[:1], gids[k:k+1])
			id = gids[k] + 1
			memo[x] = id
		}
		gids[k] = id - 1
	}
	return true
}

// NumGroups returns the number of groups created so far.
func (g *Grouper) NumGroups() int { return len(g.keys) }

// Key returns the rendered key parts of group gid, in column order.
func (g *Grouper) Key(gid int) GroupKey { return g.keys[gid] }

// Project maps every group onto the coarser grouping by the columns at
// positions pos (the paper's Π(c, A)): it groups one representative row
// per group by those columns, so coarse ids come out in first-occurrence
// order over ascending group id. It returns the coarse id per group and
// the coarse keys.
func (g *Grouper) Project(pos []int) (fineToCoarse []int, coarseKeys []GroupKey) {
	cols := make([]*Column, len(pos))
	whole := len(pos) == len(g.cols)
	for i, p := range pos {
		cols[i] = g.cols[p]
		whole = whole && p == i
	}
	fineToCoarse = make([]int, len(g.first))
	if whole { // every column, in order: Π is the identity, nothing to regroup
		for id := range fineToCoarse {
			fineToCoarse[id] = id
		}
		return fineToCoarse, g.keys
	}
	coarse := newGrouper(cols)
	gids := make([]int32, len(g.first))
	coarse.Assign(g.first, gids)
	for id, cid := range gids {
		fineToCoarse[id] = int(cid)
	}
	return fineToCoarse, coarse.keys
}
