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

	keys  []GroupKey // per gid: rendered key parts
	first []int32    // per gid: the row that created the group
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
// group of row lo+i.
func (g *Grouper) AssignRange(lo, hi int, gids []int32) {
	if g.batch == nil {
		g.batch = make([]int32, assignBatch)
	}
	for start := lo; start < hi; start += assignBatch {
		n := min(hi-start, assignBatch)
		for i := 0; i < n; i++ {
			g.batch[i] = int32(start + i)
		}
		g.Assign(g.batch[:n], gids[start-lo:])
	}
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
