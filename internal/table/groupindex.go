package table

import (
	"fmt"
	"slices"
	"strings"
)

// GroupIndex assigns every row of a table to a stratum defined by the
// combination of values of a set of attributes (the paper's "finest
// stratification" over C = ∪ A_k). Stratum ids are dense integers in
// [0, NumStrata), in first-occurrence order over the rows; only
// combinations that actually occur in the data get an id, as required by
// Sections 3–4.
type GroupIndex struct {
	Attrs []string // stratification attribute names, in key order
	RowID []int32  // stratum id per row
	g     *Grouper
}

// GroupKey is the tuple of attribute values identifying one stratum,
// rendered as strings in Attrs order.
type GroupKey []string

// String renders the key as a pipe-joined tuple.
func (k GroupKey) String() string { return strings.Join(k, "|") }

// BuildGroupIndex scans tbl once and assigns each row a stratum id based
// on the given attribute names: a Grouper over those attributes, run
// over every row.
func BuildGroupIndex(tbl *Table, attrs []string) (*GroupIndex, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("table: group index needs at least one attribute")
	}
	g, err := NewGrouper(tbl, attrs)
	if err != nil {
		return nil, err
	}
	gi := &GroupIndex{Attrs: slices.Clone(attrs), RowID: make([]int32, tbl.NumRows()), g: g}
	g.AssignRange(0, tbl.NumRows(), gi.RowID)
	return gi, nil
}

// Grouper returns the kernel that assigned the index's stratum ids.
func (g *GroupIndex) Grouper() *Grouper { return g.g }

// NumStrata returns the number of distinct strata observed.
func (g *GroupIndex) NumStrata() int { return g.g.NumGroups() }

// Key returns the value tuple of stratum id.
func (g *GroupIndex) Key(id int) GroupKey { return g.g.Key(id) }

// ID returns the stratum id for a key tuple (values in Attrs order) and
// whether the combination occurs in the data. It scans the strata: a
// diagnostic lookup, not a per-row path.
func (g *GroupIndex) ID(key GroupKey) (int, bool) {
	for id := 0; id < g.NumStrata(); id++ {
		if slices.Equal(g.Key(id), key) {
			return id, true
		}
	}
	return 0, false
}

// Project maps each stratum of g onto the coarser grouping given by a
// subset of g.Attrs (the paper's Π(c, A)). It returns, per stratum id,
// the id of its coarse group, plus the list of coarse group keys. Every
// attribute in attrs must be one of g.Attrs.
func (g *GroupIndex) Project(attrs []string) (fineToCoarse []int, coarseKeys []GroupKey, err error) {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		if pos[i] = slices.Index(g.Attrs, a); pos[i] < 0 {
			return nil, nil, fmt.Errorf("table: projection attribute %q not in stratification %v", a, g.Attrs)
		}
	}
	fineToCoarse, coarseKeys = g.g.Project(pos)
	return fineToCoarse, coarseKeys, nil
}

// StratumSizes returns the number of rows per stratum.
func (g *GroupIndex) StratumSizes() []int64 {
	n := make([]int64, g.NumStrata())
	for _, id := range g.RowID {
		n[id]++
	}
	return n
}

// RowsByStratum returns, for each stratum, the slice of row indices that
// belong to it. The inner slices are views into one backing array.
func (g *GroupIndex) RowsByStratum() [][]int32 {
	sizes := g.StratumSizes()
	offsets := make([]int, len(sizes)+1)
	for i, s := range sizes {
		offsets[i+1] = offsets[i] + int(s)
	}
	backing := make([]int32, len(g.RowID))
	cursor := make([]int, len(sizes))
	copy(cursor, offsets[:len(sizes)])
	for r, id := range g.RowID {
		backing[cursor[id]] = int32(r)
		cursor[id]++
	}
	out := make([][]int32, len(sizes))
	for i := range sizes {
		out[i] = backing[offsets[i]:offsets[i+1]]
	}
	return out
}
