package table_test

// Differential oracle for the grouping kernel: every grouping in the repo
// (planner, stratification index, projections, stream sampler) assigns
// through table.Grouper, so its ids, group count and rendered keys are
// compared against a string-keyed reference kept here.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// refGrouper is the reference: a row's group is the "\x00"-joined
// rendering of its values, ids are handed out in first-visit order.
type refGrouper struct {
	cols []*table.Column
	ids  map[string]int32
	keys []table.GroupKey
}

func newRef(tbl *table.Table, attrs []string) *refGrouper {
	ref := &refGrouper{ids: map[string]int32{}}
	for _, a := range attrs {
		ref.cols = append(ref.cols, tbl.Column(a))
	}
	return ref
}

func (ref *refGrouper) assign(rows []int32) []int32 {
	out := make([]int32, len(rows))
	for i, r := range rows {
		parts := make(table.GroupKey, len(ref.cols))
		for j, c := range ref.cols {
			parts[j] = c.StringAt(int(r))
		}
		k := strings.Join(parts, "\x00")
		id, ok := ref.ids[k]
		if !ok {
			id = int32(len(ref.keys))
			ref.ids[k] = id
			ref.keys = append(ref.keys, parts)
		}
		out[i] = id
	}
	return out
}

// checkAgainstRef assigns rows through both and compares everything the
// kernel exposes.
func checkAgainstRef(t *testing.T, g *table.Grouper, ref *refGrouper, rows []int32) {
	t.Helper()
	got := make([]int32, len(rows))
	g.Assign(rows, got)
	if want := ref.assign(rows); !slices.Equal(got, want) {
		t.Fatalf("group ids differ from the reference")
	}
	if g.NumGroups() != len(ref.keys) {
		t.Fatalf("kernel found %d groups, reference %d", g.NumGroups(), len(ref.keys))
	}
	for gid, want := range ref.keys {
		if !slices.Equal(g.Key(gid), want) {
			t.Fatalf("group %d key %q, reference %q", gid, g.Key(gid), want)
		}
	}
}

func allRows(tbl *table.Table) []int32 {
	rows := make([]int32, tbl.NumRows())
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

func TestGrouperMatchesStringKeyedReference(t *testing.T) {
	openaq, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bikes, err := datagen.Bikes(datagen.BikesConfig{Rows: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	odd := table.New("odd", table.Schema{{Name: "s", Kind: table.String}, {Name: "u", Kind: table.String}, {Name: "i", Kind: table.Int}})
	rng := rand.New(rand.NewSource(3))
	strs := []string{"a", "", "a\x00", "\x00b", "b", "a|b", "|"}
	for r := 0; r < 3000; r++ {
		// negative ints, NUL-bearing values that collide once joined
		// ("a\x00"+"b" vs "a"+"\x00b"), and the empty string
		if err := odd.AppendRow(strs[rng.Intn(len(strs))], strs[rng.Intn(len(strs))], int64(rng.Intn(7)-3)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		tbl   *table.Table
		attrs []string
	}{
		{openaq, []string{"country"}},
		{openaq, []string{"month"}},
		{openaq, []string{"country", "parameter", "year", "month"}},
		{openaq, nil}, // the planner's global group
		{bikes, []string{"gender"}},
		{bikes, []string{"from_station_id"}},
		{bikes, []string{"from_station_id", "gender", "year"}},
		{odd, []string{"s"}},
		{odd, []string{"i"}},
		{odd, []string{"s", "u"}},
		{odd, []string{"i", "s", "u"}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s", tc.tbl.Name, strings.Join(tc.attrs, "+")), func(t *testing.T) {
			g, err := table.NewGrouper(tc.tbl, tc.attrs)
			if err != nil {
				t.Fatal(err)
			}
			// a shuffled half first (the planner's sample-row path), then
			// every row: groups met in the first call keep their ids
			rows := allRows(tc.tbl)
			half := slices.Clone(rows[:len(rows)/2])
			rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
			ref := newRef(tc.tbl, tc.attrs)
			checkAgainstRef(t, g, ref, half)
			checkAgainstRef(t, g, ref, rows)

			// AssignRange is Assign over the contiguous ids
			byRange := make([]int32, len(rows))
			g.AssignRange(0, len(rows), byRange)
			if !slices.Equal(byRange, ref.assign(rows)) {
				t.Fatal("AssignRange differs from Assign")
			}

			// the index is "assign every row", and its projections group
			// the strata exactly as the reference groups their keys
			if len(tc.attrs) == 0 {
				return
			}
			gi, err := table.BuildGroupIndex(tc.tbl, tc.attrs)
			if err != nil {
				t.Fatal(err)
			}
			fresh := newRef(tc.tbl, tc.attrs)
			if !slices.Equal(gi.RowID, fresh.assign(rows)) || gi.NumStrata() != len(fresh.keys) {
				t.Fatal("BuildGroupIndex differs from the reference")
			}
			sub := tc.attrs[len(tc.attrs)/2:]
			f2c, coarse, err := gi.Project(sub)
			if err != nil {
				t.Fatal(err)
			}
			reps := make([]int32, gi.NumStrata()) // first row of each stratum
			for r := len(gi.RowID) - 1; r >= 0; r-- {
				reps[gi.RowID[r]] = int32(r)
			}
			cref := newRef(tc.tbl, sub)
			for c, want := range cref.assign(reps) {
				if f2c[c] != int(want) {
					t.Fatalf("stratum %d projects to %d, reference %d", c, f2c[c], want)
				}
			}
			if len(coarse) != len(cref.keys) {
				t.Fatalf("%d coarse groups, reference %d", len(coarse), len(cref.keys))
			}
			for a := range coarse {
				if !slices.Equal(coarse[a], cref.keys[a]) {
					t.Fatalf("coarse key %d: %q vs %q", a, coarse[a], cref.keys[a])
				}
			}
		})
	}
}

// A bound grouper keeps assigning as its table grows: new dictionary
// codes and new int values extend the same id space.
func TestGrouperFollowsGrowingTable(t *testing.T) {
	for _, attrs := range [][]string{{"s"}, {"i"}, {"s", "i"}} {
		tbl := table.New("grow", table.Schema{{Name: "s", Kind: table.String}, {Name: "i", Kind: table.Int}})
		g, err := table.NewGrouper(tbl, attrs) // bound while the table is still empty
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(tbl, attrs)
		lo := 0
		for round := 0; round < 4; round++ {
			for r := 0; r < 500; r++ {
				// each round brings values the previous ones never saw
				if err := tbl.AppendRow(fmt.Sprintf("v%d", (r*7)%(3+5*round)), int64((r*11)%(2+4*round)-round)); err != nil {
					t.Fatal(err)
				}
			}
			rows := allRows(tbl)[lo:]
			checkAgainstRef(t, g, ref, rows)
			lo = tbl.NumRows()
		}
		if g.NumGroups() < 10 {
			t.Fatalf("%v: only %d groups — the table did not grow new values", attrs, g.NumGroups())
		}
	}
}

func TestNewGrouperErrors(t *testing.T) {
	tbl := table.New("t", table.Schema{{Name: "s", Kind: table.String}, {Name: "f", Kind: table.Float}})
	if _, err := table.NewGrouper(tbl, []string{"nope"}); err == nil {
		t.Fatal("unknown attribute should be rejected")
	}
	if _, err := table.NewGrouper(tbl, []string{"s", "f"}); err == nil {
		t.Fatal("float attribute should be rejected")
	}
}
