package table_test

// Differential oracle for the grouping kernel: every grouping in the repo
// (planner, stratification index, projections, stream sampler) assigns
// through table.Grouper, so its ids, group count and rendered keys are
// compared against a string-keyed reference kept here.

import (
	"fmt"
	"math"
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
	compareWithRef(t, g, ref, rows, got)
}

// checkRangeAgainstRef is checkAgainstRef through AssignRange(lo, hi).
func checkRangeAgainstRef(t *testing.T, g *table.Grouper, ref *refGrouper, lo, hi int) {
	t.Helper()
	got := make([]int32, hi-lo)
	g.AssignRange(lo, hi, got)
	compareWithRef(t, g, ref, rowSpan(lo, hi), got)
}

// compareWithRef checks that got holds the reference's ids for rows and
// that both agree on the group count and every rendered key.
func compareWithRef(t *testing.T, g *table.Grouper, ref *refGrouper, rows, got []int32) {
	t.Helper()
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

func allRows(tbl *table.Table) []int32 { return rowSpan(0, tbl.NumRows()) }

// rowSpan returns the row ids lo, lo+1, …, hi−1.
func rowSpan(lo, hi int) []int32 {
	rows := make([]int32, hi-lo)
	for i := range rows {
		rows[i] = int32(lo + i)
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
// codes and new int values extend the same id space, whether the new
// rows arrive through Assign or, as the stream sampler feeds them,
// through 1024-row AssignRange batches (whose code boxes are small
// enough for the memo, and grow with the table).
func TestGrouperFollowsGrowingTable(t *testing.T) {
	for _, attrs := range [][]string{{"s"}, {"i"}, {"s", "i"}} {
		tbl := table.New("grow", table.Schema{{Name: "s", Kind: table.String}, {Name: "i", Kind: table.Int}})
		// both bound while the table is still empty
		byRows, err := table.NewGrouper(tbl, attrs)
		if err != nil {
			t.Fatal(err)
		}
		byRange, err := table.NewGrouper(tbl, attrs)
		if err != nil {
			t.Fatal(err)
		}
		rowsRef, rangeRef := newRef(tbl, attrs), newRef(tbl, attrs)
		lo := 0
		for round := 0; round < 4; round++ {
			for r := 0; r < 1500; r++ {
				// each round brings values the previous ones never saw
				if err := tbl.AppendRow(fmt.Sprintf("v%d", (r*7)%(3+5*round)), int64((r*11)%(2+4*round)-round)); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstRef(t, byRows, rowsRef, rowSpan(lo, tbl.NumRows()))
			for ; lo < tbl.NumRows(); lo += 1024 {
				checkRangeAgainstRef(t, byRange, rangeRef, lo, min(lo+1024, tbl.NumRows()))
			}
		}
		if byRows.NumGroups() < 10 {
			t.Fatalf("%v: only %d groups — the table did not grow new values", attrs, byRows.NumGroups())
		}
	}
}

// AssignRange's memo: taken when the range's code box has at most as
// many cells as the range has rows, declined otherwise, and either way
// the same ids, groups and keys as the reference.
func TestGrouperAssignRangeMemo(t *testing.T) {
	schema := table.Schema{{Name: "s", Kind: table.String}, {Name: "u", Kind: table.String}, {Name: "i", Kind: table.Int}}
	build := func(n int, row func(r int) (string, string, int64)) *table.Table {
		tbl := table.New("memo", schema)
		for r := 0; r < n; r++ {
			s, u, i := row(r)
			if err := tbl.AppendRow(s, u, i); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	rng := rand.New(rand.NewSource(4))
	strs := []string{"a", "", "a\x00", "\x00b", "b", "a|b", "|"}
	cases := []struct {
		name  string
		tbl   *table.Table
		attrs []string
		lo    int  // the range is [lo, NumRows)
		taken bool // whether the memo must be taken
		prior int  // rows first assigned through Assign, shuffled
	}{
		{"taken", build(2000, func(r int) (string, string, int64) {
			return fmt.Sprint(rng.Intn(9)), "x", int64(rng.Intn(20) - 10)
		}), []string{"s", "i"}, 0, true, 0},
		{"declined", build(2000, func(r int) (string, string, int64) {
			return fmt.Sprint(rng.Intn(9)), "x", int64(rng.Intn(20) * 1000)
		}), []string{"s", "i"}, 0, false, 0},
		{"declined by dictionaries", build(2000, func(r int) (string, string, int64) {
			return fmt.Sprint(r % 50), fmt.Sprint(r % 41), 0
		}), []string{"s", "u", "i"}, 0, false, 0},
		{"earlier groups keep their ids", build(3000, func(r int) (string, string, int64) {
			return fmt.Sprint(rng.Intn(12)), "x", int64(rng.Intn(30))
		}), []string{"i", "s"}, 0, true, 1500},
		{"sub-range", build(3000, func(r int) (string, string, int64) {
			return fmt.Sprint(rng.Intn(12)), fmt.Sprint(r / 1000), int64(rng.Intn(30) + r/1000)
		}), []string{"s", "u", "i"}, 1700, true, 0},
		{"int extremes", build(1000, func(r int) (string, string, int64) {
			return "x", "y", []int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)]
		}), []string{"i"}, 0, false, 0},
		{"int near the minimum", build(1000, func(r int) (string, string, int64) {
			return fmt.Sprint(r % 3), "y", math.MinInt64 + int64(rng.Intn(5))
		}), []string{"s", "i"}, 0, true, 0},
		{"int near the maximum", build(1000, func(r int) (string, string, int64) {
			return "x", "y", math.MaxInt64 - int64(rng.Intn(5))
		}), []string{"i"}, 0, true, 0},
		{"NUL-joined tuples share a gid", build(3000, func(r int) (string, string, int64) {
			return strs[rng.Intn(len(strs))], strs[rng.Intn(len(strs))], 0
		}), []string{"s", "u"}, 0, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.tbl.NumRows()
			probe, err := table.NewGrouper(tc.tbl, tc.attrs)
			if err != nil {
				t.Fatal(err)
			}
			if taken := probe.AssignBoxed(tc.lo, n, make([]int32, n-tc.lo)); taken != tc.taken {
				t.Fatalf("memo taken = %v, want %v", taken, tc.taken)
			}
			g, err := table.NewGrouper(tc.tbl, tc.attrs)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRef(tc.tbl, tc.attrs)
			if tc.prior > 0 {
				prior := rowSpan(0, tc.prior)
				rng.Shuffle(len(prior), func(i, j int) { prior[i], prior[j] = prior[j], prior[i] })
				checkAgainstRef(t, g, ref, prior)
			}
			checkRangeAgainstRef(t, g, ref, tc.lo, n)
		})
	}
	// the NUL case really merges: fewer groups than distinct code tuples
	tbl := cases[len(cases)-1].tbl
	tuples := map[[2]int32]bool{}
	for r := range tbl.NumRows() {
		tuples[[2]int32{tbl.Column("s").Str[r], tbl.Column("u").Str[r]}] = true
	}
	g, err := table.NewGrouper(tbl, []string{"s", "u"})
	if err != nil {
		t.Fatal(err)
	}
	g.AssignRange(0, tbl.NumRows(), make([]int32, tbl.NumRows()))
	if g.NumGroups() >= len(tuples) {
		t.Fatalf("%d groups from %d code tuples: no NUL-joined tuples merged", g.NumGroups(), len(tuples))
	}
}

// The memo must be taken on the stratification the paper builds at
// scale, the OpenAQ (country, parameter, year, month) one — a silent
// decline would leave the index build on the map path.
func TestGrouperMemoTakenOnOpenAQ(t *testing.T) {
	tbl, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	attrs := []string{"country", "parameter", "year", "month"}
	g, err := table.NewGrouper(tbl, attrs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, tbl.NumRows())
	if !g.AssignBoxed(0, tbl.NumRows(), got) {
		t.Fatal("memo declined on the OpenAQ stratification")
	}
	if !slices.Equal(got, newRef(tbl, attrs).assign(allRows(tbl))) {
		t.Fatal("memo ids differ from the reference")
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

// BenchmarkBuildGroupIndex times the stratification index over 200 k
// rows twice: on the OpenAQ (country, parameter, year, month)
// stratification, whose code box takes AssignRange's memo, and on a
// high-cardinality Int key (20 k values spread over 2·10^10), whose box
// is far bigger than the table, so every row takes the map path.
func BenchmarkBuildGroupIndex(b *testing.B) {
	const rows = 200_000
	openaq, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	spread := table.New("spread", table.Schema{{Name: "s", Kind: table.String}, {Name: "k", Kind: table.Int}})
	spread.Grow(rows)
	rng := rand.New(rand.NewSource(5))
	for r := 0; r < rows; r++ {
		k := rng.Intn(20_000)
		if err := spread.AppendRow(fmt.Sprint(k%38), int64(k)*1_000_003); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name  string
		tbl   *table.Table
		attrs []string
	}{
		{"memo", openaq, []string{"country", "parameter", "year", "month"}},
		{"map", spread, []string{"s", "k"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := table.BuildGroupIndex(bc.tbl, bc.attrs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
