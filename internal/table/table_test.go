package table

import (
	"bytes"
	"strings"
	"testing"
)

func studentSchema() Schema {
	return Schema{
		{Name: "major", Kind: String},
		{Name: "year", Kind: Int},
		{Name: "gpa", Kind: Float},
	}
}

func studentTable(t *testing.T) *Table {
	t.Helper()
	tbl := New("student", studentSchema())
	rows := []struct {
		major string
		year  int64
		gpa   float64
	}{
		{"CS", 2019, 3.4},
		{"CS", 2020, 3.1},
		{"Math", 2019, 3.8},
		{"Math", 2020, 3.6},
		{"EE", 2019, 3.5},
		{"EE", 2019, 3.2},
		{"ME", 2020, 3.7},
		{"ME", 2020, 3.3},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.major, r.year, r.gpa); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestAppendAndAccess(t *testing.T) {
	tbl := studentTable(t)
	if tbl.NumRows() != 8 || tbl.NumCols() != 3 {
		t.Fatalf("shape: %d x %d", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.Column("major").StringAt(2) != "Math" {
		t.Fatalf("row 2 major = %q", tbl.Column("major").StringAt(2))
	}
	if tbl.Column("gpa").Numeric(0) != 3.4 {
		t.Fatalf("gpa[0] = %v", tbl.Column("gpa").Numeric(0))
	}
	if tbl.Column("year").Numeric(1) != 2020 {
		t.Fatalf("year[1] = %v", tbl.Column("year").Numeric(1))
	}
	if tbl.Column("nope") != nil {
		t.Fatalf("unknown column should be nil")
	}
	if got := tbl.ColumnIndex("gpa"); got != 2 {
		t.Fatalf("ColumnIndex(gpa) = %d", got)
	}
	if got := tbl.ColumnIndex("nope"); got != -1 {
		t.Fatalf("ColumnIndex(nope) = %d", got)
	}
}

func TestAppendRowErrors(t *testing.T) {
	tbl := New("t", studentSchema())
	if err := tbl.AppendRow("CS", int64(2019)); err == nil {
		t.Fatalf("want arity error")
	}
	if err := tbl.AppendRow(5, int64(2019), 3.0); err == nil {
		t.Fatalf("want type error for string column")
	}
	if err := tbl.AppendRow("CS", "x", 3.0); err == nil {
		t.Fatalf("want type error for int column")
	}
	if err := tbl.AppendRow("CS", int64(2019), "x"); err == nil {
		t.Fatalf("want type error for float column")
	}
	if tbl.NumRows() != 0 {
		t.Fatalf("failed appends must not count rows")
	}
	// int and int64 both accepted for Int; int accepted for Float.
	if err := tbl.AppendRow("CS", 2019, 3); err != nil {
		t.Fatal(err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Code("x")
	b := d.Code("y")
	if a == b {
		t.Fatalf("distinct values share code")
	}
	if d.Code("x") != a {
		t.Fatalf("re-interning changed code")
	}
	if d.Len() != 2 {
		t.Fatalf("dict len = %d", d.Len())
	}
	if d.Value(a) != "x" {
		t.Fatalf("Value(a) = %q", d.Value(a))
	}
	if c, ok := d.Lookup("y"); !ok || c != b {
		t.Fatalf("Lookup(y) = %v,%v", c, ok)
	}
	if _, ok := d.Lookup("z"); ok {
		t.Fatalf("Lookup(z) should miss")
	}
}

func TestSelect(t *testing.T) {
	tbl := studentTable(t)
	sub := tbl.Select([]int{1, 3, 5})
	if sub.NumRows() != 3 {
		t.Fatalf("rows = %d", sub.NumRows())
	}
	wantMajors := []string{"CS", "Math", "EE"}
	for i, w := range wantMajors {
		if got := sub.Column("major").StringAt(i); got != w {
			t.Fatalf("row %d major = %q want %q", i, got, w)
		}
	}
	// Selecting must be independent: mutating sub must not affect tbl.
	if err := sub.AppendRow("Bio", int64(2021), 2.9); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 8 {
		t.Fatalf("source table mutated")
	}
}

func TestAppendTable(t *testing.T) {
	a := studentTable(t)
	b := studentTable(t)
	if err := a.AppendTable(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 16 {
		t.Fatalf("rows = %d", a.NumRows())
	}
	if a.Column("major").StringAt(8) != "CS" {
		t.Fatalf("appended row wrong")
	}
	bad := New("bad", Schema{{Name: "x", Kind: Int}})
	if err := a.AppendTable(bad); err == nil {
		t.Fatalf("want schema mismatch error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := studentTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("student", studentSchema(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d want %d", back.NumRows(), tbl.NumRows())
	}
	for r := 0; r < tbl.NumRows(); r++ {
		a, b := tbl.Row(r), back.Row(r)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d col %d: %q vs %q", r, i, a[i], b[i])
			}
		}
	}
}

func TestReadCSVColumnOrderAndErrors(t *testing.T) {
	// header order differs from schema; extra column ignored
	src := "gpa,extra,major,year\n3.5,zz,CS,2019\n"
	tbl, err := ReadCSV("t", studentSchema(), strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Column("major").StringAt(0) != "CS" || tbl.Column("gpa").Numeric(0) != 3.5 {
		t.Fatalf("reordered CSV misparsed: %v", tbl.Row(0))
	}

	if _, err := ReadCSV("t", studentSchema(), strings.NewReader("major,year\nCS,2019\n")); err == nil {
		t.Fatalf("want missing-column error")
	}
	if _, err := ReadCSV("t", studentSchema(), strings.NewReader("major,year,gpa\nCS,xx,3.5\n")); err == nil {
		t.Fatalf("want int parse error")
	}
	if _, err := ReadCSV("t", studentSchema(), strings.NewReader("major,year,gpa\nCS,2019,zz\n")); err == nil {
		t.Fatalf("want float parse error")
	}
}

func TestInferSchema(t *testing.T) {
	src := "a,b,c\nhello,3,4.5\n"
	s, err := InferSchema(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{String, Int, Float}
	for i, k := range want {
		if s[i].Kind != k {
			t.Fatalf("col %d kind = %v want %v", i, s[i].Kind, k)
		}
	}
	if _, err := InferSchema(strings.NewReader("a,b\n")); err == nil {
		t.Fatalf("want error for header-only CSV")
	}
}

func TestKindString(t *testing.T) {
	if String.String() != "string" || Float.String() != "float" || Int.String() != "int" {
		t.Fatalf("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatalf("unknown kind should still render")
	}
}

func TestSchemaIndex(t *testing.T) {
	s := studentSchema()
	if s.Index("year") != 1 || s.Index("zzz") != -1 {
		t.Fatalf("Schema.Index wrong")
	}
}

func TestGroupIndexSingleAttr(t *testing.T) {
	tbl := studentTable(t)
	gi, err := BuildGroupIndex(tbl, []string{"major"})
	if err != nil {
		t.Fatal(err)
	}
	if gi.NumStrata() != 4 {
		t.Fatalf("strata = %d want 4", gi.NumStrata())
	}
	sizes := gi.StratumSizes()
	for _, s := range sizes {
		if s != 2 {
			t.Fatalf("each major has 2 rows, got %v", sizes)
		}
	}
	// row 0 and row 1 are both CS
	if gi.RowID[0] != gi.RowID[1] {
		t.Fatalf("CS rows split across strata")
	}
	if id, ok := gi.ID(GroupKey{"Math"}); !ok || gi.Key(id).String() != "Math" {
		t.Fatalf("ID lookup failed")
	}
	if _, ok := gi.ID(GroupKey{"Bio"}); ok {
		t.Fatalf("nonexistent key should miss")
	}
}

func TestGroupIndexMultiAttr(t *testing.T) {
	tbl := studentTable(t)
	gi, err := BuildGroupIndex(tbl, []string{"major", "year"})
	if err != nil {
		t.Fatal(err)
	}
	// distinct (major,year) pairs: CS/2019, CS/2020, Math/2019, Math/2020,
	// EE/2019, ME/2020 = 6 (only combinations occurring in data).
	if gi.NumStrata() != 6 {
		t.Fatalf("strata = %d want 6", gi.NumStrata())
	}
	if id, ok := gi.ID(GroupKey{"EE", "2019"}); !ok {
		t.Fatalf("EE/2019 missing")
	} else if gi.StratumSizes()[id] != 2 {
		t.Fatalf("EE/2019 size wrong")
	}
}

func TestGroupIndexErrors(t *testing.T) {
	tbl := studentTable(t)
	if _, err := BuildGroupIndex(tbl, nil); err == nil {
		t.Fatalf("want error for no attributes")
	}
	if _, err := BuildGroupIndex(tbl, []string{"nope"}); err == nil {
		t.Fatalf("want error for unknown attribute")
	}
	if _, err := BuildGroupIndex(tbl, []string{"gpa"}); err == nil {
		t.Fatalf("want error for float attribute")
	}
}

func TestGroupIndexProject(t *testing.T) {
	tbl := studentTable(t)
	gi, err := BuildGroupIndex(tbl, []string{"major", "year"})
	if err != nil {
		t.Fatal(err)
	}
	fineToCoarse, coarse, err := gi.Project([]string{"major"})
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse) != 4 {
		t.Fatalf("coarse groups = %d want 4", len(coarse))
	}
	// CS/2019 and CS/2020 must map to the same coarse group.
	a, _ := gi.ID(GroupKey{"CS", "2019"})
	b, _ := gi.ID(GroupKey{"CS", "2020"})
	if fineToCoarse[a] != fineToCoarse[b] {
		t.Fatalf("CS strata project to different groups")
	}
	c, _ := gi.ID(GroupKey{"Math", "2019"})
	if fineToCoarse[a] == fineToCoarse[c] {
		t.Fatalf("CS and Math collapse together")
	}
	if _, _, err := gi.Project([]string{"zipcode"}); err == nil {
		t.Fatalf("want error projecting unknown attribute")
	}
	// projecting onto the full set is identity-like
	f2c, ck, err := gi.Project([]string{"major", "year"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ck) != gi.NumStrata() {
		t.Fatalf("full projection should preserve strata count")
	}
	for i, c := range f2c {
		if i != c {
			t.Fatalf("full projection should be identity (first-seen order)")
		}
	}
}

func TestRowsByStratum(t *testing.T) {
	tbl := studentTable(t)
	gi, err := BuildGroupIndex(tbl, []string{"major"})
	if err != nil {
		t.Fatal(err)
	}
	rows := gi.RowsByStratum()
	total := 0
	for id, rs := range rows {
		total += len(rs)
		for _, r := range rs {
			if int(gi.RowID[r]) != id {
				t.Fatalf("row %d assigned to wrong stratum", r)
			}
		}
	}
	if total != tbl.NumRows() {
		t.Fatalf("RowsByStratum covers %d rows, want %d", total, tbl.NumRows())
	}
}

func TestGrow(t *testing.T) {
	tbl := New("t", studentSchema())
	tbl.Grow(100)
	if err := tbl.AppendRow("CS", int64(2019), 3.0); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestSnapshotIsolatedFromLaterAppends(t *testing.T) {
	tbl := studentTable(t)
	snap := tbl.Snapshot()
	if snap.NumRows() != 8 || snap.NumCols() != 3 {
		t.Fatalf("snapshot shape: %d x %d", snap.NumRows(), snap.NumCols())
	}
	// keep appending to the original, including a brand-new dictionary
	// value; the snapshot must not move
	for i := 0; i < 200; i++ {
		if err := tbl.AppendRow("Bio", int64(2021), 2.9); err != nil {
			t.Fatal(err)
		}
	}
	if snap.NumRows() != 8 {
		t.Fatalf("snapshot grew to %d rows after appends", snap.NumRows())
	}
	if got := snap.Column("major").StringAt(2); got != "Math" {
		t.Fatalf("snapshot row 2 major = %q", got)
	}
	if _, ok := snap.Column("major").Dict.Lookup("Bio"); ok {
		t.Fatal("snapshot dictionary saw a value interned after the cut")
	}
	if _, ok := tbl.Column("major").Dict.Lookup("Bio"); !ok {
		t.Fatal("original dictionary lost the new value")
	}
	// concurrent reads of the snapshot while the writer appends: the
	// race detector is the assertion here
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_ = tbl.AppendRow("Chem", int64(2022), 3.0+float64(i%10)/10)
		}
	}()
	sum := 0.0
	for i := 0; i < snap.NumRows(); i++ {
		sum += snap.Column("gpa").Numeric(i)
		_ = snap.Column("major").StringAt(i)
	}
	<-done
	if sum == 0 {
		t.Fatal("snapshot reads returned nothing")
	}
}
