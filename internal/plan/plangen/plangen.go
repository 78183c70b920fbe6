// Package plangen generates the randomized (table, query) cases of the
// planner's differential oracle: group-bys over datagen's synthetic
// OpenAQ and Bikes schemas with predicates, CUBE, HAVING, ORDER BY and
// LIMIT, each with a weighted row multiset for the sampled path. The
// planner's oracle runs every case through both executors; the serving
// layer's codec oracle runs every result through the wire encoder.
// Case seed s is a pure function of s, so a failing case is
// reproducible from its number alone.
package plangen

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/datagen"
	"repro/internal/table"
)

// Case is one generated case: a query over a table, and the weighted
// row multiset (rows with non-unit weights) its sampled path runs over.
type Case struct {
	Table   *table.Table
	SQL     string
	Rows    []int32
	Weights []float64
}

// NewCase generates case seed over the corpus table seed selects.
func NewCase(seed int64) Case {
	tables := corpus()
	gt := tables[int(seed)%len(tables)]
	rng := rand.New(rand.NewSource(seed))
	c := Case{Table: gt.tbl, SQL: genQuery(rng, gt)}
	n := 1 + rng.Intn(gt.tbl.NumRows())
	c.Rows = make([]int32, n)
	c.Weights = make([]float64, n)
	for i := range c.Rows {
		c.Rows[i] = int32(rng.Intn(gt.tbl.NumRows()))
		c.Weights[i] = 0.25 + rng.Float64()*50
	}
	return c
}

// genTable is one generation target: a table plus the column
// vocabulary the query generator draws from.
type genTable struct {
	tbl       *table.Table
	strCols   []string            // String columns (comparisons, IN, grouping)
	numCols   []string            // Float and Int columns (arithmetic, aggregates)
	groupCols []string            // groupable columns (String and Int)
	strVals   map[string][]string // sampled dictionary values per string column
}

var (
	corpusOnce   sync.Once
	corpusTables []*genTable
)

// corpus builds the generation targets once: OpenAQ and Bikes
// instances of varied size, cardinality and seed, including a
// deliberately tiny one so empty groups and single-row strata get
// exercised.
func corpus() []*genTable {
	corpusOnce.Do(func() {
		type spec struct {
			build func() (*table.Table, error)
		}
		specs := []spec{
			{func() (*table.Table, error) {
				return datagen.OpenAQ(datagen.OpenAQConfig{Rows: 400, Countries: 3, Seed: 11})
			}},
			{func() (*table.Table, error) {
				return datagen.OpenAQ(datagen.OpenAQConfig{Rows: 900, Countries: 8, Seed: 12})
			}},
			{func() (*table.Table, error) {
				return datagen.OpenAQ(datagen.OpenAQConfig{Rows: 1500, Countries: 15, Seed: 13})
			}},
			{func() (*table.Table, error) {
				return datagen.OpenAQ(datagen.OpenAQConfig{Rows: 50, Countries: 2, Seed: 14})
			}},
			{func() (*table.Table, error) {
				return datagen.Bikes(datagen.BikesConfig{Rows: 600, Stations: 12, Seed: 15})
			}},
			{func() (*table.Table, error) {
				return datagen.Bikes(datagen.BikesConfig{Rows: 1200, Stations: 40, Seed: 16})
			}},
		}
		for _, s := range specs {
			tbl, err := s.build()
			if err != nil {
				panic(err)
			}
			corpusTables = append(corpusTables, newGenTable(tbl))
		}
	})
	return corpusTables
}

func newGenTable(tbl *table.Table) *genTable {
	gt := &genTable{tbl: tbl, strVals: map[string][]string{}}
	rng := rand.New(rand.NewSource(int64(tbl.NumRows())))
	for _, col := range tbl.Columns {
		name := col.Spec.Name
		switch col.Spec.Kind {
		case table.String:
			gt.strCols = append(gt.strCols, name)
			gt.groupCols = append(gt.groupCols, name)
			seen := map[string]bool{}
			for i := 0; i < 12 && tbl.NumRows() > 0; i++ {
				v := col.StringAt(rng.Intn(tbl.NumRows()))
				if !seen[v] {
					seen[v] = true
					gt.strVals[name] = append(gt.strVals[name], v)
				}
			}
		case table.Int:
			gt.numCols = append(gt.numCols, name)
			gt.groupCols = append(gt.groupCols, name)
		case table.Float:
			gt.numCols = append(gt.numCols, name)
		}
	}
	return gt
}

// --- query generation ---------------------------------------------------

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// genNumLit emits small literals that survive the %g render/reparse
// round trip exactly.
func genNumLit(rng *rand.Rand) string {
	v := float64(rng.Intn(200)-50) / 4
	return fmt.Sprintf("%g", v)
}

// genStrLit emits a string literal, mostly one resident in col's
// dictionary.
func genStrLit(rng *rand.Rand, gt *genTable, col string) string {
	if vs := gt.strVals[col]; len(vs) > 0 && rng.Intn(5) != 0 {
		return "'" + strings.ReplaceAll(pick(rng, vs), "'", "''") + "'"
	}
	return "'zzz-absent'"
}

// genMixedIF emits an IF with no single static kind — the shapes the
// planner lowers by distributing the consumer over the branches: one
// branch is always a string (column or literal), the other a string, a
// number, a boolean or (depth permitting) another such IF, in either
// order.
func genMixedIF(rng *rand.Rand, gt *genTable, depth int) string {
	col := pick(rng, gt.strCols)
	a := col
	if rng.Intn(2) == 0 {
		a = genStrLit(rng, gt, col)
	}
	var b string
	switch rng.Intn(5) {
	case 0:
		b = pick(rng, gt.strCols)
	case 1:
		b = genBoolExpr(rng, gt, depth)
	case 2:
		if depth > 0 {
			b = genMixedIF(rng, gt, depth-1)
			break
		}
		fallthrough
	default:
		b = genNumExpr(rng, gt, depth)
	}
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	return fmt.Sprintf("IF(%s, %s, %s)", genBoolExpr(rng, gt, depth), a, b)
}

// genOperand emits a comparison operand of any kind: usually a
// kind-varying IF, else a number, a string column or a string literal.
func genOperand(rng *rand.Rand, gt *genTable, depth int) string {
	switch rng.Intn(6) {
	case 0:
		return genNumExpr(rng, gt, depth)
	case 1:
		return pick(rng, gt.strCols)
	case 2:
		return genStrLit(rng, gt, pick(rng, gt.strCols))
	default:
		return genMixedIF(rng, gt, depth)
	}
}

// genNumExpr emits a numeric scalar expression. At depth 0 it bottoms
// out on columns and literals, with a rare string-column leaf for the
// interpreter's string-in-arithmetic semantics (the value's num field,
// 0) and the NaN path when it lands directly under an aggregate. Above
// depth 0 an operand may also be a kind-varying IF.
func genNumExpr(rng *rand.Rand, gt *genTable, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(8) {
		case 0:
			return genNumLit(rng)
		case 1:
			if rng.Intn(10) == 0 {
				return pick(rng, gt.strCols)
			}
			return pick(rng, gt.numCols)
		default:
			return pick(rng, gt.numCols)
		}
	}
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprintf("(-%s)", genNumExpr(rng, gt, depth-1))
	case 1:
		return fmt.Sprintf("ABS(%s)", genNumExpr(rng, gt, depth-1))
	case 2:
		return fmt.Sprintf("IF(%s, %s, %s)",
			genBoolExpr(rng, gt, depth-1),
			genNumExpr(rng, gt, depth-1), genNumExpr(rng, gt, depth-1))
	case 3:
		return genMixedIF(rng, gt, depth-1)
	default:
		op := pick(rng, []string{"+", "-", "*", "/"})
		return fmt.Sprintf("(%s %s %s)",
			genNumExpr(rng, gt, depth-1), op, genNumExpr(rng, gt, depth-1))
	}
}

var cmpOps = []string{"=", "!=", "<", "<=", ">", ">="}

// genBoolExpr emits a predicate: numeric comparisons, string
// comparisons against (mostly resident) dictionary values, IN,
// BETWEEN, boolean combinators, and the deliberately odd cases: a
// mixed-kind comparison (constant-folds), a bare numeric expression or
// kind-varying IF used for its truthiness, and comparisons, IN lists
// and BETWEEN bounds over operands of any kind.
func genBoolExpr(rng *rand.Rand, gt *genTable, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(10) {
		case 0, 1, 2:
			col := pick(rng, gt.strCols)
			return fmt.Sprintf("(%s %s %s)", col, pick(rng, cmpOps), genStrLit(rng, gt, col))
		case 3:
			col := pick(rng, gt.strCols)
			items := make([]string, 1+rng.Intn(3))
			for i := range items {
				items[i] = genStrLit(rng, gt, col)
			}
			return fmt.Sprintf("(%s IN (%s))", col, strings.Join(items, ", "))
		case 4:
			lo := rng.Intn(40)
			return fmt.Sprintf("(%s BETWEEN %d AND %d)", pick(rng, gt.numCols), lo, lo+rng.Intn(60))
		case 5:
			if rng.Intn(4) == 0 {
				// mixed-kind comparison: constant-folds in the planner,
				// NaN-compares in the interpreter — must agree
				return fmt.Sprintf("(%s %s %s)", pick(rng, gt.strCols), pick(rng, cmpOps), genNumLit(rng))
			}
			fallthrough
		case 6:
			// string column vs column: lexicographic per row
			return fmt.Sprintf("(%s %s %s)",
				pick(rng, gt.strCols), pick(rng, cmpOps), pick(rng, gt.strCols))
		default:
			return fmt.Sprintf("(%s %s %s)",
				genNumExpr(rng, gt, 0), pick(rng, cmpOps), genNumExpr(rng, gt, 0))
		}
	}
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprintf("(NOT %s)", genBoolExpr(rng, gt, depth-1))
	case 1:
		// truthiness: WHERE x means WHERE x != 0 (x != '' for strings)
		if rng.Intn(2) == 0 {
			return genMixedIF(rng, gt, depth-1)
		}
		return genNumExpr(rng, gt, depth-1)
	case 2:
		return fmt.Sprintf("IF(%s, %s, %s)",
			genBoolExpr(rng, gt, depth-1),
			genBoolExpr(rng, gt, depth-1), genBoolExpr(rng, gt, depth-1))
	case 3:
		return fmt.Sprintf("(%s %s %s)",
			genOperand(rng, gt, depth-1), pick(rng, cmpOps), genOperand(rng, gt, depth-1))
	case 4:
		items := make([]string, 1+rng.Intn(3))
		for i := range items {
			items[i] = genOperand(rng, gt, depth-1)
		}
		return fmt.Sprintf("(%s IN (%s))", genOperand(rng, gt, depth-1), strings.Join(items, ", "))
	case 5:
		return fmt.Sprintf("(%s BETWEEN %s AND %s)",
			genOperand(rng, gt, depth-1), genOperand(rng, gt, depth-1), genOperand(rng, gt, depth-1))
	default:
		op := pick(rng, []string{"AND", "OR"})
		return fmt.Sprintf("(%s %s %s)",
			genBoolExpr(rng, gt, depth-1), op, genBoolExpr(rng, gt, depth-1))
	}
}

// genAggItem emits one aggregate select item (without alias).
func genAggItem(rng *rand.Rand, gt *genTable) string {
	switch rng.Intn(12) {
	case 0:
		return "COUNT(*)"
	case 1:
		return fmt.Sprintf("COUNT(%s)", genNumExpr(rng, gt, 1))
	case 2:
		return fmt.Sprintf("COUNT_IF(%s)", genBoolExpr(rng, gt, 1))
	case 3:
		return fmt.Sprintf("(SUM(%s) / COUNT(*))", pick(rng, gt.numCols))
	case 4:
		return fmt.Sprintf("(AVG(%s) + %s)", pick(rng, gt.numCols), genNumLit(rng))
	case 5:
		return fmt.Sprintf("(-SUM(%s))", genNumExpr(rng, gt, 1))
	case 6:
		return fmt.Sprintf("%s(%s)", pick(rng, []string{"VAR", "STDDEV"}), pick(rng, gt.numCols))
	case 7:
		return fmt.Sprintf("%s(%s)", pick(rng, []string{"MIN", "MAX"}), genNumExpr(rng, gt, 1))
	case 8:
		// boolean under a numeric aggregate: asNum(true)=1, asNum(false)=0
		return fmt.Sprintf("SUM(%s)", genBoolExpr(rng, gt, 1))
	default:
		return fmt.Sprintf("%s(%s)", pick(rng, []string{"AVG", "SUM"}), genNumExpr(rng, gt, rng.Intn(3)))
	}
}

// genQuery emits one complete, valid SQL query against gt.
func genQuery(rng *rand.Rand, gt *genTable) string {
	// group-by subset: 0, 1 or 2 groupable columns
	nGroup := rng.Intn(3)
	perm := rng.Perm(len(gt.groupCols))
	var groupBy []string
	for i := 0; i < nGroup && i < len(perm); i++ {
		groupBy = append(groupBy, gt.groupCols[perm[i]])
	}

	var selects []string
	selects = append(selects, groupBy...)
	nAgg := 1 + rng.Intn(3)
	var orderables []string // ORDER BY vocabulary: group cols, aliases, renderings
	orderables = append(orderables, groupBy...)
	for i := 0; i < nAgg; i++ {
		item := genAggItem(rng, gt)
		if rng.Intn(2) == 0 {
			alias := fmt.Sprintf("a%d", i)
			selects = append(selects, item+" AS "+alias)
			orderables = append(orderables, alias)
		} else {
			selects = append(selects, item)
		}
	}

	var sb strings.Builder
	sb.WriteString("SELECT " + strings.Join(selects, ", "))
	sb.WriteString(" FROM " + gt.tbl.Name)
	if rng.Intn(5) != 0 {
		sb.WriteString(" WHERE " + genBoolExpr(rng, gt, 1+rng.Intn(2)))
	}
	if len(groupBy) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(groupBy, ", "))
		if rng.Intn(5) == 0 {
			sb.WriteString(" WITH CUBE")
		}
	}
	if rng.Intn(4) == 0 {
		sb.WriteString(" HAVING " + genHaving(rng, gt))
	}
	if rng.Intn(5) < 2 && len(orderables) > 0 {
		var keys []string
		for i := 0; i < 1+rng.Intn(2); i++ {
			k := pick(rng, orderables)
			if rng.Intn(2) == 0 {
				k += " DESC"
			}
			keys = append(keys, k)
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if rng.Intn(10) < 3 {
		fmt.Fprintf(&sb, " LIMIT %d", 1+rng.Intn(20))
	}
	return sb.String()
}

// genHaving emits a HAVING condition over aggregate expressions.
func genHaving(rng *rand.Rand, gt *genTable) string {
	leaf := func() string {
		return fmt.Sprintf("(%s %s %s)", genAggItem(rng, gt), pick(rng, cmpOps), genNumLit(rng))
	}
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", leaf(), pick(rng, []string{"AND", "OR"}), leaf())
	case 1:
		return fmt.Sprintf("(NOT %s)", leaf())
	default:
		return leaf()
	}
}
