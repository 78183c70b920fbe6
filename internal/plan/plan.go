// Package plan lowers parsed queries (internal/sqlparse) to compiled
// physical plans executed columnar-style: predicate → group → aggregate
// operators evaluated in tight typed per-column loops over vectorized
// row batches, with no per-cell boxing. It is the one query executor:
// the row interpreter (internal/exec) stays only as the reference
// oracle — Compile accepts exactly the queries the interpreter accepts,
// and a plan's Execute is required to produce bit-identical results
// (values, group keys, ordering, standard-error estimates) to
// exec.Run/exec.RunWeighted, a property enforced by the package's
// differential tests.
//
// Plans are immutable after Compile and safe for concurrent Execute
// calls: all mutable evaluation state (batch buffers, scratch vectors,
// per-dictionary-code predicate tables) lives in a per-call context.
// The registry (internal/serve) caches plans keyed by normalized SQL;
// one-shot callers (the facade, cvquery, the experiments) use Run.
package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// planSite is one aggregate call site: the kind plus the compiled
// argument in the representation its accumulator consumes.
type planSite struct {
	kind    aggKind
	argNum  numOp  // AVG/SUM/MIN/MAX/VAR/STDDEV
	argBool boolOp // COUNT_IF
	cifSlot int    // scratch slot for COUNT_IF's 0/1 vector, else -1
}

// Plan is a query compiled against a table schema. It binds columns by
// index, so it remains valid across streaming snapshots of the same
// table (appends never change the schema); Execute re-checks the
// binding and errors on any mismatch.
type Plan struct {
	tableName string
	schema    table.Schema // the schema at compile, what bindCheck compares

	groupAttrs []string
	setNames   [][]string // group attrs of each grouping set, in output order
	cube       bool

	where boolOp
	sites []planSite
	items []func(siteVals []float64) float64
	// itemSite[i] is the site index when select item i is a bare
	// aggregate call (SE reportable), else -1.
	itemSite  []int
	aggLabels []string
	having    func([]float64) bool
	orderBy   []exec.OrderSpec
	limit     int

	numSlots, boolSlots, tabSlots int

	// rendered fragments for EXPLAIN
	whereStr  string
	havingStr string
	orderStrs []string
}

// Run compiles q against tbl and executes it once: exactly over the
// full table when rows is nil, over the weighted row sample otherwise.
func Run(tbl *table.Table, q *sqlparse.Query, rows []int32, weights []float64) (*exec.Result, error) {
	p, err := Compile(tbl, q)
	if err != nil {
		return nil, err
	}
	return p.Execute(tbl, rows, weights)
}

// Compile validates and lowers q against tbl's schema. The validation
// mirrors the interpreter's compile step: an error means the query is
// invalid, for either engine.
func Compile(tbl *table.Table, q *sqlparse.Query) (*Plan, error) {
	if q.From != "" && !strings.EqualFold(q.From, tbl.Name) {
		return nil, fmt.Errorf("plan: query targets table %q, got %q", q.From, tbl.Name)
	}
	p := &Plan{tableName: tbl.Name, schema: tbl.Schema(), limit: q.Limit, cube: q.Cube}
	c := &compiler{tbl: tbl}

	if q.Where != nil {
		f, err := c.compileBool(q.Where)
		if err != nil {
			return nil, err
		}
		p.where = f
		p.whereStr = q.Where.String()
	}

	grouped := map[string]bool{}
	for _, g := range q.GroupBy {
		idx := tbl.ColumnIndex(g)
		if idx < 0 {
			return nil, fmt.Errorf("plan: unknown group-by column %q", g)
		}
		if tbl.Columns[idx].Spec.Kind == table.Float {
			return nil, fmt.Errorf("plan: cannot group by float column %q", g)
		}
		grouped[g] = true
	}
	p.groupAttrs = append([]string(nil), q.GroupBy...)
	if q.Cube && len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("plan: WITH CUBE requires GROUP BY columns")
	}

	// grouping sets, in the interpreter's order: full mask downward
	if q.Cube {
		n := len(q.GroupBy)
		for mask := (1 << n) - 1; mask >= 0; mask-- {
			var names []string
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					names = append(names, q.GroupBy[i])
				}
			}
			p.setNames = append(p.setNames, names)
		}
	} else {
		p.setNames = append(p.setNames, append([]string(nil), q.GroupBy...))
	}

	for _, item := range q.Select {
		if ref, ok := item.Expr.(*sqlparse.ColumnRef); ok {
			if !grouped[ref.Name] {
				return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate", ref.Name)
			}
			continue
		}
		if !sqlparse.HasAggregate(item.Expr) {
			return nil, fmt.Errorf("plan: select item %q is neither a grouped column nor an aggregate", item.Label())
		}
		siteBefore := len(p.sites)
		combine, err := p.compileAggItem(c, item.Expr)
		if err != nil {
			return nil, err
		}
		site := -1
		if _, bare := item.Expr.(*sqlparse.FuncCall); bare && len(p.sites) == siteBefore+1 {
			site = siteBefore
		}
		p.items = append(p.items, combine)
		p.itemSite = append(p.itemSite, site)
		p.aggLabels = append(p.aggLabels, item.Label())
	}
	if len(p.items) == 0 {
		return nil, fmt.Errorf("plan: query has no aggregate outputs")
	}

	if q.Having != nil {
		h, err := p.compileHaving(c, q.Having)
		if err != nil {
			return nil, err
		}
		p.having = h
		p.havingStr = q.Having.String()
	}
	if len(q.OrderBy) > 0 {
		specs, err := exec.ResolveOrderBy(q)
		if err != nil {
			return nil, err
		}
		p.orderBy = specs
		for _, item := range q.OrderBy {
			s := item.Expr.String()
			if item.Desc {
				s += " DESC"
			}
			p.orderStrs = append(p.orderStrs, s)
		}
	}

	p.numSlots, p.boolSlots, p.tabSlots = c.nums, c.bools, c.tabs
	return p, nil
}

// compileAggItem registers aggregate call sites and returns a combiner
// over finalized site values, mirroring the interpreter's version
// (including the site-registration order HAVING relies on).
func (p *Plan) compileAggItem(c *compiler, e sqlparse.Expr) (func([]float64) float64, error) {
	switch n := e.(type) {
	case *sqlparse.FuncCall:
		if sqlparse.AggFuncs[n.Name] {
			site := planSite{cifSlot: -1}
			switch n.Name {
			case "AVG":
				site.kind = aggAvg
			case "SUM":
				site.kind = aggSum
			case "COUNT":
				site.kind = aggCount
			case "COUNT_IF":
				site.kind = aggCountIf
			case "MIN":
				site.kind = aggMin
			case "MAX":
				site.kind = aggMax
			case "VAR":
				site.kind = aggVar
			case "STDDEV":
				site.kind = aggStdDev
			}
			if n.Star {
				if site.kind != aggCount {
					return nil, fmt.Errorf("plan: %s(*) is not valid", n.Name)
				}
			} else {
				if len(n.Args) != 1 {
					return nil, fmt.Errorf("plan: %s takes exactly one argument", n.Name)
				}
				if sqlparse.HasAggregate(n.Args[0]) {
					return nil, fmt.Errorf("plan: nested aggregates are not supported")
				}
				switch site.kind {
				case aggCount:
					// COUNT(expr) validates but ignores its argument (no NULLs)
					if _, err := c.compile(n.Args[0]); err != nil {
						return nil, err
					}
				case aggCountIf:
					f, err := c.compileBool(n.Args[0])
					if err != nil {
						return nil, err
					}
					site.argBool = f
					site.cifSlot = c.numSlot()
				default:
					x, err := c.compile(n.Args[0])
					if err != nil {
						return nil, err
					}
					site.argNum = c.asNumOp(x)
				}
			}
			idx := len(p.sites)
			p.sites = append(p.sites, site)
			return func(vals []float64) float64 { return vals[idx] }, nil
		}
		return nil, fmt.Errorf("plan: scalar function %s cannot be an output without an enclosing aggregate", n.Name)
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "+", "-", "*", "/":
		default:
			return nil, fmt.Errorf("plan: operator %q not supported over aggregates", n.Op)
		}
		left, err := p.compileAggItem(c, n.Left)
		if err != nil {
			return nil, err
		}
		right, err := p.compileAggItem(c, n.Right)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(vals []float64) float64 {
			a, b := left(vals), right(vals)
			switch op {
			case "+":
				return a + b
			case "-":
				return a - b
			case "*":
				return a * b
			default:
				if b == 0 {
					return math.NaN()
				}
				return a / b
			}
		}, nil
	case *sqlparse.UnaryExpr:
		if n.Op != "-" {
			return nil, fmt.Errorf("plan: operator %q not supported over aggregates", n.Op)
		}
		inner, err := p.compileAggItem(c, n.Expr)
		if err != nil {
			return nil, err
		}
		return func(vals []float64) float64 { return -inner(vals) }, nil
	case *sqlparse.NumberLit:
		v := n.Value
		return func([]float64) float64 { return v }, nil
	}
	return nil, fmt.Errorf("plan: unsupported aggregate expression %T", e)
}

// compileHaving mirrors the interpreter's HAVING compiler: boolean
// combinations of comparisons between aggregate items, which may
// register additional sites.
func (p *Plan) compileHaving(c *compiler, e sqlparse.Expr) (func([]float64) bool, error) {
	switch n := e.(type) {
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "AND", "OR":
			left, err := p.compileHaving(c, n.Left)
			if err != nil {
				return nil, err
			}
			right, err := p.compileHaving(c, n.Right)
			if err != nil {
				return nil, err
			}
			if n.Op == "AND" {
				return func(v []float64) bool { return left(v) && right(v) }, nil
			}
			return func(v []float64) bool { return left(v) || right(v) }, nil
		case "=", "!=", "<", "<=", ">", ">=":
			left, err := p.compileAggItem(c, n.Left)
			if err != nil {
				return nil, err
			}
			right, err := p.compileAggItem(c, n.Right)
			if err != nil {
				return nil, err
			}
			op := n.Op
			return func(v []float64) bool {
				a, b := left(v), right(v)
				switch op {
				case "=":
					return a == b
				case "!=":
					return a != b
				case "<":
					return a < b
				case "<=":
					return a <= b
				case ">":
					return a > b
				default:
					return a >= b
				}
			}, nil
		}
		return nil, fmt.Errorf("plan: operator %q not supported in HAVING", n.Op)
	case *sqlparse.UnaryExpr:
		if n.Op != "NOT" {
			return nil, fmt.Errorf("plan: operator %q not supported in HAVING", n.Op)
		}
		inner, err := p.compileHaving(c, n.Expr)
		if err != nil {
			return nil, err
		}
		return func(v []float64) bool { return !inner(v) }, nil
	case *sqlparse.BetweenExpr:
		x, err := p.compileAggItem(c, n.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := p.compileAggItem(c, n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := p.compileAggItem(c, n.Hi)
		if err != nil {
			return nil, err
		}
		return func(v []float64) bool {
			val := x(v)
			return val >= lo(v) && val <= hi(v)
		}, nil
	}
	return nil, fmt.Errorf("plan: HAVING must be a boolean expression over aggregates, got %T", e)
}
