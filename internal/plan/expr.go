package plan

import (
	"fmt"
	"math"

	"repro/internal/sqlparse"
	"repro/internal/table"
)

// vkind is the statically inferred kind of a compiled expression. The
// row interpreter (internal/exec) carries kinds on runtime values; the
// planner infers them once at compile time so batch kernels can run
// over unboxed typed slices. The one expression whose kind varies by
// row — IF with differently-kinded or string branches — compiles to a
// deferred select (kSel) that each consumer resolves by distributing
// itself over the branches, so every evaluated leaf stays statically
// kinded.
type vkind uint8

const (
	kNum vkind = iota
	kStr
	kBool
	kSel
)

// numOp evaluates to a float64 vector over the current batch. The
// returned slice is owned by the execution context (slot storage) and
// is valid until the same node is evaluated again.
type numOp interface {
	eval(ec *execCtx) []float64
}

// boolOp evaluates to a bool vector over the current batch.
type boolOp interface {
	eval(ec *execCtx) []bool
}

// strSrc is the only form string-kinded expressions take: a literal or
// a dictionary-encoded column. String values are never materialized
// per row — comparisons against literals become per-dictionary-code
// bool tables, so the inner loops touch only int32 codes.
type strSrc struct {
	isConst bool
	lit     string
	col     int // column index when !isConst
}

// cexpr is a compiled expression: a static kind plus the matching
// evaluator (num, b, str or sel).
type cexpr struct {
	kind vkind
	num  numOp
	b    boolOp
	str  strSrc
	sel  *selExpr
}

// selExpr is an IF the compiler could not give one kind. It is never
// evaluated itself: a consumer f (asNum, the raw num field, truthiness,
// either side of a comparison) lowers it as IF(cond, f(a), f(b)),
// recursively for branches that are themselves deferred — per row the
// same conversion the interpreter applies to whichever branch value it
// picked.
type selExpr struct {
	cond boolOp
	a, b cexpr
}

// execCtx is the per-execution scratch state. A Plan is immutable and
// shared across goroutines; everything mutable during evaluation —
// slot vectors, lazily built per-code tables (the dictionary belongs
// to the executing snapshot, not the plan) — lives here.
type execCtx struct {
	cols  []*table.Column
	rows  []int32 // absolute row ids of the current batch
	n     int
	nums  [][]float64
	bools [][]bool
	tabs  [][]bool // per-dict-code tables, built on first use
}

func newExecCtx(cols []*table.Column, numSlots, boolSlots, tabSlots int) *execCtx {
	ec := &execCtx{
		cols:  cols,
		nums:  make([][]float64, numSlots),
		bools: make([][]bool, boolSlots),
		tabs:  make([][]bool, tabSlots),
	}
	for i := range ec.nums {
		ec.nums[i] = make([]float64, batchSize)
	}
	for i := range ec.bools {
		ec.bools[i] = make([]bool, batchSize)
	}
	return ec
}

// cmpOp is a comparison operator, switched on once per batch rather
// than once per row.
type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var cmpOps = map[string]cmpOp{
	"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
}

func cmpStr(op cmpOp, a, b string) bool {
	switch op {
	case opEq:
		return a == b
	case opNe:
		return a != b
	case opLt:
		return a < b
	case opLe:
		return a <= b
	case opGt:
		return a > b
	default:
		return a >= b
	}
}

// ---- numeric kernels ----

type numConst struct {
	v    float64
	slot int
}

func (o *numConst) eval(ec *execCtx) []float64 {
	out := ec.nums[o.slot][:ec.n]
	for i := range out {
		out[i] = o.v
	}
	return out
}

type numColFloat struct {
	col  int
	slot int
}

func (o *numColFloat) eval(ec *execCtx) []float64 {
	out := ec.nums[o.slot][:ec.n]
	src := ec.cols[o.col].Float
	for i, r := range ec.rows[:ec.n] {
		out[i] = src[r]
	}
	return out
}

type numColInt struct {
	col  int
	slot int
}

func (o *numColInt) eval(ec *execCtx) []float64 {
	out := ec.nums[o.slot][:ec.n]
	src := ec.cols[o.col].Int
	for i, r := range ec.rows[:ec.n] {
		out[i] = float64(src[r])
	}
	return out
}

// numFromBool is asNum over a boolean: true → 1, false → 0.
type numFromBool struct {
	x    boolOp
	slot int
}

func (o *numFromBool) eval(ec *execCtx) []float64 {
	xs := o.x.eval(ec)
	out := ec.nums[o.slot][:ec.n]
	for i, b := range xs {
		if b {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out
}

type numBin struct {
	op   byte // '+', '-', '*', '/'
	l, r numOp
	slot int
}

func (o *numBin) eval(ec *execCtx) []float64 {
	a := o.l.eval(ec)
	b := o.r.eval(ec)
	out := ec.nums[o.slot][:ec.n]
	switch o.op {
	case '+':
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case '-':
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case '*':
		for i := range out {
			out[i] = a[i] * b[i]
		}
	default: // '/' — division by zero is NaN, matching the interpreter
		for i := range out {
			if b[i] == 0 {
				out[i] = math.NaN()
			} else {
				out[i] = a[i] / b[i]
			}
		}
	}
	return out
}

type numNeg struct {
	x    numOp
	slot int
}

func (o *numNeg) eval(ec *execCtx) []float64 {
	xs := o.x.eval(ec)
	out := ec.nums[o.slot][:ec.n]
	for i := range out {
		out[i] = -xs[i]
	}
	return out
}

type numAbs struct {
	x    numOp
	slot int
}

func (o *numAbs) eval(ec *execCtx) []float64 {
	xs := o.x.eval(ec)
	out := ec.nums[o.slot][:ec.n]
	for i := range out {
		out[i] = math.Abs(xs[i])
	}
	return out
}

// numSelect is IF over numeric branches. Both branches are evaluated
// for the whole batch; expressions are pure, so this computes the same
// values the interpreter's lazy branch would.
type numSelect struct {
	cond boolOp
	a, b numOp
	slot int
}

func (o *numSelect) eval(ec *execCtx) []float64 {
	cs := o.cond.eval(ec)
	as := o.a.eval(ec)
	bs := o.b.eval(ec)
	out := ec.nums[o.slot][:ec.n]
	for i := range out {
		if cs[i] {
			out[i] = as[i]
		} else {
			out[i] = bs[i]
		}
	}
	return out
}

// ---- boolean kernels ----

type boolConst struct {
	v    bool
	slot int
}

func (o *boolConst) eval(ec *execCtx) []bool {
	out := ec.bools[o.slot][:ec.n]
	for i := range out {
		out[i] = o.v
	}
	return out
}

type boolCmpNum struct {
	op   cmpOp
	l, r numOp
	slot int
}

func (o *boolCmpNum) eval(ec *execCtx) []bool {
	a := o.l.eval(ec)
	b := o.r.eval(ec)
	out := ec.bools[o.slot][:ec.n]
	switch o.op {
	case opEq:
		for i := range out {
			out[i] = a[i] == b[i]
		}
	case opNe:
		for i := range out {
			out[i] = a[i] != b[i]
		}
	case opLt:
		for i := range out {
			out[i] = a[i] < b[i]
		}
	case opLe:
		for i := range out {
			out[i] = a[i] <= b[i]
		}
	case opGt:
		for i := range out {
			out[i] = a[i] > b[i]
		}
	default:
		for i := range out {
			out[i] = a[i] >= b[i]
		}
	}
	return out
}

// boolStrTab evaluates any per-row predicate over one string column by
// precomputing its answer per dictionary code (comparison with a
// literal, IN membership, truthiness). The table is built lazily per
// execution — the dictionary belongs to the executing snapshot — and
// cached in the context, so the per-row cost is one int32 index.
type boolStrTab struct {
	col   int
	tab   int
	build func(d *table.Dict) []bool
	slot  int
}

func (o *boolStrTab) eval(ec *execCtx) []bool {
	tab := ec.tabs[o.tab]
	if tab == nil {
		tab = o.build(ec.cols[o.col].Dict)
		ec.tabs[o.tab] = tab
	}
	codes := ec.cols[o.col].Str
	out := ec.bools[o.slot][:ec.n]
	for i, r := range ec.rows[:ec.n] {
		out[i] = tab[codes[r]]
	}
	return out
}

// tabFromDict materializes a predicate over every dictionary value.
func tabFromDict(d *table.Dict, pred func(string) bool) []bool {
	t := make([]bool, d.Len())
	for i := range t {
		t[i] = pred(d.Value(int32(i)))
	}
	return t
}

// boolCmpStrCols compares two string columns row by row through their
// dictionaries (the rare string-vs-string-column case; no per-code
// table applies because both sides vary).
type boolCmpStrCols struct {
	op   cmpOp
	a, b int // column indexes
	slot int
}

func (o *boolCmpStrCols) eval(ec *execCtx) []bool {
	ca, cb := ec.cols[o.a], ec.cols[o.b]
	out := ec.bools[o.slot][:ec.n]
	for i, r := range ec.rows[:ec.n] {
		out[i] = cmpStr(o.op, ca.Dict.Value(ca.Str[r]), cb.Dict.Value(cb.Str[r]))
	}
	return out
}

type boolAnd struct {
	l, r boolOp
	slot int
}

func (o *boolAnd) eval(ec *execCtx) []bool {
	a := o.l.eval(ec)
	b := o.r.eval(ec)
	out := ec.bools[o.slot][:ec.n]
	for i := range out {
		out[i] = a[i] && b[i]
	}
	return out
}

type boolOr struct {
	l, r boolOp
	slot int
}

func (o *boolOr) eval(ec *execCtx) []bool {
	a := o.l.eval(ec)
	b := o.r.eval(ec)
	out := ec.bools[o.slot][:ec.n]
	for i := range out {
		out[i] = a[i] || b[i]
	}
	return out
}

type boolNot struct {
	x    boolOp
	slot int
}

func (o *boolNot) eval(ec *execCtx) []bool {
	xs := o.x.eval(ec)
	out := ec.bools[o.slot][:ec.n]
	for i := range out {
		out[i] = !xs[i]
	}
	return out
}

// boolNumTruthy is truthiness of a numeric: v != 0 (NaN is truthy,
// matching the interpreter's `num != 0`).
type boolNumTruthy struct {
	x    numOp
	slot int
}

func (o *boolNumTruthy) eval(ec *execCtx) []bool {
	xs := o.x.eval(ec)
	out := ec.bools[o.slot][:ec.n]
	for i := range out {
		out[i] = xs[i] != 0
	}
	return out
}

// boolSelect is IF over boolean branches.
type boolSelect struct {
	cond boolOp
	a, b boolOp
	slot int
}

func (o *boolSelect) eval(ec *execCtx) []bool {
	cs := o.cond.eval(ec)
	as := o.a.eval(ec)
	bs := o.b.eval(ec)
	out := ec.bools[o.slot][:ec.n]
	for i := range out {
		if cs[i] {
			out[i] = as[i]
		} else {
			out[i] = bs[i]
		}
	}
	return out
}

// ---- compiler ----

// compiler allocates slot storage while lowering expressions. Every
// node gets its own slot, so distinct expression trees never alias
// scratch vectors and evaluated vectors stay valid until their own
// node is re-evaluated.
type compiler struct {
	tbl   *table.Table
	nums  int
	bools int
	tabs  int
}

func (c *compiler) numSlot() int  { s := c.nums; c.nums++; return s }
func (c *compiler) boolSlot() int { s := c.bools; c.bools++; return s }
func (c *compiler) tabSlot() int  { s := c.tabs; c.tabs++; return s }

func (c *compiler) numExpr(op numOp) cexpr   { return cexpr{kind: kNum, num: op} }
func (c *compiler) boolExpr(op boolOp) cexpr { return cexpr{kind: kBool, b: op} }

// asNumOp converts to the interpreter's value.asNum semantics: numbers
// pass through, booleans become 0/1, strings become NaN.
func (c *compiler) asNumOp(x cexpr) numOp {
	switch x.kind {
	case kNum:
		return x.num
	case kBool:
		return &numFromBool{x: x.b, slot: c.numSlot()}
	case kSel:
		return &numSelect{cond: x.sel.cond, a: c.asNumOp(x.sel.a), b: c.asNumOp(x.sel.b), slot: c.numSlot()}
	default:
		return &numConst{v: math.NaN(), slot: c.numSlot()}
	}
}

// numFieldOp converts with the interpreter's raw `.num` field access
// used by arithmetic, unary minus and ABS: non-numeric values read as
// their zero num field.
func (c *compiler) numFieldOp(x cexpr) numOp {
	switch x.kind {
	case kNum:
		return x.num
	case kSel:
		return &numSelect{cond: x.sel.cond, a: c.numFieldOp(x.sel.a), b: c.numFieldOp(x.sel.b), slot: c.numSlot()}
	default:
		return &numConst{v: 0, slot: c.numSlot()}
	}
}

// truthyOp converts to the interpreter's value.truthy semantics.
func (c *compiler) truthyOp(x cexpr) boolOp {
	switch x.kind {
	case kBool:
		return x.b
	case kNum:
		return &boolNumTruthy{x: x.num, slot: c.boolSlot()}
	case kSel:
		return &boolSelect{cond: x.sel.cond, a: c.truthyOp(x.sel.a), b: c.truthyOp(x.sel.b), slot: c.boolSlot()}
	default:
		if x.str.isConst {
			return &boolConst{v: x.str.lit != "", slot: c.boolSlot()}
		}
		return &boolStrTab{
			col:   x.str.col,
			tab:   c.tabSlot(),
			build: func(d *table.Dict) []bool { return tabFromDict(d, func(v string) bool { return v != "" }) },
			slot:  c.boolSlot(),
		}
	}
}

// compileBool lowers an expression used in boolean context (WHERE,
// COUNT_IF argument).
func (c *compiler) compileBool(e sqlparse.Expr) (boolOp, error) {
	x, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return c.truthyOp(x), nil
}

// compile lowers a scalar expression, mirroring exec.compileScalar's
// validation and value semantics exactly.
func (c *compiler) compile(e sqlparse.Expr) (cexpr, error) {
	switch n := e.(type) {
	case *sqlparse.NumberLit:
		return c.numExpr(&numConst{v: n.Value, slot: c.numSlot()}), nil

	case *sqlparse.StringLit:
		return cexpr{kind: kStr, str: strSrc{isConst: true, lit: n.Value}}, nil

	case *sqlparse.ColumnRef:
		idx := c.tbl.ColumnIndex(n.Name)
		if idx < 0 {
			return cexpr{}, fmt.Errorf("plan: unknown column %q", n.Name)
		}
		switch c.tbl.Columns[idx].Spec.Kind {
		case table.String:
			return cexpr{kind: kStr, str: strSrc{col: idx}}, nil
		case table.Float:
			return c.numExpr(&numColFloat{col: idx, slot: c.numSlot()}), nil
		default: // Int
			return c.numExpr(&numColInt{col: idx, slot: c.numSlot()}), nil
		}

	case *sqlparse.UnaryExpr:
		inner, err := c.compile(n.Expr)
		if err != nil {
			return cexpr{}, err
		}
		switch n.Op {
		case "-":
			return c.numExpr(&numNeg{x: c.numFieldOp(inner), slot: c.numSlot()}), nil
		case "NOT":
			return c.boolExpr(&boolNot{x: c.truthyOp(inner), slot: c.boolSlot()}), nil
		}
		return cexpr{}, fmt.Errorf("plan: unknown unary operator %q", n.Op)

	case *sqlparse.BinaryExpr:
		left, err := c.compile(n.Left)
		if err != nil {
			return cexpr{}, err
		}
		right, err := c.compile(n.Right)
		if err != nil {
			return cexpr{}, err
		}
		switch n.Op {
		case "+", "-", "*", "/":
			return c.numExpr(&numBin{
				op:   n.Op[0],
				l:    c.numFieldOp(left),
				r:    c.numFieldOp(right),
				slot: c.numSlot(),
			}), nil
		case "=", "!=", "<", "<=", ">", ">=":
			return c.boolExpr(c.compileCmp(left, right, cmpOps[n.Op])), nil
		case "AND":
			return c.boolExpr(&boolAnd{l: c.truthyOp(left), r: c.truthyOp(right), slot: c.boolSlot()}), nil
		case "OR":
			return c.boolExpr(&boolOr{l: c.truthyOp(left), r: c.truthyOp(right), slot: c.boolSlot()}), nil
		}
		return cexpr{}, fmt.Errorf("plan: unknown operator %q", n.Op)

	case *sqlparse.BetweenExpr:
		x, err := c.compile(n.Expr)
		if err != nil {
			return cexpr{}, err
		}
		lo, err := c.compile(n.Lo)
		if err != nil {
			return cexpr{}, err
		}
		hi, err := c.compile(n.Hi)
		if err != nil {
			return cexpr{}, err
		}
		// x BETWEEN lo AND hi ≡ x >= lo AND x <= hi; sharing x's compiled
		// node between both comparisons recomputes the same pure values.
		return c.boolExpr(&boolAnd{
			l:    c.compileCmp(x, lo, opGe),
			r:    c.compileCmp(x, hi, opLe),
			slot: c.boolSlot(),
		}), nil

	case *sqlparse.InExpr:
		x, err := c.compile(n.Expr)
		if err != nil {
			return cexpr{}, err
		}
		items := make([]cexpr, len(n.Items))
		allStrConst := true
		for i, it := range n.Items {
			v, err := c.compile(it)
			if err != nil {
				return cexpr{}, err
			}
			items[i] = v
			if !(v.kind == kStr && v.str.isConst) {
				allStrConst = false
			}
		}
		if len(items) == 0 {
			return c.boolExpr(&boolConst{v: false, slot: c.boolSlot()}), nil
		}
		if x.kind == kStr && !x.str.isConst && allStrConst {
			// string column IN literal set: one per-code membership table
			set := make(map[string]bool, len(items))
			for _, v := range items {
				set[v.str.lit] = true
			}
			return c.boolExpr(&boolStrTab{
				col:   x.str.col,
				tab:   c.tabSlot(),
				build: func(d *table.Dict) []bool { return tabFromDict(d, func(v string) bool { return set[v] }) },
				slot:  c.boolSlot(),
			}), nil
		}
		var acc boolOp
		for _, v := range items {
			eq := c.compileCmp(x, v, opEq)
			if acc == nil {
				acc = eq
			} else {
				acc = &boolOr{l: acc, r: eq, slot: c.boolSlot()}
			}
		}
		return c.boolExpr(acc), nil

	case *sqlparse.FuncCall:
		if sqlparse.AggFuncs[n.Name] {
			return cexpr{}, fmt.Errorf("plan: aggregate %s not allowed in scalar context", n.Name)
		}
		switch n.Name {
		case "IF":
			if len(n.Args) != 3 {
				return cexpr{}, fmt.Errorf("plan: IF takes 3 arguments, got %d", len(n.Args))
			}
			cond, err := c.compileBool(n.Args[0])
			if err != nil {
				return cexpr{}, err
			}
			a, err := c.compile(n.Args[1])
			if err != nil {
				return cexpr{}, err
			}
			b, err := c.compile(n.Args[2])
			if err != nil {
				return cexpr{}, err
			}
			switch {
			case a.kind == kNum && b.kind == kNum:
				return c.numExpr(&numSelect{cond: cond, a: a.num, b: b.num, slot: c.numSlot()}), nil
			case a.kind == kBool && b.kind == kBool:
				return c.boolExpr(&boolSelect{cond: cond, a: a.b, b: b.b, slot: c.boolSlot()}), nil
			default:
				return cexpr{kind: kSel, sel: &selExpr{cond: cond, a: a, b: b}}, nil
			}
		case "ABS":
			if len(n.Args) != 1 {
				return cexpr{}, fmt.Errorf("plan: ABS takes 1 argument")
			}
			a, err := c.compile(n.Args[0])
			if err != nil {
				return cexpr{}, err
			}
			return c.numExpr(&numAbs{x: c.numFieldOp(a), slot: c.numSlot()}), nil
		}
		return cexpr{}, fmt.Errorf("plan: unknown function %s", n.Name)
	}
	return cexpr{}, fmt.Errorf("plan: unsupported expression %T", e)
}

// compileCmp lowers a comparison with exec.compare's semantics: both
// sides string → lexicographic; otherwise both via asNum, which folds
// string-vs-numeric comparisons into constants (string asNum is NaN:
// != is always true, every other operator always false). A deferred
// select on either side distributes the comparison over its branches.
func (c *compiler) compileCmp(a, b cexpr, op cmpOp) boolOp {
	if a.kind == kSel {
		return &boolSelect{cond: a.sel.cond, a: c.compileCmp(a.sel.a, b, op), b: c.compileCmp(a.sel.b, b, op), slot: c.boolSlot()}
	}
	if b.kind == kSel {
		return &boolSelect{cond: b.sel.cond, a: c.compileCmp(a, b.sel.a, op), b: c.compileCmp(a, b.sel.b, op), slot: c.boolSlot()}
	}
	if a.kind == kStr && b.kind == kStr {
		switch {
		case a.str.isConst && b.str.isConst:
			return &boolConst{v: cmpStr(op, a.str.lit, b.str.lit), slot: c.boolSlot()}
		case !a.str.isConst && b.str.isConst:
			lit := b.str.lit
			return &boolStrTab{
				col:   a.str.col,
				tab:   c.tabSlot(),
				build: func(d *table.Dict) []bool { return tabFromDict(d, func(v string) bool { return cmpStr(op, v, lit) }) },
				slot:  c.boolSlot(),
			}
		case a.str.isConst && !b.str.isConst:
			lit := a.str.lit
			return &boolStrTab{
				col:   b.str.col,
				tab:   c.tabSlot(),
				build: func(d *table.Dict) []bool { return tabFromDict(d, func(v string) bool { return cmpStr(op, lit, v) }) },
				slot:  c.boolSlot(),
			}
		default:
			return &boolCmpStrCols{op: op, a: a.str.col, b: b.str.col, slot: c.boolSlot()}
		}
	}
	if a.kind == kStr || b.kind == kStr {
		// Mixed string/numeric comparison: the string side reads as NaN
		// under asNum, so the outcome is row-independent.
		return &boolConst{v: op == opNe, slot: c.boolSlot()}
	}
	return &boolCmpNum{op: op, l: c.asNumOp(a), r: c.asNumOp(b), slot: c.boolSlot()}
}
