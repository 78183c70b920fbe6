package v1

// The hand codec for QueryResponse, the one body that grows with the
// answer: a query at the finest grain returns one Group per group, so
// a wide answer is tens of thousands of cells. Reflection-driven
// encoding/json costs a heap pointer per cell on both ends; this codec
// writes the body straight from flat float columns and reads it back
// into flat backing arrays. Both directions are pinned to encoding/json
// by differential tests: the encoder's bytes equal
// json.NewEncoder(w).Encode's, and the decoder's value and error equal
// json.Unmarshal's (FuzzDecodeQueryResponse holds the latter on
// arbitrary input). Every other body keeps encoding/json.

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// GroupSource is QueryResponse.Groups in flat form, the encoder's
// input: the server hands it a result's rows without building a
// []Group or one pointer per cell.
type GroupSource interface {
	// Len is the number of groups.
	Len() int
	// Group returns group i: its grouping-set index, its key, its
	// aggregates, its standard errors and its compare-mode relative
	// errors. The slices are read before the next call, so an
	// implementation may reuse one scratch slice. Each value encodes by
	// Float64's rule (NaN and ±Inf become null), a nil key or aggs as
	// null, and an empty se or relErr is omitted — exactly what
	// encoding/json writes for the Group they describe.
	Group(i int) (set int, key []string, aggs, se, relErr []float64)
}

// Per-group sizes of a canonical body, measured on the benchmark's
// tiles (2 M OpenAQ rows, a 20 000-row sample): the wide tile, 11 735
// groups of four keys and four cells, encodes to 95.1 B a group as
// AVG and COUNT and to 118.6 B as SUM and AVG; the narrow tile, 258
// groups of two keys and four cells, to 107.4 B. The server presizes
// an answer's buffer from MaxGroupBytes and the decoder its backing
// arrays from MinGroupBytes and groupFields, so neither end regrows on
// these tiles (serve's TestAnswerPresizeFitsTiles holds the figures to
// the same tiles over 200 000 rows). Smaller bodies (an exact answer has no se, about 70 B a
// group) may regrow the decoder's backings once, at a size where that
// costs microseconds.
const (
	// MaxGroupBytes is above every measured figure: an answer of n
	// groups and a plain header fits in AnswerHeadBytes+MaxGroupBytes*n
	// bytes.
	MaxGroupBytes = 128
	// AnswerHeadBytes covers every header field but an explain plan or
	// a debug trace (the narrow tile's header is 335 B).
	AnswerHeadBytes = 512
	// MinGroupBytes is below every measured figure: a body of b bytes
	// holds at most b/MinGroupBytes+1 such groups.
	MinGroupBytes = 90
	// groupFields is the most keys, and the most cells, a measured
	// group has.
	groupFields = 4
)

// AppendQueryResponse appends head with the groups of src to dst and
// returns the extended buffer. The bytes are exactly those
// json.NewEncoder(w).Encode writes for head with Groups set to the
// []Group that src describes, trailing newline included; head.Groups
// itself is ignored. The error is encoding/json's: a non-finite
// TargetCV or AchievedCV, or a Plan or Trace it cannot marshal.
func AppendQueryResponse(dst []byte, head *QueryResponse, src GroupSource) ([]byte, error) {
	b := append(dst, `{"table":`...)
	b = appendString(b, head.Table)
	b = append(b, `,"exact":`...)
	b = strconv.AppendBool(b, head.Exact)
	if head.SampleKey != "" {
		b = append(b, `,"sample_key":`...)
		b = appendString(b, head.SampleKey)
	}
	if head.SampleRows != 0 {
		b = append(b, `,"sample_rows":`...)
		b = strconv.AppendInt(b, int64(head.SampleRows), 10)
	}
	if head.Generation != 0 {
		b = append(b, `,"generation":`...)
		b = strconv.AppendUint(b, head.Generation, 10)
	}
	if head.TargetCV != 0 {
		if !finite(head.TargetCV) {
			return dst, unsupportedFloat(head.TargetCV)
		}
		b = append(b, `,"target_cv":`...)
		b = appendFloat(b, head.TargetCV)
	}
	if head.ChosenBudget != 0 {
		b = append(b, `,"chosen_budget":`...)
		b = strconv.AppendInt(b, int64(head.ChosenBudget), 10)
	}
	if head.AchievedCV != nil {
		if !finite(*head.AchievedCV) {
			return dst, unsupportedFloat(*head.AchievedCV)
		}
		b = append(b, `,"achieved_cv":`...)
		b = appendFloat(b, *head.AchievedCV)
	}
	if head.TargetMet != nil {
		b = append(b, `,"target_met":`...)
		b = strconv.AppendBool(b, *head.TargetMet)
	}
	if head.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = append(b, `,"sets":`...)
	if head.Sets == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, set := range head.Sets {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStrings(b, set)
		}
		b = append(b, ']')
	}
	b = append(b, `,"agg_labels":`...)
	b = appendStrings(b, head.AggLabels)
	b = append(b, `,"groups":[`...)
	for i, n := 0, src.Len(); i < n; i++ {
		set, key, aggs, se, relErr := src.Group(i)
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"set":`...)
		b = strconv.AppendInt(b, int64(set), 10)
		b = append(b, `,"key":`...)
		b = appendStrings(b, key)
		b = append(b, `,"aggs":`...)
		b = appendCells(b, aggs)
		if len(se) > 0 {
			b = append(b, `,"se":`...)
			b = appendCells(b, se)
		}
		if len(relErr) > 0 {
			b = append(b, `,"rel_err":`...)
			b = appendCells(b, relErr)
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	if head.Executor != "" {
		b = append(b, `,"executor":`...)
		b = appendString(b, head.Executor)
	}
	var err error
	if head.Plan != nil {
		b = append(b, `,"plan":`...)
		if b, err = appendMarshal(b, head.Plan); err != nil {
			return dst, err
		}
	}
	if head.Trace != nil {
		b = append(b, `,"trace":`...)
		if b, err = appendMarshal(b, head.Trace); err != nil {
			return dst, err
		}
	}
	return append(b, "}\n"...), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func unsupportedFloat(f float64) error {
	return errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
}

func appendMarshal(b []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, data...), nil
}

// appendFloat writes f, which must be finite, by encoding/json's rule
// for float64. Adapted from floatEncoder.encode in Go's
// encoding/json/encode.go (Copyright The Go Authors, BSD-style license):
// ES6 number-to-string, i.e. 'f' format, or 'e' when |f| < 1e-6 or
// |f| >= 1e21, with the exponent unpadded (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendCells writes a cell array: each value by Float64's rule, a nil
// slice as null (what encoding/json writes for Float64s(vs)).
func appendCells(b []byte, vs []float64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		if finite(v) {
			b = appendFloat(b, v)
		} else {
			b = append(b, "null"...)
		}
	}
	return append(b, ']')
}

func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// plainByte marks the bytes encoding/json writes verbatim inside a
// string under its default HTML escaping: printable ASCII except ", \,
// <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString writes s as a JSON string. A string of plain bytes only
// is copied between quotes; any other goes through json.Marshal, which
// owns the escaping rules (HTML characters, U+2028/U+2029, invalid
// UTF-8).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// DecodeQueryResponse decodes a POST /v1/query body into out, which it
// overwrites. The value and the error are exactly those of
// json.Unmarshal(data, out) into a zero QueryResponse. A canonical body
// — what AppendQueryResponse writes — is decoded by hand: every cell
// points into one flat []float64, key strings are interned per body,
// and key and cell slices are cut from shared backing arrays. Anything
// else (an explain plan or a debug trace, an unknown, duplicate or
// case-variant key, a null where the encoder never writes one, a
// non-integer set, trailing data, a syntax error) is handed to
// json.Unmarshal whole.
func DecodeQueryResponse(data []byte, out *QueryResponse) error {
	d := respDecoder{data: data}
	if d.response(out) {
		return nil
	}
	*out = QueryResponse{}
	return json.Unmarshal(data, out)
}

// span locates one slice of a group in the decoder's backing arrays:
// n elements from off, or a nil slice when n < 0.
type span struct{ off, n int32 }

// groupSpans are one group's slices: key in the string backing, the
// cells in the float backing.
type groupSpans struct{ key, aggs, se, rel span }

// respDecoder is the fast path of DecodeQueryResponse. Every method
// returns false on anything it does not handle, and the caller then
// defers to json.Unmarshal; it writes out only once the whole body has
// parsed.
type respDecoder struct {
	data   []byte
	pos    int
	intern map[string]string
	keys   []string  // every group's key strings, in body order
	cells  []float64 // every group's cells, in body order; NaN is null
	groups []Group   // Set filled while parsing, slices at the end
	spans  []groupSpans
}

// Fields of QueryResponse and Group, as bits of a seen-set.
const (
	fTable = 1 << iota
	fExact
	fSampleKey
	fSampleRows
	fGeneration
	fTargetCV
	fChosenBudget
	fAchievedCV
	fTargetMet
	fDegraded
	fSets
	fAggLabels
	fGroups
	fExecutor
)

const (
	gSet = 1 << iota
	gKey
	gAggs
	gSE
	gRelErr
)

func (d *respDecoder) response(out *QueryResponse) bool {
	var r QueryResponse
	ok := d.object(func(name []byte) (bit int, ok bool) {
		switch string(name) {
		case "table":
			r.Table, ok = d.str()
			return fTable, ok
		case "exact":
			r.Exact, ok = d.boolean()
			return fExact, ok
		case "sample_key":
			r.SampleKey, ok = d.str()
			return fSampleKey, ok
		case "sample_rows":
			r.SampleRows, ok = d.integer()
			return fSampleRows, ok
		case "generation":
			r.Generation, ok = d.unsigned()
			return fGeneration, ok
		case "target_cv":
			r.TargetCV, ok = d.float()
			return fTargetCV, ok
		case "chosen_budget":
			r.ChosenBudget, ok = d.integer()
			return fChosenBudget, ok
		case "achieved_cv":
			if d.null() {
				return fAchievedCV, true
			}
			v, ok := d.float()
			r.AchievedCV = &v
			return fAchievedCV, ok
		case "target_met":
			if d.null() {
				return fTargetMet, true
			}
			v, ok := d.boolean()
			r.TargetMet = &v
			return fTargetMet, ok
		case "degraded":
			r.Degraded, ok = d.boolean()
			return fDegraded, ok
		case "sets":
			r.Sets, ok = d.stringMatrix()
			return fSets, ok
		case "agg_labels":
			r.AggLabels, ok = d.strings()
			return fAggLabels, ok
		case "groups":
			return fGroups, d.groupList()
		case "executor":
			r.Executor, ok = d.str()
			return fExecutor, ok
		}
		// plan and trace (explain and debug bodies, rare and small)
		// go to json.Unmarshal with the rest of the body
		return 0, false
	})
	if !ok {
		return false
	}
	if d.skipSpace(); d.pos != len(d.data) {
		return false // trailing data
	}
	if d.groups != nil {
		r.Groups = d.assemble()
	}
	*out = r
	return true
}

// groupList parses the groups array, or null, into d.groups/d.spans.
// An array leaves d.groups non-nil even when empty.
func (d *respDecoder) groupList() bool {
	if d.null() {
		return true
	}
	// at least MinGroupBytes a group, at most groupFields keys and
	// groupFields cells: the benchmark's tiles fill the backings
	// without regrowing them
	guess := len(d.data)/MinGroupBytes + 1
	d.groups = make([]Group, 0, guess)
	d.spans = make([]groupSpans, 0, guess)
	d.keys = make([]string, 0, groupFields*guess)
	d.cells = make([]float64, 0, groupFields*guess)
	return d.array(d.group)
}

// group parses one group object onto the backings.
func (d *respDecoder) group() bool {
	var g Group
	sp := groupSpans{span{n: -1}, span{n: -1}, span{n: -1}, span{n: -1}}
	ok := d.object(func(name []byte) (bit int, ok bool) {
		switch string(name) {
		case "set":
			g.Set, ok = d.integer()
			return gSet, ok
		case "key":
			sp.key, ok = d.keyStrings()
			return gKey, ok
		case "aggs":
			sp.aggs, ok = d.cellList()
			return gAggs, ok
		case "se":
			sp.se, ok = d.cellList()
			return gSE, ok
		case "rel_err":
			sp.rel, ok = d.cellList()
			return gRelErr, ok
		}
		return 0, false
	})
	d.groups = append(d.groups, g)
	d.spans = append(d.spans, sp)
	return ok
}

// assemble points every group's slices into the final backings: one
// []*float64 over one []float64 for the cells, one []string for the
// keys, each slice capped with a 3-index slice so an append by the
// caller cannot run into its neighbour.
func (d *respDecoder) assemble() []Group {
	ptrs := make([]*float64, len(d.cells))
	for i := range d.cells {
		if v := &d.cells[i]; !math.IsNaN(*v) {
			ptrs[i] = v
		}
	}
	cut := func(s span) []*float64 {
		if s.n < 0 {
			return nil
		}
		return ptrs[s.off : s.off+s.n : s.off+s.n]
	}
	for i := range d.groups {
		g, sp := &d.groups[i], d.spans[i]
		if sp.key.n >= 0 {
			g.Key = d.keys[sp.key.off : sp.key.off+sp.key.n : sp.key.off+sp.key.n]
		}
		g.Aggs, g.SE, g.RelErr = cut(sp.aggs), cut(sp.se), cut(sp.rel)
	}
	return d.groups
}

// keyStrings parses a group key (an array of strings, or null) onto
// d.keys.
func (d *respDecoder) keyStrings() (span, bool) {
	if d.null() {
		return span{n: -1}, true
	}
	off := len(d.keys)
	ok := d.array(func() bool {
		s, ok := d.str()
		d.keys = append(d.keys, s)
		return ok
	})
	return span{off: int32(off), n: int32(len(d.keys) - off)}, ok
}

// cellList parses a cell array (numbers and nulls, or null) onto
// d.cells, marking a null cell NaN — a value no JSON number decodes
// to.
func (d *respDecoder) cellList() (span, bool) {
	if d.null() {
		return span{n: -1}, true
	}
	off := len(d.cells)
	ok := d.array(func() bool {
		if d.null() {
			d.cells = append(d.cells, math.NaN())
			return true
		}
		v, ok := d.float()
		d.cells = append(d.cells, v)
		return ok
	})
	return span{off: int32(off), n: int32(len(d.cells) - off)}, ok
}

// strings parses an array of strings, or null.
func (d *respDecoder) strings() ([]string, bool) {
	if d.null() {
		return nil, true
	}
	out := []string{}
	ok := d.array(func() bool {
		s, ok := d.str()
		out = append(out, s)
		return ok
	})
	return out, ok
}

// stringMatrix parses an array of string arrays (each possibly null),
// or null.
func (d *respDecoder) stringMatrix() ([][]string, bool) {
	if d.null() {
		return nil, true
	}
	out := [][]string{}
	ok := d.array(func() bool {
		ss, ok := d.strings()
		out = append(out, ss)
		return ok
	})
	return out, ok
}

// object parses an object whose keys are plain field names, each at
// most once. field parses the value of the named field and returns the
// field's bit of a seen-set, or false for an unknown name or a value
// it does not handle.
func (d *respDecoder) object(field func(name []byte) (bit int, ok bool)) bool {
	if !d.consume('{') {
		return false
	}
	if d.skipSpace(); d.peek() == '}' {
		d.pos++
		return true
	}
	seen := 0
	for {
		d.skipSpace()
		name, ok := d.key()
		if !ok {
			return false
		}
		bit, ok := field(name)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.next('}'); !more {
			return ok
		}
	}
}

// array parses an array, elem parsing each element.
func (d *respDecoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.skipSpace(); d.peek() == ']' {
		d.pos++
		return true
	}
	for {
		if !elem() {
			return false
		}
		if more, ok := d.next(']'); !more {
			return ok
		}
	}
}

// next consumes what follows a member or an element: a comma (more
// follows) or the closing bracket.
func (d *respDecoder) next(closing byte) (more, ok bool) {
	d.skipSpace()
	switch d.peek() {
	case ',':
		d.pos++
		return true, true
	case closing:
		d.pos++
		return false, true
	}
	return false, false
}

func (d *respDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *respDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips white space and then c, reporting whether c was there.
func (d *respDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.peek() != c {
		return false
	}
	d.pos++
	return true
}

// key parses an object key and its colon. Only a key of plain bytes
// can name a field on the fast path: an escaped key could still spell
// one (or a case variant), which json.Unmarshal resolves.
func (d *respDecoder) key() ([]byte, bool) {
	if d.peek() != '"' {
		return nil, false
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], d.consume(':')
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// token scans the JSON string at d.pos, escapes included, and returns
// it with its quotes; d.pos moves past it.
func (d *respDecoder) token() ([]byte, bool) {
	start := d.pos
	for i := start + 1; i < len(d.data); i++ {
		switch d.data[i] {
		case '\\':
			i++
		case '"':
			d.pos = i + 1
			return d.data[start:d.pos], true
		}
	}
	return nil, false
}

// str parses a string value (leading white space included). A string
// of plain printable ASCII is interned straight from the body; one
// with an escape or with bytes ≥ 0x80 that are not valid UTF-8 is
// unquoted by json.Unmarshal of that one token, which owns the escape
// and U+FFFD replacement rules.
func (d *respDecoder) str() (string, bool) {
	d.skipSpace()
	if d.peek() != '"' {
		return "", false
	}
	start := d.pos + 1
	high := false
	for i := start; i < len(d.data); i++ {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			raw := d.data[start:i]
			if high && !utf8.Valid(raw) {
				d.pos = start - 1
				return d.unquote()
			}
			return d.interned(raw), true
		case c == '\\':
			d.pos = start - 1
			return d.unquote()
		case c < 0x20:
			return "", false
		case c >= 0x80:
			high = true
		}
	}
	return "", false
}

func (d *respDecoder) unquote() (string, bool) {
	tok, ok := d.token()
	if !ok {
		return "", false
	}
	var s string
	if json.Unmarshal(tok, &s) != nil {
		return "", false
	}
	return d.interned([]byte(s)), true
}

func (d *respDecoder) interned(b []byte) string {
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	s := string(b)
	d.intern[s] = s
	return s
}

// null parses the literal null if it is next (after white space).
func (d *respDecoder) null() bool {
	d.skipSpace()
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

func (d *respDecoder) boolean() (bool, bool) {
	d.skipSpace()
	rest := d.data[d.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.pos += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.pos += 5
		return false, true
	}
	return false, false
}

// number scans a JSON number literal (leading white space skipped)
// and reports whether it is integral (no fraction, no exponent). The
// literal's end is not checked here: whatever follows must be the
// next token, which the caller checks.
func (d *respDecoder) number() (lit []byte, integral, ok bool) {
	d.skipSpace()
	data, i := d.data, d.pos
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		return nil, false, false
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		integral = false
		if i++; i >= len(data) || !isDigit(data[i]) {
			return nil, false, false
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integral = false
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return nil, false, false
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	d.pos = i
	return data[start:i], integral, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// float parses a number as encoding/json does for a float64 field:
// strconv.ParseFloat of the literal, an out-of-range literal being an
// error.
func (d *respDecoder) float() (float64, bool) {
	lit, _, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// integer parses an integral literal as encoding/json does for an int
// field; a fraction or an exponent is encoding/json's type error.
func (d *respDecoder) integer() (int, bool) {
	lit, integral, ok := d.number()
	if !ok || !integral {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(v), err == nil
}

func (d *respDecoder) unsigned() (uint64, bool) {
	lit, integral, ok := d.number()
	if !ok || !integral {
		return 0, false
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	return v, err == nil
}
