package v1

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// flatGroup is one group in the encoder's flat form.
type flatGroup struct {
	set              int
	key              []string
	aggs, se, relErr []float64
}

type flatGroups []flatGroup

func (g flatGroups) Len() int { return len(g) }

func (g flatGroups) Group(i int) (int, []string, []float64, []float64, []float64) {
	return g[i].set, g[i].key, g[i].aggs, g[i].se, g[i].relErr
}

// wireResponse is the reference construction: head with Groups built
// the way the server built them before the hand codec — one Group and
// one pointer per cell.
func wireResponse(head QueryResponse, src flatGroups) QueryResponse {
	head.Groups = make([]Group, len(src))
	for i, g := range src {
		head.Groups[i] = Group{Set: g.set, Key: g.key, Aggs: Float64s(g.aggs)}
		if g.se != nil {
			head.Groups[i].SE = Float64s(g.se)
		}
		if g.relErr != nil {
			head.Groups[i].RelErr = Float64s(g.relErr)
		}
	}
	return head
}

// encodingJSON is what the server wrote before the hand codec.
func encodingJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkCodec holds both directions to encoding/json on one response:
// the hand encoder's bytes equal json.Encoder's, and the hand decoder's
// value equals json.Unmarshal's and, unless the body carries a plan or
// a trace, took the fast path.
func checkCodec(t *testing.T, head QueryResponse, src flatGroups) {
	t.Helper()
	want := encodingJSON(t, wireResponse(head, src))
	got, err := AppendQueryResponse(nil, &head, src)
	if err != nil {
		t.Fatalf("AppendQueryResponse: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder bytes differ from encoding/json:\n got %s\nwant %s", got, want)
	}
	checkDecode(t, got)
	var out QueryResponse
	if err := DecodeQueryResponse(got, &out); err != nil {
		t.Fatal(err)
	}
	// an explain plan or a debug trace sends the body to json.Unmarshal
	if head.Plan == nil && head.Trace == nil && !flatCells(out) {
		t.Fatalf("canonical body %s missed the fast path", got)
	}
}

// checkDecode holds DecodeQueryResponse to json.Unmarshal on one body:
// the same error-or-not and a DeepEqual value.
func checkDecode(t testing.TB, data []byte) {
	t.Helper()
	var got, want QueryResponse
	gotErr := DecodeQueryResponse(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decode %q: error %v, json.Unmarshal %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %+v\nwant %+v", data, got, want)
	}
}

// flatCells reports whether every cell of r points into one flat array
// in body order — the fast path's layout, which json.Unmarshal (one
// allocation per cell) never produces for two or more cells.
func flatCells(r QueryResponse) bool {
	var base uintptr
	idx := 0
	for _, g := range r.Groups {
		for _, cells := range [][]*float64{g.Aggs, g.SE, g.RelErr} {
			for _, p := range cells {
				if p != nil {
					addr := uintptr(unsafe.Pointer(p))
					if base == 0 {
						base = addr - uintptr(idx)*8
					} else if addr != base+uintptr(idx)*8 {
						return false
					}
				}
				idx++
			}
		}
	}
	return true
}

func f64(v float64) *float64 { return &v }

func TestQueryResponseCodecFloats(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456.789, 1e-6, 1e-7,
		-1e-7, 9.999999e-7, 1e20, 1e21, -1e21, 1e22, 123e300, 5e-324,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 2.5e-10, 1.7976931348623157e308,
	}
	var src flatGroups
	for i, v := range floats {
		src = append(src, flatGroup{set: i, key: []string{"k"}, aggs: []float64{v}, se: []float64{v, 1}, relErr: []float64{v}})
	}
	checkCodec(t, QueryResponse{Table: "t", Sets: [][]string{{"k"}}, AggLabels: []string{"SUM(v)"}}, src)

	// header floats take the same rule; a non-finite one is
	// encoding/json's unsupported value
	for _, v := range floats {
		head := QueryResponse{Table: "t", TargetCV: v, AchievedCV: f64(v)}
		if !finite(v) {
			if _, err := AppendQueryResponse(nil, &head, flatGroups{}); err == nil {
				t.Errorf("target_cv %v: no error", v)
			}
			head.TargetCV = 0
			if _, err := AppendQueryResponse(nil, &head, flatGroups{}); err == nil {
				t.Errorf("achieved_cv %v: no error", v)
			}
			continue
		}
		checkCodec(t, head, nil)
	}
}

func TestQueryResponseCodecStrings(t *testing.T) {
	strs := []string{
		"", "plain", `quo"te`, `back\slash`, "<tag>", "a&b", "line\u2028sep",
		"para\u2029sep", "\xff\xfe", "caf\xc3\xa9", "é中文", "ctl\x01\x1f", "tab\t",
		"nl\n", "del\x7f", "\ufffd", "\xed\xa0\x80", "mixed <\"\\\u2028\xff>",
	}
	head := QueryResponse{
		Table: strs[3], SampleKey: strs[4], Executor: strs[8],
		Sets: [][]string{strs, nil, {}}, AggLabels: strs,
	}
	var src flatGroups
	for i, s := range strs {
		src = append(src, flatGroup{set: i % 3, key: []string{s, strs[len(strs)-1-i]}, aggs: []float64{float64(i)}})
	}
	checkCodec(t, head, src)
}

func TestQueryResponseCodecShapes(t *testing.T) {
	yes := true
	cases := map[string]struct {
		head QueryResponse
		src  flatGroups
	}{
		"zero groups":  {QueryResponse{Table: "t", Sets: [][]string{{"a"}}, AggLabels: []string{"x"}}, flatGroups{}},
		"nil sets":     {QueryResponse{Table: "t"}, flatGroups{{key: nil, aggs: nil}}},
		"global group": {QueryResponse{Table: "t", Exact: true, Sets: [][]string{{}}}, flatGroups{{key: []string{}, aggs: []float64{3}}}},
		"empty aggs":   {QueryResponse{Table: "t"}, flatGroups{{key: []string{"a"}, aggs: []float64{}, se: []float64{}, relErr: []float64{}}}},
		"exact nil se": {QueryResponse{Table: "t", Exact: true}, flatGroups{{key: []string{"a"}, aggs: []float64{1, 2}}}},
		"all null":     {QueryResponse{Table: "t"}, flatGroups{{aggs: []float64{math.NaN()}, se: []float64{math.Inf(1)}, relErr: []float64{math.NaN()}}}},
		"negative set": {QueryResponse{Table: "t"}, flatGroups{{set: -3, key: []string{"a"}, aggs: []float64{1}}}},
		"every header": {QueryResponse{
			Table: "t", SampleKey: "k", SampleRows: 187, Generation: math.MaxUint64,
			TargetCV: 0.05, ChosenBudget: 406283, AchievedCV: f64(0.049), TargetMet: &yes,
			Degraded: true, Sets: [][]string{{"a", "b"}, {"a"}, {}}, AggLabels: []string{"AVG(v)", "COUNT(*)"},
			Executor: ExecutorColumnar,
			Plan: &PlanNode{Op: "output", Detail: map[string]any{"columns": []string{"a", "<b>"}, "rows": 3.5},
				Children: []*PlanNode{{Op: "scan", Detail: map[string]any{"source": "sample"}}}},
			Trace: &RequestTrace{RequestID: "r1", Route: "POST /v1/query", Start: time.Date(2024, 5, 6, 7, 8, 9, 10, time.UTC),
				DurationMS: 1.25, Spans: []TraceSpan{{Name: "decode", DurationMS: 0.5}}},
		}, flatGroups{
			{set: 0, key: []string{"x", "y"}, aggs: []float64{1, 2}, se: []float64{0.1, math.NaN()}, relErr: []float64{0.01, math.NaN()}},
			{set: 2, key: []string{}, aggs: []float64{3, 4}, se: []float64{0.2, 0.3}},
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { checkCodec(t, c.head, c.src) })
	}
}

// TestQueryResponseCodecRandom holds the codec to encoding/json over
// random shapes: float bit patterns of every class, keys of arbitrary
// bytes, and the nil/empty distinctions the omitempty rules turn on.
func TestQueryResponseCodecRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func() string {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			if rng.Intn(4) == 0 {
				b[i] = byte(rng.Intn(256))
			} else {
				b[i] = byte('a' + rng.Intn(26))
			}
		}
		return string(b)
	}
	randFloats := func(n int) []float64 {
		if rng.Intn(8) == 0 {
			return nil
		}
		out := make([]float64, n)
		for i := range out {
			switch rng.Intn(4) {
			case 0:
				out[i] = math.Float64frombits(rng.Uint64())
			case 1:
				out[i] = float64(rng.Intn(1000))
			default:
				out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
			}
		}
		return out
	}
	for iter := 0; iter < 300; iter++ {
		head := QueryResponse{Table: randStr(), Exact: rng.Intn(2) == 0, SampleRows: rng.Intn(3)}
		nAggs := rng.Intn(4)
		src := make(flatGroups, rng.Intn(20))
		for i := range src {
			g := &src[i]
			g.set = rng.Intn(3)
			if rng.Intn(10) != 0 {
				g.key = make([]string, rng.Intn(4))
				for j := range g.key {
					g.key[j] = randStr()
				}
			}
			g.aggs, g.se, g.relErr = randFloats(nAggs), randFloats(nAggs), randFloats(nAggs)
		}
		checkCodec(t, head, src)
	}
}

// decodeCases are bodies off the canonical path: each must decode to
// exactly what json.Unmarshal gives, error or not.
var decodeCases = []string{
	``, ` `, `null`, `[]`, `""`, `0`, `{}`, ` { } `, `{`, `}`, `{}}`, `{} {}`, `{}x`, "{}\n\t\r ",
	`{"table":"t"}`, `{"table":null}`, `{"table":1}`, `{"Table":"t"}`, `{"TABLE":"t","table":"u"}`,
	`{"t\u0061ble":"t"}`, `{"table":"t","table":"u"}`, `{"unknown":1}`, `{"table":"t",}`,
	`{"table" "t"}`, `{"table":"t"` + "\x00" + `}`, `{"table":"a\u00e9\n\"\\\/\b\f\r\t\u2028"}`,
	`{"table":"\ud800"}`, `{"table":"\ud800\udc00"}`, `{"table":"` + "\xff" + `"}`, `{"table":"` + "\x01" + `"}`,
	`{"table":"\x"}`, `{"table":"\u12"}`, `{"exact":true}`, `{"exact":null}`, `{"exact":tru}`, `{"exact":truex}`,
	`{"sample_rows":3}`, `{"sample_rows":-0}`, `{"sample_rows":3.0}`, `{"sample_rows":3e0}`, `{"sample_rows":03}`,
	`{"sample_rows":9223372036854775807}`, `{"sample_rows":9223372036854775808}`, `{"sample_rows":-}`, `{"sample_rows":"3"}`,
	`{"generation":18446744073709551615}`, `{"generation":18446744073709551616}`, `{"generation":-1}`, `{"generation":-0}`,
	`{"target_cv":0.05}`, `{"target_cv":1e400}`, `{"target_cv":-1e-400}`, `{"target_cv":.5}`, `{"target_cv":1.}`,
	`{"target_cv":1e}`, `{"target_cv":1E+2}`, `{"target_cv":+1}`, `{"target_cv":Infinity}`, `{"target_cv":NaN}`,
	`{"achieved_cv":null}`, `{"achieved_cv":0.5}`, `{"target_met":null}`, `{"target_met":false}`, `{"target_met":0}`,
	`{"degraded":true}`, `{"chosen_budget":12}`, `{"executor":"columnar"}`,
	`{"sets":null}`, `{"sets":[]}`, `{"sets":[null]}`, `{"sets":[[]]}`, `{"sets":[["a"],["b","c"]]}`, `{"sets":[[1]]}`,
	`{"sets":[["a"],]}`, `{"sets":{}}`, `{"agg_labels":null}`, `{"agg_labels":[]}`, `{"agg_labels":["a",null]}`,
	`{"groups":null}`, `{"groups":[]}`, `{"groups":[null]}`, `{"groups":[{}]}`, `{"groups":[{},]}`, `{"groups":{}}`,
	`{"groups":[{"set":1,"key":["a"],"aggs":[1,null],"se":[null,2],"rel_err":[3]}]}`,
	`{"groups":[{"rel_err":[3],"se":[2],"aggs":[1],"key":["a"],"set":1}]}`,
	`{"groups":[{"set":1.5}]}`, `{"groups":[{"set":null}]}`, `{"groups":[{"set":1,"set":2}]}`, `{"groups":[{"Set":1}]}`,
	`{"groups":[{"key":null,"aggs":null,"se":null,"rel_err":null}]}`, `{"groups":[{"key":[],"aggs":[],"se":[]}]}`,
	`{"groups":[{"key":[null]}]}`, `{"groups":[{"aggs":["1"]}]}`, `{"groups":[{"aggs":[1e999]}]}`, `{"groups":[{"aggs":[-0]}]}`,
	`{"groups":[{"aggs":[1,]}]}`, `{"groups":[{"aggs":[1 2]}]}`, `{"groups":[{"extra":1}]}`, `{"groups":[{"key":["\u0041"]}]}`,
	` { "table" : "t" , "groups" : [ { "set" : 0 , "key" : [ "a" , "b" ] , "aggs" : [ 1 , null ] } , { } ] } `,
	`{"groups":[{"aggs":[1]}],"groups":[]}`,
	`{"plan":null}`, `{"plan":{"op":"scan","detail":{"rows":3},"children":[{"op":"x}]{["}]}}`, `{"plan":{"op":1}}`,
	`{"plan":[]}`, `{"plan":"x"}`, `{"plan":{"op":"a"}}}`, `{"plan":{"op":"a"]}`, `{"plan":{"op":"a\"}"}}`,
	`{"plan":{"OP":"a","Detail":{"k":[1,{"x":null}]}}}`, `{"plan":{`, `{"plan":{"op":"a"},"plan":null}`,
	`{"trace":{"request_id":"r","start":"2024-05-06T07:08:09Z","spans":[{"name":"decode"}]}}`,
	`{"trace":{"start":"not a time"}}`, `{"trace":null}`,
	`{"plan":` + strings.Repeat(`{"children":[`, 600) + strings.Repeat(`]}`, 600) + `}`,
	`{"plan":` + strings.Repeat(`{"children":[`, 5000) + strings.Repeat(`]}`, 5000) + `}`,
}

func TestDecodeQueryResponseMatchesUnmarshal(t *testing.T) {
	for _, c := range decodeCases {
		checkDecode(t, []byte(c))
	}
	for _, body := range realBodies(t) {
		checkDecode(t, body)
		var out QueryResponse
		if err := DecodeQueryResponse(body, &out); err != nil || !flatCells(out) {
			t.Fatalf("real body missed the fast path (err %v)", err)
		}
	}
}

// TestDecodeQueryResponseOverwrites: out is overwritten, not merged
// into — unlike json.Unmarshal into a non-zero value.
func TestDecodeQueryResponseOverwrites(t *testing.T) {
	for _, body := range []string{`{"table":"t"}`, `{"Table":"t"}`} {
		out := QueryResponse{SampleKey: "stale", Groups: []Group{{Set: 9}}}
		if err := DecodeQueryResponse([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, QueryResponse{Table: "t"}) {
			t.Errorf("%s: got %+v", body, out)
		}
	}
}

// realBodies are /v1/query bodies captured from cvserve over datagen's
// OpenAQ table (20 000 rows, a 1000-row sample): a narrow dashboard
// tile, a wide one (one group per stratum) and an exact answer.
func realBodies(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, name := range []string{"narrow", "wide", "exact"} {
		data, err := os.ReadFile(filepath.Join("testdata", "query_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzDecodeQueryResponse: on any input DecodeQueryResponse errors
// exactly when json.Unmarshal does and decodes the same value.
func FuzzDecodeQueryResponse(f *testing.F) {
	for _, body := range realBodies(f) {
		f.Add(body)
	}
	for _, c := range decodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// benchResponse is a synthetic answer shaped like the benchmark's
// tiles: n groups of four OpenAQ-like keys, two aggregates and their
// standard errors (COUNT's is null).
func benchResponse(n int) (QueryResponse, flatGroups) {
	rng := rand.New(rand.NewSource(int64(n)))
	countries := []string{"AT", "AU", "BE", "BR", "CA", "CL", "CN", "DE", "ES", "FR", "GB", "IN", "US"}
	params := []string{"bc", "co", "no2", "o3", "pm10", "pm25", "so2"}
	head := QueryResponse{
		Table: "openaq", SampleKey: "openaq/m=20000", SampleRows: 20000,
		Sets:      [][]string{{"country", "parameter", "year", "month"}},
		AggLabels: []string{"AVG(value)", "COUNT(*)"}, Executor: ExecutorColumnar,
	}
	src := make(flatGroups, n)
	for i := range src {
		src[i] = flatGroup{
			key: []string{countries[rng.Intn(len(countries))], params[rng.Intn(len(params))],
				fmt.Sprint(2015 + rng.Intn(4)), fmt.Sprint(1 + rng.Intn(12))},
			aggs: []float64{rng.ExpFloat64() * 40, float64(1 + rng.Intn(30))},
			se:   []float64{rng.ExpFloat64(), math.NaN()},
		}
	}
	return head, src
}

// BenchmarkQueryResponseCodec times both directions of the hand codec
// against encoding/json's (the "json" sub-benchmarks: the []Group
// construction plus json.Encoder, and json.Unmarshal) at the
// benchmark's three tile widths.
func BenchmarkQueryResponseCodec(b *testing.B) {
	for _, n := range []int{7, 266, 11735} {
		head, src := benchResponse(n)
		body, err := AppendQueryResponse(nil, &head, src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encode/%d_groups/hand", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if _, err := AppendQueryResponse(make([]byte, 0, AnswerHeadBytes+MaxGroupBytes*n), &head, src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("encode/%d_groups/json", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			var buf bytes.Buffer
			for b.Loop() {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(wireResponse(head, src)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/%d_groups/hand", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				var out QueryResponse
				if err := DecodeQueryResponse(body, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/%d_groups/json", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				var out QueryResponse
				if err := json.Unmarshal(body, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
