package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The traced run cannot open spans inside the program (that is a later
// change), so it opens them from outside: every sampled op is executed
// once per nesting level — the whole request through the client, the
// same request straight into the handler, the registry call under it,
// the leaf calls under that — with a span around each call. A level's
// self time is its span minus its children's spans for the same op.

// span is one timed call. Spans of one op share Op; Parent is the ID of
// the span of the enclosing level (0: none). Times are nanoseconds
// since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Class   string `json:"class"`
	Op      int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs f inside a new span and returns the span's ID and duration.
func (t *tracer) time(name, class string, op, parent int, f func() error) (int, time.Duration, error) {
	id := len(t.spans) + 1
	start := time.Now()
	err := f()
	end := time.Now()
	t.spans = append(t.spans, span{ID: id, Name: name, Class: class, Op: op, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return id, end.Sub(start), err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// node is one nesting level of an op class: a public call into a layer,
// and the calls it makes that are traced separately. prepare, when set,
// runs untimed before call and builds what call needs (a parsed query
// for Plan.Execute, a request for ServeHTTP).
type node struct {
	name     string
	prepare  func(op int) error
	call     func(op int) error
	children []*node

	dur []time.Duration // per op, filled by replay
}

// replay executes n ops through every level of the tree rooted at root,
// op by op, parents before children, on the calling goroutine.
func (t *tracer) replay(class string, root *node, n int) error {
	var walk func(nd *node, op, parent int) error
	walk = func(nd *node, op, parent int) error {
		if nd.prepare != nil {
			if err := nd.prepare(op); err != nil {
				return fmt.Errorf("%s/%s op %d: %w", class, nd.name, op, err)
			}
		}
		id, d, err := t.time(nd.name, class, op, parent, func() error { return nd.call(op) })
		if err != nil {
			return fmt.Errorf("%s/%s op %d: %w", class, nd.name, op, err)
		}
		nd.dur = append(nd.dur, d)
		for _, c := range nd.children {
			if err := walk(c, op, id); err != nil {
				return err
			}
		}
		return nil
	}
	for op := range n {
		if err := walk(root, op, 0); err != nil {
			return err
		}
	}
	return nil
}

// p50 is the median duration of the level, in unit.
func (nd *node) p50(unit string) float64 {
	return summarize(nd.dur, unit).p50
}

// selfP50 is the median over ops of the level's self time: its span
// minus its children's spans for the same op. Re-execution makes a
// single op's self time noisy — it can even be negative — which is why
// the median is taken over per-op differences, not the difference of
// medians, and why the attribution check below exists.
func (nd *node) selfP50(unit string) float64 {
	selfs := make([]float64, len(nd.dur))
	for op, d := range nd.dur {
		for _, c := range nd.children {
			d -= c.dur[op]
		}
		selfs[op] = inUnit(d, unit)
	}
	return median(selfs)
}

// find returns the level with the given name in the tree, or nil.
func (nd *node) find(name string) *node {
	if nd.name == name {
		return nd
	}
	for _, c := range nd.children {
		if f := c.find(name); f != nil {
			return f
		}
	}
	return nil
}

// unattributedShare is the share of the outermost span's median that
// the levels' median self times do not add up to. Per op the self times
// telescope to the outermost span exactly; their medians need not, and
// the gap says how far the per-level numbers can be trusted.
func (nd *node) unattributedShare() float64 {
	var sum float64
	var walk func(*node)
	walk = func(n *node) {
		sum += n.selfP50("ns")
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(nd)
	return math.Abs(nd.p50("ns")-sum) / nd.p50("ns")
}

// describe renders the class's breakdown for the human report.
func (nd *node) describe(class, unit string) []string {
	var out []string
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		out = append(out, fmt.Sprintf("  %-8s %*s%-*s span %10.4g %s  self %10.4g %s", class, 2*depth, "", 24-2*depth, n.name, n.p50(unit), unit, n.selfP50(unit), unit))
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(nd, 0)
	out = append(out, fmt.Sprintf("  %-8s %-24s %.1f%% of the outermost span (n=%d ops)", class, "unattributed", nd.unattributedShare()*100, len(nd.dur)))
	return out
}
