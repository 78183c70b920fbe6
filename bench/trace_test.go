package main

import (
	"math"
	"testing"
	"time"
)

func us(xs ...int) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x) * time.Microsecond
	}
	return out
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	parse := &node{name: "parse", dur: us(10, 10, 10)}
	exec := &node{name: "exec", dur: us(50, 60, 70)}
	query := &node{name: "query", children: []*node{parse, exec}, dur: us(65, 80, 85)}
	root := &node{name: "client", children: []*node{query}, dur: us(100, 100, 200)}

	if got := query.selfP50("us"); got != 5 { // per op: 5, 10, 5
		t.Errorf("query self = %v us, want 5", got)
	}
	if got := root.selfP50("us"); got != 35 { // per op: 35, 20, 115
		t.Errorf("client self = %v us, want 35", got)
	}
	if got := parse.selfP50("us"); got != 10 {
		t.Errorf("leaf self = %v us, want its span", got)
	}
	if root.find("exec") != exec || root.find("nope") != nil {
		t.Error("find")
	}
	// medians of selfs: 35 + 5 + 10 + 60 = 110 against a 100 us outer median
	if got := root.unattributedShare(); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("unattributed share = %v, want 0.10", got)
	}
}

func TestReplayRecordsOneSpanPerLevelAndOp(t *testing.T) {
	tr := newTracer()
	var order []string
	leaf := &node{name: "leaf", call: func(int) error { order = append(order, "leaf"); return nil }}
	root := &node{name: "root", children: []*node{leaf},
		prepare: func(int) error { order = append(order, "prepare"); return nil },
		call:    func(int) error { order = append(order, "root"); return nil }}
	if err := tr.replay("c", root, 2); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 4 || len(root.dur) != 2 || len(leaf.dur) != 2 {
		t.Fatalf("%d spans, %d and %d durations", len(tr.spans), len(root.dur), len(leaf.dur))
	}
	for i, want := range []string{"prepare", "root", "leaf", "prepare", "root", "leaf"} {
		if order[i] != want {
			t.Fatalf("call order %v", order)
		}
	}
	// op 1's leaf span names op 1's root span as its parent
	rootSpan, leafSpan := tr.spans[2], tr.spans[3]
	if rootSpan.Name != "root" || rootSpan.Op != 1 || rootSpan.Parent != 0 || leafSpan.Parent != rootSpan.ID || leafSpan.Op != 1 {
		t.Errorf("spans %+v %+v", rootSpan, leafSpan)
	}
	if leafSpan.EndNS < leafSpan.StartNS || leafSpan.StartNS < rootSpan.EndNS {
		t.Errorf("span times out of order: %+v %+v", rootSpan, leafSpan)
	}
}
