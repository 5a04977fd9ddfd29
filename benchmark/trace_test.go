package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := &span{Name: "p", StartUs: 100, DurUs: 100, Children: []*span{
		{Name: "a", StartUs: 110, DurUs: 30}, // 110..140
		{Name: "b", StartUs: 130, DurUs: 30}, // 130..160, overlaps a by 10
		{Name: "c", StartUs: 190, DurUs: 50}, // 190..240, clipped to 190..200
		{Name: "d", StartUs: 20, DurUs: 10},  // before the parent: covers nothing
	}}
	// Covered: 110..160 (50) + 190..200 (10) = 60.
	if got := selfUs(parent); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := selfUs(&span{DurUs: 7}); got != 7 {
		t.Errorf("self time of a leaf = %d, want its duration 7", got)
	}
}

func TestBlockingPathFollowsTheSlowestParallelPart(t *testing.T) {
	fragment := func(node string, dur, index, pass int64) *span {
		return &span{Name: "fragment", Node: node, DurUs: dur, Children: []*span{
			{Name: "scan.index", StartUs: 0, DurUs: index},
			{Name: "scan.pass", StartUs: index, DurUs: pass},
		}}
	}
	root := &span{Name: "query", DurUs: 1000, Children: []*span{
		{Name: "plan", StartUs: 0, DurUs: 50},
		fragment("n0", 400, 100, 250), // self 50
		fragment("n1", 900, 200, 600), // self 100: the slowest, the one followed
		fragment("n2", 700, 300, 300),
		{Name: "final", StartUs: 950, DurUs: 30},
	}}
	got := map[string]int64{}
	blockingSelf(root, got)
	want := map[string]int64{
		"query":      1000 - 900 - 30, // plan and the fragments overlap 0..900; final covers 950..980
		"plan":       50,
		"fragment":   100,
		"scan.index": 200,
		"scan.pass":  600,
		"final":      30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("blocking-path self times = %v, want %v", got, want)
	}
}

func TestClientSpanHangsTheServerTreeUnderTheCall(t *testing.T) {
	s := sample{traceID: "t1", totalMs: 10, firstMs: 4, rows: 5}
	call := clientSpan(s)
	if call.Name != "client.call" || call.DurUs != 10000 || len(call.Children) != 2 {
		t.Fatalf("untraced call span = %+v", call)
	}
	if d := call.Children[1]; d.Name != "client.drain" || d.StartUs != 4000 || d.DurUs != 6000 {
		t.Errorf("drain span = %+v", d)
	}
	if got := selfUs(call); got != 0 {
		t.Errorf("first batch and drain cover the call, self = %d", got)
	}
}
