package main

// trace.go holds the benchmark's own spans: the tree recorded around
// every traced call, with the tree the program returns hung under it,
// and the self-time arithmetic the per-layer report is built on.

import (
	"sort"

	"orchestra/client"
)

// span is one timed stage of one operation. A span and its children
// share a clock; the spans of one operation share Trace.
type span struct {
	Trace    string  `json:"trace"`
	Name     string  `json:"name"`
	Node     string  `json:"node,omitempty"`
	StartUs  int64   `json:"start_us"`
	DurUs    int64   `json:"dur_us"`
	Rows     int64   `json:"rows,omitempty"`
	Batches  int64   `json:"batches,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
	Children []*span `json:"children,omitempty"`
}

// fromServer copies a span tree returned by the program.
func fromServer(trace string, s *client.TraceSpan) *span {
	if s == nil {
		return nil
	}
	out := &span{Trace: trace, Name: s.Name, Node: s.Node, StartUs: s.StartUs, DurUs: s.DurUs,
		Rows: s.Rows, Batches: s.Batches, Bytes: s.Bytes}
	for _, c := range s.Children {
		out.Children = append(out.Children, fromServer(trace, c))
	}
	return out
}

// selfUs is a span's duration minus the part of its interval that its
// children cover; children that overlap each other are counted once.
func selfUs(s *span) int64 {
	type interval struct{ lo, hi int64 }
	var iv []interval
	for _, c := range s.Children {
		lo, hi := max(c.StartUs, s.StartUs), min(c.StartUs+c.DurUs, s.StartUs+s.DurUs)
		if hi > lo {
			iv = append(iv, interval{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	covered, end := int64(0), s.StartUs
	for _, v := range iv {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return s.DurUs - covered
}

// blockingSelf adds, per span name, the self time along the blocking
// path of the tree under s: same-named siblings that ran on different
// nodes are parallel parts of which the result waits for the slowest,
// so only the longest of them is followed.
func blockingSelf(s *span, into map[string]int64) {
	into[s.Name] += selfUs(s)
	slowest := map[string]*span{} // per name, among children that name a node
	for _, c := range s.Children {
		if c.Node == "" {
			continue
		}
		if cur, ok := slowest[c.Name]; !ok || c.DurUs > cur.DurUs {
			slowest[c.Name] = c
		}
	}
	for _, c := range s.Children {
		if c.Node == "" || slowest[c.Name] == c {
			blockingSelf(c, into)
		}
	}
}

// clientSpan wraps one served operation in the benchmark's own spans,
// on a clock that starts when the request is written: client.call covers
// the whole operation, client.first_batch the wait for the first batch,
// client.drain the rest, and the program's own tree (server clock, taken
// to start with the call) hangs beside them.
func clientSpan(s sample) *span {
	total, first := int64(s.totalMs*1000), int64(s.firstMs*1000)
	call := &span{Trace: s.traceID, Name: "client.call", DurUs: total, Rows: s.rows, Bytes: s.bytes}
	call.Children = []*span{
		{Trace: s.traceID, Name: "client.first_batch", DurUs: first},
		{Trace: s.traceID, Name: "client.drain", StartUs: first, DurUs: total - first},
	}
	if srv := fromServer(s.traceID, s.trace); srv != nil {
		call.Children = append(call.Children, srv)
	}
	return call
}
