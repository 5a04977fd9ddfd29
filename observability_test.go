package orchestra

// Query-lifecycle tracing: the span tree a traced query returns must
// account for the distributed execution — every participating node's
// fragment, the ship hops between them, and the initiator's final
// pipeline — with row counts that add up to the answer.

import (
	"testing"
	"time"
)

// collectSpans flattens a span tree, depth first.
func collectSpans(root *TraceSpan) []*TraceSpan {
	if root == nil {
		return nil
	}
	out := []*TraceSpan{root}
	for _, ch := range root.Children {
		out = append(out, collectSpans(ch)...)
	}
	return out
}

// spansNamed filters a flattened tree by span name.
func spansNamed(spans []*TraceSpan, name string) []*TraceSpan {
	var out []*TraceSpan
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestQueryTraceSpanTree runs a traced distributed filter query and
// checks the span tree's shape and accounting: a root covering the
// whole execution, a plan span, one fragment span per shipping node
// whose row counts sum to the answer, and a final-pipeline span.
func TestQueryTraceSpanTree(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, NewSchema("big", "k:int", "g:int").Key("k"))
	rows := make(Rows, 2000)
	for i := range rows {
		rows[i] = Row{i, i % 37}
	}
	mustPublish(t, c, "big", rows)

	res, err := c.QueryOpts("SELECT k, g FROM big WHERE k < 1200", QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1200 {
		t.Fatalf("rows: %d, want 1200", len(res.Rows))
	}
	if len(res.TraceID) != 16 {
		t.Fatalf("trace id %q, want 16 hex digits", res.TraceID)
	}
	root := res.Trace
	if root == nil {
		t.Fatal("no trace on traced query")
	}
	if root.Name != "query" || root.DurUs <= 0 {
		t.Fatalf("root span: %+v", root)
	}

	spans := collectSpans(root)
	if len(spansNamed(spans, "plan")) != 1 {
		t.Fatalf("want exactly one plan span, tree: %v", spans)
	}
	if n := len(spansNamed(spans, "final")); n != 1 {
		t.Fatalf("want exactly one final span, got %d", n)
	}
	passes := spansNamed(spans, "scan.pass")
	if len(passes) == 0 {
		t.Fatal("no scan.pass spans in tree")
	}
	// A pass that emitted rows built its wanted list first: one
	// scan.prepare child, inside the pass's window.
	for _, p := range passes {
		prep := spansNamed(p.Children, "scan.prepare")
		if p.Rows > 0 && len(prep) != 1 || len(prep) > 1 {
			t.Fatalf("scan.pass of %d rows has %d scan.prepare children", p.Rows, len(prep))
		}
		for _, c := range prep {
			if c.StartUs < p.StartUs || c.StartUs+c.DurUs > p.StartUs+p.DurUs || c.Rows < p.Rows {
				t.Fatalf("scan.prepare %+v does not nest in its scan.pass %+v", c, p)
			}
		}
	}
	if n := len(spansNamed(spans, "scan.prepare")); n > len(passes) {
		t.Fatalf("%d scan.prepare spans for %d passes", n, len(passes))
	}

	// Every live node ran a fragment; together they shipped exactly the
	// answer (a pure filter query: no final operator drops rows).
	frags := spansNamed(spans, "fragment")
	if len(frags) != 2 {
		t.Fatalf("fragment spans: %d, want 2 (one per node)", len(frags))
	}
	nodes := map[string]bool{}
	var shipped int64
	for _, f := range frags {
		if f.Node == "" {
			t.Fatalf("fragment span without node id: %+v", f)
		}
		nodes[f.Node] = true
		shipped += f.Rows
	}
	if len(nodes) != 2 {
		t.Fatalf("fragment node ids not distinct: %v", nodes)
	}
	if shipped != int64(len(res.Rows)) {
		t.Fatalf("fragments shipped %d rows, result has %d", shipped, len(res.Rows))
	}

	// Children start within the root's window.
	for _, sp := range spans[1:] {
		if sp.StartUs < 0 || sp.StartUs > root.DurUs {
			t.Fatalf("span %s starts at %dus, outside root window %dus", sp.Name, sp.StartUs, root.DurUs)
		}
	}

	// An untraced query stays untraced.
	plain := mustQuery(t, c, "SELECT k FROM big WHERE k < 10")
	if plain.Trace != nil || plain.TraceID != "" {
		t.Fatalf("untraced query returned a trace: %q", plain.TraceID)
	}
}

// TestQueryTraceIncrementalRecovery traces a query that loses a node
// mid-flight and recovers incrementally: the span tree must survive the
// recovery/replay path and still deliver fragment spans; when recovery
// actually ran, the replayed fragments report their recovery phase.
func TestQueryTraceIncrementalRecovery(t *testing.T) {
	c := newTestCluster(t, 6)
	mustCreate(t, c, NewSchema("big", "k:int", "g:int").Key("k"))
	rows := make(Rows, 3000)
	for i := range rows {
		rows[i] = Row{i, i % 37}
	}
	mustPublish(t, c, "big", rows)

	go func() {
		time.Sleep(2 * time.Millisecond)
		c.Kill(3)
	}()
	res, err := c.QueryOpts(
		"SELECT g, COUNT(*) AS n FROM big GROUP BY g",
		QueryOptions{Recovery: RecoverIncremental, Trace: true})
	if err != nil {
		t.Fatalf("traced query with failure: %v", err)
	}
	if len(res.Rows) != 37 {
		t.Fatalf("groups: %d", len(res.Rows))
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].AsInt()
	}
	if total != 3000 {
		t.Fatalf("count total %d, want 3000", total)
	}

	if res.Trace == nil || res.TraceID == "" {
		t.Fatal("recovered query lost its trace")
	}
	spans := collectSpans(res.Trace)
	frags := spansNamed(spans, "fragment")
	if len(frags) == 0 {
		t.Fatal("no fragment spans after recovery")
	}
	if len(spansNamed(spans, "final")) != 1 {
		t.Fatal("missing final span after recovery")
	}
	if res.Phases > 1 {
		// Incremental recovery re-ran work at the surviving nodes; the
		// last fragment report carries the recovery phase it served.
		replayed := 0
		for _, f := range frags {
			if f.Phase > 0 {
				replayed++
			}
		}
		if replayed == 0 {
			t.Fatalf("query ran %d phases but no fragment span reports a recovery phase", res.Phases)
		}
	}
}

// TestViewCacheHitTrace: a cache-served traced query's trace is the
// lookup itself — one root attributing the hit, no engine spans.
func TestViewCacheHitTrace(t *testing.T) {
	c := newTestCluster(t, 2)
	setupInventory(t, c)
	c.EnableQueryCache(8)

	const q = "SELECT item FROM inv WHERE qty > 100"
	if _, err := c.QueryOpts(q, QueryOptions{Trace: true}); err != nil {
		t.Fatal(err)
	}
	hit, err := c.QueryOpts(q, QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second query missed the view cache")
	}
	if hit.Trace == nil || hit.Trace.CacheHits != 1 {
		t.Fatalf("cache-hit trace: %+v", hit.Trace)
	}
	if hit.Trace.Rows != int64(len(hit.Rows)) {
		t.Fatalf("cache-hit trace rows %d, result %d", hit.Trace.Rows, len(hit.Rows))
	}
	if len(hit.Trace.Children) != 0 {
		t.Fatalf("cache hit grew engine spans: %v", hit.Trace.Children)
	}
}

// TestClusterCacheStats: the cache counters surface through the
// embedded API with both caches represented.
func TestClusterCacheStats(t *testing.T) {
	c := newTestCluster(t, 2)
	setupInventory(t, c)
	c.EnableQueryCache(8)
	const q = "SELECT item FROM inv"
	mustQuery(t, c, q)
	mustQuery(t, c, q)

	stats := c.CacheStats(0)
	views, ok := stats["views"]
	if !ok {
		t.Fatalf("no view-cache stats: %v", stats)
	}
	if views.Hits != 1 || views.Misses != 1 {
		t.Fatalf("view cache hits/misses %d/%d, want 1/1", views.Hits, views.Misses)
	}
	if _, ok := stats["pages"]; !ok {
		t.Fatalf("no page-cache stats: %v", stats)
	}
}
