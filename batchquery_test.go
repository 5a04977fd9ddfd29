package orchestra

import (
	"fmt"
	"testing"

	"orchestra/internal/tuple"
)

func newScanCluster(t *testing.T, rows int) *Cluster {
	t.Helper()
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.CreateRelation(NewSchema("bq", "k:string", "grp:int", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}
	batch := make([]tuple.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, tuple.Row{tuple.S(fmt.Sprintf("k%05d", i)), tuple.I(int64(i % 7)), tuple.I(int64(i))})
	}
	if _, err := c.PublishTyped(0, "bq", batch); err != nil {
		t.Fatal(err)
	}
	return c
}

// testSink is the serving path's sink as a test sees it: it counts what
// arrives through each form and, with keep set, materializes the rows.
type testSink struct {
	keep             bool
	cols             []string
	rows             []tuple.Row
	n                int
	rowCalls, colCal int
}

func (s *testSink) Columns(cols []string) { s.cols = cols }

func (s *testSink) StreamRows(rows []tuple.Row) error {
	s.rowCalls++
	s.n += len(rows)
	if s.keep {
		s.rows = append(s.rows, rows...)
	}
	return nil
}

func (s *testSink) StreamCols(b *tuple.Batch) error {
	s.colCal++
	s.n += b.N
	if s.keep {
		s.rows = append(s.rows, b.Rows()...)
	}
	return nil
}

// TestServedQueryColumnar checks the serving hand-off: a non-provenance
// scan emits its whole answer columnar — the row form must never fire —
// and the content matches the embedded Query.
func TestServedQueryColumnar(t *testing.T) {
	c := newScanCluster(t, 500)
	q := "SELECT k, grp, v FROM bq WHERE v >= 100 AND v < 400"
	want, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 300 {
		t.Fatalf("reference query: %d rows", len(want.Rows))
	}

	sink := &testSink{keep: true}
	res, err := c.QueryOpts(q, QueryOptions{sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatalf("served result kept %d rows at the initiator", len(res.Rows))
	}
	if sink.rowCalls != 0 {
		t.Fatalf("row form fired %d times on the columnar path", sink.rowCalls)
	}
	if sink.colCal == 0 {
		t.Fatal("columnar form never fired")
	}
	if res.Epoch != want.Epoch || len(res.Columns) != 3 || len(sink.cols) != 3 {
		t.Fatalf("meta: %+v, sink columns %v", res, sink.cols)
	}
	if len(sink.rows) != len(want.Rows) {
		t.Fatalf("columnar emitted %d rows, query answered %d", len(sink.rows), len(want.Rows))
	}
	seen := make(map[string]bool, len(want.Rows))
	for _, r := range want.Rows {
		seen[fmt.Sprint(r)] = true
	}
	for _, r := range sink.rows {
		if !seen[fmt.Sprint(r)] {
			t.Fatalf("columnar row %v not in reference answer", r)
		}
	}
}

// TestServedQueryProvenanceEmitsRows: provenance-mode collections are
// row-granular, so the answer must arrive in row form.
func TestServedQueryProvenanceEmitsRows(t *testing.T) {
	c := newScanCluster(t, 200)
	sink := &testSink{}
	if _, err := c.QueryOpts("SELECT k, v FROM bq WHERE v < 50", QueryOptions{Provenance: true, sink: sink}); err != nil {
		t.Fatal(err)
	}
	if sink.colCal != 0 {
		t.Fatalf("columnar form fired %d times in provenance mode", sink.colCal)
	}
	if sink.n != 50 {
		t.Fatalf("row form delivered %d rows, want 50", sink.n)
	}
}

// TestQueryLimitPushdown: a limit-only final pipeline must still answer
// exactly N valid rows through both the embedded and served paths (the
// early-completion optimization must never change the answer size).
func TestQueryLimitPushdown(t *testing.T) {
	c := newScanCluster(t, 2000)
	q := "SELECT k, grp, v FROM bq WHERE v >= 0 LIMIT 25"
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("LIMIT 25 answered %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r) != 3 || r[2].I64 < 0 || r[2].I64 >= 2000 {
			t.Fatalf("row out of domain: %v", r)
		}
	}
	sink := &testSink{}
	if _, err := c.QueryOpts(q, QueryOptions{sink: sink}); err != nil {
		t.Fatal(err)
	}
	if sink.n != 25 {
		t.Fatalf("served LIMIT 25 emitted %d rows", sink.n)
	}
}

// TestServedQueryCacheHitEmitsRows: view-cache entries are stored as rows
// and replay in row form; the miss that filled the entry still went out
// columnar.
func TestServedQueryCacheHitEmitsRows(t *testing.T) {
	c := newScanCluster(t, 100)
	c.EnableQueryCache(16)
	q := "SELECT k, v FROM bq WHERE v < 40"
	miss, hit := &testSink{}, &testSink{keep: true}
	if _, err := c.QueryOpts(q, QueryOptions{sink: miss}); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryOpts(q, QueryOptions{sink: hit})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second query not served from cache")
	}
	if miss.n != 40 || miss.rowCalls != 0 {
		t.Fatalf("miss emitted %d rows (%d in row form), want 40 columnar", miss.n, miss.rowCalls)
	}
	if hit.n != 40 || hit.colCal != 0 || len(hit.cols) != 2 {
		t.Fatalf("cache hit emitted %d rows (%d columnar calls), columns %v; want 40 in row form", hit.n, hit.colCal, hit.cols)
	}
	// The embedded caller owns its answer: mutating it must not reach the
	// cache entry the served path replays.
	own, err := c.Query(q)
	if err != nil || !own.Cached || len(own.Rows) != 40 {
		t.Fatalf("embedded hit: %+v, %v", own, err)
	}
	own.Rows[0] = nil
	again := &testSink{keep: true}
	if _, err := c.QueryOpts(q, QueryOptions{sink: again}); err != nil {
		t.Fatal(err)
	}
	if again.rows[0] == nil {
		t.Fatal("a caller's result aliases the cache entry")
	}
}
