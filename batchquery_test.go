package orchestra

import (
	"context"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"orchestra/internal/server"
	"orchestra/internal/tuple"
	"orchestra/internal/wire"
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
// arrives and, with keep set, materializes the rows.
type testSink struct {
	keep  bool
	cols  []string
	rows  []tuple.Row
	n     int
	calls int
}

func (s *testSink) Columns(cols []string) { s.cols = cols }

func (s *testSink) StreamCols(b *tuple.Batch) error {
	s.calls++
	s.n += b.N
	if s.keep {
		s.rows = append(s.rows, b.Rows()...)
	}
	return nil
}

// servedQuery runs req the way node 0's endpoint does — the backend's
// QueryStream, with sink standing in for the frame writer — and returns the
// wire's tail.
func servedQuery(c *Cluster, req wire.QueryRequest, sink server.ResultStream) (*wire.QueryTail, error) {
	b, err := c.backend(0)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return b.QueryStream(ctx, &req, sink)
}

// sameAnswer compares two answers as multisets.
func sameAnswer(t *testing.T, got, want []tuple.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	seen := make(map[string]int, len(want))
	for _, r := range want {
		seen[fmt.Sprint(r)]++
	}
	for _, r := range got {
		k := fmt.Sprint(r)
		if seen[k]--; seen[k] < 0 {
			t.Fatalf("row %v not in (or too often for) the reference answer", r)
		}
	}
}

// TestServedQueryColumnar checks the serving hand-off: the whole answer
// reaches the sink as batches, and the content and columns match the embedded Query — without provenance and with it
// (where every row carried its provenance set up to the ship consumer).
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
	for _, prov := range []bool{false, true} {
		sink := &testSink{keep: true}
		tail, err := servedQuery(c, wire.QueryRequest{SQL: q, Provenance: prov}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if Epoch(tail.Epoch) != want.Epoch || len(want.Columns) != 3 || len(sink.cols) != 3 {
			t.Fatalf("provenance=%v: tail %+v, columns embedded %v served %v", prov, tail, want.Columns, sink.cols)
		}
		sameAnswer(t, sink.rows, want.Rows)
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
	if _, err := servedQuery(c, wire.QueryRequest{SQL: q}, sink); err != nil {
		t.Fatal(err)
	}
	if sink.n != 25 {
		t.Fatalf("served LIMIT 25 emitted %d rows", sink.n)
	}
}

// TestServedQueryCacheHit: a view-cache entry holds the batch its miss
// produced; a served hit replays it as one borrowed batch, an embedded hit
// materializes the caller's own rows.
func TestServedQueryCacheHit(t *testing.T) {
	c := newScanCluster(t, 100)
	c.EnableQueryCache(16)
	q := "SELECT k, v FROM bq WHERE v < 40"
	miss, hit := &testSink{keep: true}, &testSink{keep: true}
	if _, err := servedQuery(c, wire.QueryRequest{SQL: q}, miss); err != nil {
		t.Fatal(err)
	}
	res, err := servedQuery(c, wire.QueryRequest{SQL: q}, hit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second query not served from cache")
	}
	if miss.n != 40 {
		t.Fatalf("miss emitted %d rows, want 40", miss.n)
	}
	if hit.calls != 1 || len(hit.cols) != 2 {
		t.Fatalf("cache hit arrived in %d batches, columns %v; want one batch, two columns", hit.calls, hit.cols)
	}
	sameAnswer(t, hit.rows, miss.rows)
	// The embedded caller owns its answer: mutating it must not reach the
	// cache entry the served path replays.
	own, err := c.Query(q)
	if err != nil || !own.Cached {
		t.Fatalf("embedded hit: %+v, %v", own, err)
	}
	sameAnswer(t, own.Rows, miss.rows)
	own.Rows[0][0] = tuple.S("scribbled")
	again := &testSink{keep: true}
	if _, err := servedQuery(c, wire.QueryRequest{SQL: q}, again); err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, again.rows, miss.rows)
}

// TestViewCacheOwnsItsBatch: a batch that entered the cache never returns
// to the engine's arena pool. Served hits of one entry run concurrently
// with misses on other queries — each miss recycles its arenas, so a
// cached batch that had been pooled would be overwritten under the
// readers (and -race would see it).
func TestViewCacheOwnsItsBatch(t *testing.T) {
	c := newScanCluster(t, 400)
	q := "SELECT k, v FROM bq WHERE v < 300"
	want, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableQueryCache(4)
	if _, err := servedQuery(c, wire.QueryRequest{SQL: q}, &testSink{}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func() { // hits of the one entry
			for i := 0; i < 40; i++ {
				sink := &testSink{keep: true}
				res, err := servedQuery(c, wire.QueryRequest{SQL: q}, sink)
				if err == nil && (!res.Cached || len(sink.rows) != len(want.Rows)) {
					err = fmt.Errorf("hit: cached=%v, %d rows", res.Cached, len(sink.rows))
				}
				if err != nil {
					errs <- err
					return
				}
				for _, r := range sink.rows {
					if r[1].I64 < 0 || r[1].I64 >= 300 || r[0].Str != fmt.Sprintf("k%05d", r[1].I64) {
						errs <- fmt.Errorf("hit returned a foreign row %v", r)
						return
					}
				}
			}
			errs <- nil
		}()
		go func(g int) { // misses that bypass the cache and recycle their arenas
			for i := 0; i < 40; i++ {
				sink := &testSink{}
				q := fmt.Sprintf("SELECT k, v FROM bq WHERE v >= %d", 300+g)
				if _, err := servedQuery(c, wire.QueryRequest{SQL: q, Provenance: true}, sink); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultOwnsItsStrings: an embedded query's Result keeps its strings in
// slabs of its own, one per batch the engine streamed, laid out in row
// order — not in the store's leaf slabs the scan aliased, where a held
// Result would pin a leaf of records per string.
func TestResultOwnsItsStrings(t *testing.T) {
	c := newScanCluster(t, 400)
	res, err := c.Query("SELECT k, v FROM bq")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 400 {
		t.Fatalf("%d rows, want 400", len(res.Rows))
	}
	// In an owned slab a row's key starts where the previous row's ends;
	// in a store leaf, the rest of the previous record lies between them.
	adjacent := 0
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1][0].Str, res.Rows[i][0].Str
		if unsafe.Pointer(unsafe.StringData(cur)) == unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev)) {
			adjacent++
		}
	}
	if adjacent < len(res.Rows)/2 {
		t.Fatalf("%d of %d consecutive keys are adjacent: the Result's strings still alias the store", adjacent, len(res.Rows)-1)
	}
}
