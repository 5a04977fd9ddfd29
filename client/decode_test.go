package client_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"orchestra"
	"orchestra/client"
	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// TestClientDecodeAllocs: a client batch costs allocations per column, not
// per cell. Decoding a FrameBatch payload of (string, int, int) rows — the
// benchmark relation's shape — makes the same number of allocations at
// 1 024 and at 4 096 rows, and few of them. The batch is sent uncompressed:
// inflating reuses pooled state whose hit rate depends on the collector.
func TestClientDecodeAllocs(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{1024, 4096} {
		var b tuple.Batch
		for i := range n {
			if err := b.AppendRow(tuple.Row{tuple.S(fmt.Sprintf("k%06d", i)), tuple.I(int64(i % 17)), tuple.I(int64(i) * 1000)}); err != nil {
				t.Fatal(err)
			}
		}
		payload, err := tuple.AppendBatchCols(binary.BigEndian.AppendUint64(nil, 1), &b, -1)
		if err != nil {
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(20, func() {
			if _, rows, err := wire.DecodeBatchPayloadAny(payload); err != nil || len(rows) != n {
				t.Fatalf("decoded %d rows, %v", len(rows), err)
			}
		})
	}
	t.Logf("allocations per batch: %v at 1024 rows, %v at 4096", allocs[1024], allocs[4096])
	if allocs[1024] > 8 || allocs[4096] != allocs[1024] {
		t.Errorf("DecodeBatchPayloadAny: %v allocations at 1024 rows, %v at 4096; want at most 8, the same at both", allocs[1024], allocs[4096])
	}
}

// TestQueryCellsOutliveLaterBatches: the cells of a stream's first batch
// point into that batch's column slabs, and those slabs are the batch's
// own. They read the same after later batches were decoded and collections
// ran, through the iterator and through a buffered Query.
func TestQueryCellsOutliveLaterBatches(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), 5000) // several wire batches
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	const sql = "SELECT k, grp, v, f FROM wide"

	// check holds a row to what seedWide published for its v.
	check := func(row []any) {
		t.Helper()
		v, ok := row[2].(int64)
		if !ok {
			t.Fatalf("v is a %T", row[2])
		}
		want := []any{fmt.Sprintf("key-%07d", v), v % 13, v, float64(v) / 4}
		for c := range want {
			if row[c] != want[c] {
				t.Fatalf("row of v=%d col %d: %T %v, want %T %v", v, c, row[c], row[c], want[c], want[c])
			}
		}
	}

	st, err := cl.QueryStream(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Next() {
		t.Fatalf("no first batch: %v", st.Err())
	}
	first := st.Batch()
	kept := make([]string, len(first)) // copies, to compare after
	for i, row := range first {
		kept[i] = strings.Clone(row[0].(string))
	}
	later := 0
	for st.Next() {
		later++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if later == 0 {
		t.Fatal("the result came in one batch; the test needs several")
	}
	runtime.GC()
	runtime.GC()
	for i, row := range first {
		if row[0] != kept[i] {
			t.Fatalf("first batch row %d: key %q became %q", i, kept[i], row[0])
		}
		check(row)
	}

	res, err := cl.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if len(res.Rows) != 5000 {
		t.Fatalf("%d rows, want 5000", len(res.Rows))
	}
	for _, row := range res.Rows {
		check(row)
	}
}
