package client_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"orchestra"
	"orchestra/client"
)

// windowRows is more rows than a stream's credit window of batch frames
// holds: the server cuts a frame at 4 096 rows at most, and the window is
// wire.CreditWindow (8) frames.
const windowRows = 10 * 4096

// seedWide creates a relation and publishes n rows through the wire.
func seedWide(t *testing.T, addr string, n int) {
	t.Helper()
	ctx := context.Background()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create(ctx, "wide", []string{"k:string", "grp:int", "v:int", "f:float"}, "k"); err != nil {
		t.Fatal(err)
	}
	const batch = 4096
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		rows := make([][]any, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, []any{fmt.Sprintf("key-%07d", i), i % 13, i, float64(i) / 4})
		}
		if _, err := cl.Publish(ctx, "wide", rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryResultTypes: Query results arrive as batch frames with exact
// types and their wire size accounted.
func TestQueryResultTypes(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), 300)
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(context.Background(), "SELECT k, grp, v, f FROM wide WHERE v < 300")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 300 {
		t.Fatalf("rows %d, want 300", len(res.Rows))
	}
	if res.WireBytes <= 0 {
		t.Fatal("wire bytes not accounted")
	}
	for _, r := range res.Rows {
		if _, ok := r[0].(string); !ok {
			t.Fatalf("k type %T", r[0])
		}
		if _, ok := r[1].(int64); !ok {
			t.Fatalf("grp type %T", r[1])
		}
		if _, ok := r[3].(float64); !ok {
			t.Fatalf("f type %T", r[3])
		}
	}
}

// TestQueryStreamIterator consumes a multi-batch result incrementally
// and checks the terminal metadata.
func TestQueryStreamIterator(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), 5000) // > maxStreamBatchRows, so >= 2 wire batches
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.QueryStream(context.Background(), "SELECT k, v FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Columns(); len(got) != 2 || got[0] != "k" || got[1] != "v" {
		t.Fatalf("columns %v", got)
	}
	rows, batches := 0, 0
	for st.Next() {
		batches++
		rows += len(st.Batch())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 5000 {
		t.Fatalf("rows %d, want 5000", rows)
	}
	if batches < 2 {
		t.Fatalf("result arrived in %d batch(es); expected incremental delivery", batches)
	}
	if st.Epoch() == 0 {
		t.Fatal("missing terminal epoch")
	}
}

// TestStreamingPastFrameCap streams a result of more rows and bytes than
// one batch frame may carry (4 096 rows, 256 KiB): it still arrives whole,
// in several batches, because the frame cap bounds each batch frame and
// never the result — the acceptance scenario for unbounded result sets.
func TestStreamingPastFrameCap(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), 9000) // about 270 KB as rows, past both cuts

	binCl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer binCl.Close()
	st, err := binCl.QueryStream(context.Background(), "SELECT k, grp, v, f FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows, maxBatch := 0, 0
	for st.Next() {
		n := len(st.Batch())
		rows += n
		if n > maxBatch {
			maxBatch = n
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 9000 {
		t.Fatalf("rows %d, want 9000", rows)
	}
	// No single batch buffered the whole result.
	if maxBatch >= rows {
		t.Fatalf("one batch carried all %d rows — not streamed", rows)
	}
}

// TestStreamServerErrorTyped: server errors carried in a stream's End
// frame arrive typed.
func TestStreamServerErrorTyped(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Unknown relation: the failure arrives in the End frame.
	_, err = cl.Query(context.Background(), "SELECT x FROM ghost")
	if err == nil {
		t.Fatal("query of unknown relation succeeded")
	}
	var se *client.Error
	if !errors.As(err, &se) {
		t.Fatalf("error not typed: %v", err)
	}
	// Bad SQL fails before any schema frame.
	_, err = cl.Query(context.Background(), "SELEKT nope")
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("parse error: %v, want ErrBadRequest", err)
	}
}

// TestStreamAbandonReleasesServer closes a stream mid-flight; the
// server's stream must unwind (credit wait bounded by session close)
// and the client must keep working on fresh connections.
func TestStreamAbandonReleasesServer(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), windowRows) // the server stalls on credit
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.QueryStream(context.Background(), "SELECT k, grp, v, f FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first batch: %v", st.Err())
	}
	st.Close() // abandon mid-stream
	// The client still serves queries afterwards.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cl.Query(ctx, "SELECT grp, COUNT(*) AS n FROM wide GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 13 {
		t.Fatalf("groups %d, want 13", len(res.Rows))
	}
}

// TestStreamContextCancel cancels mid-stream and expects a prompt
// context error, not a hang.
func TestStreamContextCancel(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), 2000)
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	st, err := cl.QueryStream(ctx, "SELECT k, grp, v, f FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cancel()
	done := make(chan struct{})
	go func() {
		for st.Next() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not unblock on cancellation")
	}
	if err := st.Err(); err == nil || !errors.Is(err, context.Canceled) {
		// The read may also surface as a deadline error wrapped by the
		// client; either way it must mention the context.
		t.Logf("stream error after cancel: %v", err)
	}
}

// TestStreamCancelKeepsConnection: abandoning a QueryStream mid-flight
// cancels it on the server instead of dropping the connection — the same
// pooled connection (PoolSize 1) then serves further queries, and the
// server's admission slots drain back to zero.
func TestStreamCancelKeepsConnection(t *testing.T) {
	// The result takes more wire batches than the credit window, so the
	// cancel lands mid-stream with the credit window full and batches in
	// flight — the interesting case.
	_, srv := serveCluster(t, 1, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), windowRows)
	cl, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	st, err := cl.QueryStream(ctx, "SELECT k, grp, v, f FROM wide WHERE v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first batch: %v", st.Err())
	}
	got := len(st.Batch())
	if err := st.Cancel(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err after clean cancel: %v", err)
	}
	if st.Next() {
		t.Fatal("Next advanced after cancel")
	}
	if got == 0 {
		t.Fatal("expected some rows before cancelling")
	}

	// The pooled connection survived the cancel and serves more queries.
	for i := 0; i < 3; i++ {
		res, err := cl.Query(ctx, "SELECT k FROM wide WHERE v < 10")
		if err != nil {
			t.Fatalf("post-cancel query %d: %v", i, err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("post-cancel query %d: %d rows", i, len(res.Rows))
		}
	}

	// Close after cancel is a no-op; Close of a live stream cancels too.
	if err := st.Close(); err != nil {
		t.Fatalf("close after cancel: %v", err)
	}
	st2, err := cl.QueryStream(ctx, "SELECT k, grp, v, f FROM wide WHERE v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Next() {
		t.Fatalf("stream 2: no first batch: %v", st2.Err())
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("close mid-stream: %v", err)
	}
	res, err := cl.Query(ctx, "SELECT k FROM wide WHERE v < 5")
	if err != nil || len(res.Rows) != 5 {
		t.Fatalf("query after close-cancel: %d rows, err=%v", len(res.Rows), err)
	}

	// Admission slots all returned.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stt, err := cl.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stt.InFlightQueries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight queries stuck at %d", stt.InFlightQueries)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
