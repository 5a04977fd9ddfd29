package client_test

import (
	"context"
	"testing"
	"time"

	"orchestra"
	"orchestra/client"
	"orchestra/internal/netfault"
)

// TestStreamedRowsEndToEnd: a stream-eligible scan reports its rows as
// streamed-during-execution all the way out to the client accessors,
// while a top-K query (collected at the server) reports zero streamed —
// the pushdown classes are visible, and correct, at the wire.
func TestStreamedRowsEndToEnd(t *testing.T) {
	const total = 5000
	_, srv := serveCluster(t, 3, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), total)
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := cl.QueryStream(context.Background(), "SELECT k, v FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for st.Next() {
		rows += len(st.Batch())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != total || st.TotalRows() != total {
		t.Fatalf("rows %d (total %d), want %d", rows, st.TotalRows(), total)
	}
	if st.StreamedRows() != total {
		t.Fatalf("StreamedRows = %d, want %d (scan is stream-eligible)", st.StreamedRows(), total)
	}
	if st.TotalBatches() < 2 {
		t.Fatalf("answer arrived in %d batch(es); expected incremental frames", st.TotalBatches())
	}
	st.Close()

	// ORDER BY + LIMIT takes the top-K pushdown: collected at the
	// initiator, so nothing is streamed during execution.
	st, err = cl.QueryStream(context.Background(), "SELECT k, v FROM wide ORDER BY v DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []int64
	for st.Next() {
		for _, r := range st.Batch() {
			got = append(got, r[1].(int64))
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("top-K returned %d rows, want 5", len(got))
	}
	for i, v := range got {
		if want := int64(total - 1 - i); v != want {
			t.Fatalf("top-K row %d = %d, want %d", i, v, want)
		}
	}
	if st.StreamedRows() != 0 {
		t.Fatalf("StreamedRows = %d for a top-K query, want 0", st.StreamedRows())
	}
}

// TestStreamMidWireTruncationSurfacesError: the connection is severed
// mid-frame after the client has already consumed streamed batches. The
// stream must end with a non-nil transport error — never a silently
// short result that looks complete.
func TestStreamMidWireTruncationSurfacesError(t *testing.T) {
	const total = 20000
	_, srv := serveCluster(t, 3, orchestra.ServeOptions{})
	seedWide(t, srv.Addr(), total)

	proxy, err := netfault.New("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cl, err := client.Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Throttle forwarding so result frames are still in flight when the
	// truncation is armed below.
	proxy.SetFaults(netfault.Faults{Delay: 2 * time.Millisecond})

	st, err := cl.QueryStream(context.Background(), "SELECT k, grp, v, f FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rows := 0
	cut := false
	for st.Next() {
		rows += len(st.Batch())
		if !cut {
			// First frames are in hand; now cut the wire partway through
			// a later frame.
			proxy.SetFaults(netfault.Faults{TruncateAfter: 512})
			cut = true
			time.Sleep(10 * time.Millisecond) // let the RST land before draining buffered frames
		}
	}
	if !cut {
		t.Fatal("stream yielded no batches before the fault could be injected")
	}
	if err := st.Err(); err == nil {
		t.Fatalf("stream ended cleanly with %d/%d rows after a mid-frame RST; want an error", rows, total)
	}
	if rows >= total {
		t.Fatalf("client consumed all %d rows despite the truncation", rows)
	}
}
