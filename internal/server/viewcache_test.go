package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
	"orchestra/internal/wire"
)

var benchCols = []string{"k", "g", "i", "f"}

// benchResultRows builds n rows of benchCols' shape.
func benchResultRows(n int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{
			tuple.S(fmt.Sprintf("k%06d", i)),
			tuple.I(int64(i % 17)),
			tuple.I(int64(i)),
			tuple.F(float64(i) / 8),
		}
	}
	return rows
}

// pipeSession is a session over one end of a net.Pipe: what its writers
// send goes to conn's peer, which the caller reads or drains.
func pipeSession(t testing.TB) (sess *session, peer net.Conn) {
	t.Helper()
	peer, conn := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		peer.Close()
		conn.Close()
	})
	srv := &Server{cfg: Config{Logf: func(string, ...any) {}}}
	return &session{srv: srv, conn: conn, ctx: ctx}, peer
}

// sentFrames runs emit against a fresh writer, ends the stream, and
// returns every frame it wrote (kind byte and payload), the End frame
// included. The reader credits each batch frame, as a client does.
func sentFrames(t *testing.T, emit func(w *streamWriter) error) [][]byte {
	t.Helper()
	sess, peer := pipeSession(t)
	w := newStreamWriter(sess.ctx, sess, 1)
	got := make(chan [][]byte, 1)
	go func() {
		var frames [][]byte
		br := bufio.NewReader(peer)
		for {
			kind, payload, err := wire.ReadRawFrame(br, wire.MaxFrame)
			if err != nil {
				break
			}
			frames = append(frames, append([]byte{byte(kind)}, payload...))
			if kind == wire.FrameBatch {
				w.credit(1)
			}
			if kind == wire.FrameEnd {
				break
			}
		}
		got <- frames
	}()
	w.Columns(benchCols)
	if err := emit(w); err != nil {
		t.Fatal(err)
	}
	if err := w.end(&wire.StreamEnd{}, nil); err != nil {
		t.Fatal(err)
	}
	return <-got
}

// stringRows is an all-string answer.
func stringRows(n int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.S(fmt.Sprintf("s%05d", i)), tuple.S(fmt.Sprintf("%x", i*7919)), tuple.S("x"), tuple.S("")}
	}
	return rows
}

// TestViewHitFramesMatchEncode: the frames a view entry's first emission
// records, and the frames a hit then writes from that memo, are byte for
// byte the frames a fresh encode of the entry's batch sends — for empty,
// one-row, single- and multi-frame answers, one of more frames than the
// credit window, and an all-string answer.
func TestViewHitFramesMatchEncode(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows []tuple.Row
	}{
		{"0 rows", nil},
		{"1 row, below compressMin", benchResultRows(1)},
		{"1000 rows", benchResultRows(1000)},
		{"9000 rows, several frames", benchResultRows(9000)},
		{"more frames than the window", benchResultRows((wire.CreditWindow + 2) * maxStreamBatchRows)},
		{"all strings", stringRows(3000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := rowBatch(t, tc.rows)
			want := sentFrames(t, func(w *streamWriter) error { return w.StreamCols(b) })
			batches := len(want) - 2 // schema, batches, end
			switch {
			case tc.rows == nil && batches != 0,
				tc.rows != nil && batches < 1,
				len(tc.rows) > maxStreamBatchRows && batches < 2:
				t.Fatalf("%d rows went out in %d batch frames", len(tc.rows), batches)
			}
			if len(tc.rows) == 1 && flated(want[1][9:]) {
				t.Fatal("a one-row body was compressed")
			}
			e := &viewEntry{batch: b, cols: benchCols}
			for _, pass := range []string{"fill", "hit"} {
				got := sentFrames(t, func(w *streamWriter) error {
					_, err := viewHit(e, nil, w)
					return err
				})
				m := e.memo.Load()
				if m == nil || len(m.frames) != batches {
					t.Fatalf("%s: memo %+v, want %d frames", pass, m, batches)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d frames, a fresh encode sends %d", pass, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s: frame %d (kind %v) differs from the fresh encode", pass, i, wire.FrameKind(want[i][0]))
					}
				}
			}
		})
	}
}

// viewStub answers every query from one view-cache entry.
type viewStub struct {
	stubBackend
	e *viewEntry
}

func (b *viewStub) QueryStream(ctx context.Context, req *wire.QueryRequest, out ResultStream) (*wire.QueryTail, error) {
	return viewHit(b.e, nil, out)
}

// memoConn serves an entry of more frames than the credit window over a
// connection, and fills the entry's memo with a first query on it.
func memoConn(t *testing.T) (*testConn, *Server, []tuple.Row, *viewFrames) {
	t.Helper()
	rows := benchResultRows((wire.CreditWindow + 2) * maxStreamBatchRows)
	stub := &viewStub{e: &viewEntry{batch: rowBatch(t, rows), cols: benchCols}}
	s := startTestServer(t, stub, Config{})
	conn := dialTest(t, s)
	conn.query(1, "q")
	if r := conn.await(1); r.err() != nil || len(r.rows) != len(rows) {
		t.Fatalf("filling query: %d rows, %v", len(r.rows), r.err())
	}
	m := stub.e.memo.Load()
	if m == nil || len(m.frames) <= wire.CreditWindow {
		t.Fatalf("memo %+v: want more than %d frames", m, wire.CreditWindow)
	}
	return conn, s, rows, m
}

// TestViewHitCreditWindow: a hit written from the memo holds to the
// credit window — exactly wire.CreditWindow frames go out to a client
// that grants no credit — and finishes once credit returns.
func TestViewHitCreditWindow(t *testing.T) {
	conn, _, rows, m := memoConn(t)
	const reqID = 2
	conn.query(reqID, "q")
	if kind, _ := conn.frame(); kind != wire.FrameSchema {
		t.Fatalf("first frame %v, want schema", kind)
	}
	got := readBatches(t, conn, reqID, wire.CreditWindow)
	assertStalled(t, conn)
	conn.sendFrame(wire.FrameCredit, wire.AppendCreditPayload(nil, reqID, wire.CreditWindow))
	r := conn.await(reqID)
	if r.err() != nil || r.end.Batches != len(m.frames) {
		t.Fatalf("end %+v, want %d batches", r.end, len(m.frames))
	}
	got = append(got, r.rows...)
	if len(got) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d: %v, want %v", i, got[i], rows[i])
		}
	}
}

// TestViewHitCancel: a cancel in the middle of a hit ends the stream with
// "cancelled", and the connection then serves the next query whole.
func TestViewHitCancel(t *testing.T) {
	conn, s, rows, _ := memoConn(t)
	const reqID = 2
	conn.query(reqID, "q")
	if kind, _ := conn.frame(); kind != wire.FrameSchema {
		t.Fatalf("first frame %v, want schema", kind)
	}
	if kind, _ := conn.frame(); kind != wire.FrameBatch {
		t.Fatalf("second frame %v, want batch", kind)
	}
	conn.sendFrame(wire.FrameCancel, wire.AppendCancelPayload(nil, reqID))
	kind, payload := conn.frame()
	for kind == wire.FrameBatch {
		kind, payload = conn.frame()
	}
	if kind != wire.FrameEnd {
		t.Fatalf("terminal frame %v, want end", kind)
	}
	if _, end, err := wire.DecodeEndPayload(payload); err != nil || end.Error == nil || end.Error.Code != wire.CodeCancelled {
		t.Fatalf("end %+v (%v), want code %q", end, err, wire.CodeCancelled)
	}
	conn.query(3, "q")
	if r := conn.await(3); r.err() != nil || len(r.rows) != len(rows) {
		t.Fatalf("query after cancel: %d rows, %v", len(r.rows), r.err())
	}
	if st := s.Stats(); st.InFlightQueries != 0 {
		t.Fatalf("%d queries in flight after both ended", st.InFlightQueries)
	}
}

// TestFirstBatchReportedForCacheHits: a server that answers only from
// its view cache still reports the first-batch latency of its queries,
// while its streamed-execution counters stay zero.
func TestFirstBatchReportedForCacheHits(t *testing.T) {
	stub := &viewStub{e: &viewEntry{batch: rowBatch(t, benchResultRows(10)), cols: benchCols}}
	s := startTestServer(t, stub, Config{})
	conn := dialTest(t, s)
	for id := uint64(1); id <= 3; id++ {
		conn.query(id, "q")
		if r := conn.await(id); r.err() != nil {
			t.Fatal(r.err())
		}
	}
	st := s.Stats().Streams
	if st == nil || st.Queries != 0 || st.FirstBatchP50Us <= 0 {
		t.Fatalf("stream stats %+v, want a first-batch p50 and no streamed queries", st)
	}
}

// viewHitAllocsMax pins the allocations of one served hit from the memo,
// writer, tail and End frame included. A hit allocates per stream, never
// per row.
const viewHitAllocsMax = 5

// TestViewHitAllocs: a hit written from the memo allocates the same for
// a 1000- and a 4000-row answer, and no more than viewHitAllocsMax.
func TestViewHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frame buffers at random under -race, so the count varies")
	}
	sess, peer := pipeSession(t)
	go io.Copy(io.Discard, peer)
	var allocs []float64
	for _, n := range []int{1000, 4000} {
		e := &viewEntry{batch: rowBatch(t, benchResultRows(n)), cols: benchCols}
		hit := func() {
			w := newStreamWriter(sess.ctx, sess, 1)
			tail, err := viewHit(e, nil, w)
			if err == nil {
				err = w.end(&wire.StreamEnd{QueryTail: *tail}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		hit() // fills the memo
		if m := e.memo.Load(); m == nil || len(m.frames) != 1 {
			t.Fatalf("%d rows: memo %+v, want one frame", n, m)
		}
		a := testing.AllocsPerRun(200, hit)
		t.Logf("%d-row hit: %.0f allocations", n, a)
		allocs = append(allocs, a)
	}
	if allocs[0] != allocs[1] || allocs[1] > viewHitAllocsMax {
		t.Fatalf("allocations per hit %v: want equal for both sizes and at most %d", allocs, viewHitAllocsMax)
	}
}

// BenchmarkViewHit: one served hit of a cached 1000-row answer, written
// from the memo against encoded afresh from the batch.
func BenchmarkViewHit(b *testing.B) {
	sess, peer := pipeSession(b)
	go io.Copy(io.Discard, peer)
	batch := rowBatch(b, benchResultRows(1000))
	for _, tc := range []struct {
		name string
		emit func(e *viewEntry, w *streamWriter) error
	}{
		{"memo", func(e *viewEntry, w *streamWriter) error { _, err := viewHit(e, nil, w); return err }},
		{"encode", func(e *viewEntry, w *streamWriter) error { return w.StreamCols(e.batch) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := &viewEntry{batch: batch, cols: benchCols}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := newStreamWriter(sess.ctx, sess, 1)
				w.Columns(benchCols)
				err := tc.emit(e, w)
				if err == nil {
					err = w.end(&wire.StreamEnd{}, nil)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// viewCluster is a 3-node cluster whose first two nodes' backends share
// one view cache, each served by an endpoint, a and b. Relation t holds
// rows, all published at epoch.
type viewCluster struct {
	views *ViewCache
	back  *NodeBackend
	a, b  *Server
	rows  []tuple.Row
	epoch tuple.Epoch
}

func newViewCluster(t *testing.T, n int) *viewCluster {
	t.Helper()
	local, err := cluster.NewLocal(3, cluster.Config{Replication: 3}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Shutdown)
	vc := &viewCluster{views: NewViewCache(8)}
	var backs []*NodeBackend
	for _, node := range local.Nodes() { // every node runs fragments
		b := NewNodeBackend(node, engine.New(node))
		b.ShareViews(vc.views)
		backs = append(backs, b)
	}
	vc.back = backs[0]
	ctx := context.Background()
	if _, err := vc.back.Create(ctx, &wire.CreateRequest{Relation: "t", Columns: []string{"k:string", "g:int", "v:int"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		vc.rows = append(vc.rows, tuple.Row{tuple.S(fmt.Sprintf("k%05d", i)), tuple.I(int64(i % 7)), tuple.I(int64(i))})
	}
	if vc.epoch, err = vc.back.PublishRows(ctx, "t", vstore.OpInsert, append([]tuple.Row(nil), vc.rows...), 0); err != nil {
		t.Fatal(err)
	}
	vc.a = startTestServer(t, backs[0], Config{})
	vc.b = startTestServer(t, backs[1], Config{})
	return vc
}

// entry returns the cached entry for sql at the cluster's epoch.
func (vc *viewCluster) entry(sql string) *viewEntry {
	v := vc.views
	v.mu.Lock()
	defer v.mu.Unlock()
	if el, ok := v.m[viewKey{sql: sql, epoch: vc.epoch}]; ok {
		return el.Value.(*viewEntry)
	}
	return nil
}

// servedAnswer runs sql pinned to epoch over conn, granting a credit per
// batch frame, and returns its rows and how many batch frames carried
// them. It reports failures as errors, so any goroutine may call it.
func servedAnswer(conn net.Conn, br *bufio.Reader, id uint64, sql string, epoch tuple.Epoch) (rows []tuple.Row, frames int, cached bool, err error) {
	frame, err := wire.AppendJSONFrame(nil, &wire.Request{ID: id, Op: wire.OpQuery, Query: &wire.QueryRequest{SQL: sql, Epoch: uint64(epoch)}}, wire.MaxFrame)
	if err != nil {
		return nil, 0, false, err
	}
	if _, err := conn.Write(frame); err != nil {
		return nil, 0, false, err
	}
	for {
		kind, payload, err := wire.ReadRawFrame(br, wire.MaxFrame)
		if err != nil {
			return nil, 0, false, err
		}
		switch kind {
		case wire.FrameBatch:
			_, part, err := decodeBatchPayload(payload)
			if err != nil {
				return nil, 0, false, err
			}
			rows = append(rows, part...)
			frames++
			credit, _ := wire.AppendBinaryFrame(nil, wire.FrameCredit, wire.AppendCreditPayload(nil, id, 1), wire.MaxFrame)
			if _, err := conn.Write(credit); err != nil {
				return nil, 0, false, err
			}
		case wire.FrameEnd:
			_, end, err := wire.DecodeEndPayload(payload)
			if err == nil && end.Error != nil {
				err = end.Error
			}
			return rows, frames, err == nil && end.Cached, err
		}
	}
}

// sameRows reports whether got holds exactly want's rows, in any order.
func sameRows(got, want []tuple.Row) bool {
	if len(got) != len(want) {
		return false
	}
	seen := make(map[string]int, len(want))
	for _, r := range want {
		seen[fmt.Sprint(r)]++
	}
	for _, r := range got {
		k := fmt.Sprint(r)
		if seen[k]--; seen[k] < 0 {
			return false
		}
	}
	return true
}

// TestViewMissFillsMemo: a served miss, through either endpoint, leaves
// its entry holding the memo of the frames it sent, and the next hit
// answers the same from that memo.
func TestViewMissFillsMemo(t *testing.T) {
	vc := newViewCluster(t, 2000)
	for i, srv := range []*Server{vc.a, vc.b} {
		sql := fmt.Sprintf("SELECT k, g, v FROM t WHERE g >= %d", i)
		var want []tuple.Row
		for _, r := range vc.rows {
			if r[1].I64 >= int64(i) {
				want = append(want, r)
			}
		}
		conn := dialTest(t, srv)
		rows, _, cached, err := servedAnswer(conn, conn.br, 1, sql, vc.epoch)
		if err != nil || cached || !sameRows(rows, want) {
			t.Fatalf("%s: miss answered %d rows (cached %v), %v; want %d", sql, len(rows), cached, err, len(want))
		}
		e := vc.entry(sql)
		if e == nil {
			t.Fatalf("%s: no entry after the miss", sql)
		}
		m := e.memo.Load()
		if m == nil || len(m.frames) != 1 {
			t.Fatalf("%s: memo %+v after a miss, want its one frame", sql, m)
		}
		rows, _, cached, err = servedAnswer(conn, conn.br, 2, sql, vc.epoch)
		if err != nil || !cached || !sameRows(rows, want) || e.memo.Load() != m {
			t.Fatalf("%s: hit answered %d rows (cached %v), %v", sql, len(rows), cached, err)
		}
	}
}

// TestViewEntryOwnsItsStrings: a cached answer's strings lie in the
// entry's own slab, not in the store's leaf slabs they were scanned from,
// and publishes that re-pack the relation's leaves leave the answer — the
// batch, and the hits both endpoints serve — unchanged.
func TestViewEntryOwnsItsStrings(t *testing.T) {
	vc := newViewCluster(t, 2000)
	const sql = "SELECT k, g, v FROM t WHERE v < 1500"
	want := vc.rows[:1500]
	conn := dialTest(t, vc.a)
	if rows, _, cached, err := servedAnswer(conn, conn.br, 1, sql, vc.epoch); err != nil || cached || !sameRows(rows, want) {
		t.Fatalf("miss answered %d rows (cached %v), %v", len(rows), cached, err)
	}
	e := vc.entry(sql)
	if e == nil {
		t.Fatal("no entry after the miss")
	}
	// One exact-size slab holds them all: the bytes from the first string
	// to the end of the last are the strings' bytes and nothing else.
	lo, hi, size, strs := ^uintptr(0), uintptr(0), uintptr(0), 0
	for _, col := range e.batch.Cols {
		for _, x := range col.Str {
			strs++
			if x == "" {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(x)))
			lo, hi, size = min(lo, p), max(hi, p+uintptr(len(x))), size+uintptr(len(x))
		}
	}
	if strs != len(want) || hi-lo != size {
		t.Fatalf("%d cached strings of %d bytes span %d bytes; want %d strings in a slab of their own", strs, size, hi-lo, len(want))
	}
	// Every leaf holding t's tuples takes more than a quarter of new
	// records, so each packs at least once.
	ctx := context.Background()
	for p := 0; p < 4; p++ {
		var rows []tuple.Row
		for i := 0; i < 2000; i++ {
			rows = append(rows, tuple.Row{tuple.S(fmt.Sprintf("n%d-%05d", p, i)), tuple.I(int64(i % 7)), tuple.I(int64(i))})
		}
		if _, err := vc.back.PublishRows(ctx, "t", vstore.OpInsert, rows, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !sameRows(e.batch.Rows(), want) {
		t.Fatal("the cached batch changed across publishes")
	}
	for i, srv := range []*Server{vc.a, vc.b} {
		conn := dialTest(t, srv)
		if rows, _, cached, err := servedAnswer(conn, conn.br, 1, sql, vc.epoch); err != nil || !cached || !sameRows(rows, want) {
			t.Fatalf("endpoint %d: hit answered %d rows (cached %v), %v", i, len(rows), cached, err)
		}
	}
}

// TestViewMemoRace: eight clients on two endpoints hit one entry while its
// memo is being filled. The memo is published once, and every answer
// equals the model in the one frame the batch cut makes of it, whichever
// endpoint's writer recorded the memo.
func TestViewMemoRace(t *testing.T) {
	vc := newViewCluster(t, 3000)
	const sql = "SELECT k, g, v FROM t WHERE v < 2500"
	want := vc.rows[:2500]
	// A collected (embedded) answer fills the entry and records no memo.
	if _, _, err := vc.back.Query(context.Background(), sql, engine.Options{Epoch: vc.epoch}, false, &collectSink{}); err != nil {
		t.Fatal(err)
	}
	e := vc.entry(sql)
	if e == nil || e.memo.Load() != nil {
		t.Fatalf("entry %+v after a collected miss: want one with no memo", e)
	}
	var clients []*testConn
	for i := 0; i < 8; i++ {
		clients = append(clients, dialTest(t, []*Server{vc.a, vc.b}[i%2]))
	}
	stop := make(chan struct{})
	published := make(chan map[*viewFrames]bool)
	go func() { // every memo the entry ever holds
		seen := map[*viewFrames]bool{}
		for {
			if m := e.memo.Load(); m != nil {
				seen[m] = true
			}
			select {
			case <-stop:
				published <- seen
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for id := uint64(1); id <= 3; id++ {
				rows, frames, cached, err := servedAnswer(c, c.br, id, sql, vc.epoch)
				switch {
				case err != nil:
					t.Errorf("client %d: %v", i, err)
					return
				case !cached || !sameRows(rows, want):
					t.Errorf("client %d: %d rows (cached %v), want the model's %d", i, len(rows), cached, len(want))
				case frames != 1:
					t.Errorf("client %d: %d batch frames", i, frames)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(stop)
	if seen := <-published; len(seen) != 1 {
		t.Fatalf("the entry held %d memos, want exactly one", len(seen))
	}
}

// collectSink is a ResultStream that collects nothing: an embedded
// caller's sink, for the view cache a sink that is not a frame writer.
type collectSink struct{}

func (collectSink) Columns([]string)              {}
func (collectSink) StreamCols(*tuple.Batch) error { return nil }
