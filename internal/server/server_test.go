package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/cluster"
	"orchestra/internal/obs"
	"orchestra/internal/optimizer"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// --- test harness: a stub backend and a raw protocol connection ---

// stubBackend answers every query with one row after an optional delay,
// so tests control execution overlap precisely.
type stubBackend struct {
	queryDelay time.Duration
	queryErr   error
}

func (b *stubBackend) Create(ctx context.Context, req *wire.CreateRequest) (tuple.Epoch, error) {
	return 1, nil
}

func (b *stubBackend) Publish(ctx context.Context, req *wire.PublishRequest) (tuple.Epoch, error) {
	return 2, nil
}

func (b *stubBackend) QueryStream(ctx context.Context, req *wire.QueryRequest, out ResultStream) (*wire.QueryTail, error) {
	if b.queryErr != nil {
		return nil, b.queryErr
	}
	if b.queryDelay > 0 {
		select {
		case <-time.After(b.queryDelay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out.Columns([]string{"one"})
	if err := out.StreamCols(batchOf(tuple.Row{tuple.I(1)})); err != nil {
		return nil, err
	}
	return &wire.QueryTail{Epoch: 3}, nil
}

func (b *stubBackend) Catalog(ctx context.Context, rel string) (*wire.SchemaResponse, error) {
	if rel != "" && rel != "known" {
		return nil, wire.Errorf(wire.CodeNotFound, "relation %q", rel)
	}
	return &wire.SchemaResponse{Relations: []wire.RelationInfo{{Relation: "known"}}}, nil
}

func (b *stubBackend) Epoch() tuple.Epoch                    { return 3 }
func (b *stubBackend) Info() BackendInfo                     { return BackendInfo{NodeID: "stub", Members: 1} }
func (b *stubBackend) CacheStats() map[string]obs.CacheStats { return nil }
func (b *stubBackend) DurabilityStats() (obs.DurabilityStats, bool) {
	return obs.DurabilityStats{}, false
}
func (b *stubBackend) ReplStats() (obs.ReplStats, bool) { return obs.ReplStats{}, false }

func startTestServer(t testing.TB, b Backend, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := Start("127.0.0.1:0", b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testConn is a raw protocol connection. Requests may be pipelined;
// await sorts the interleaved answer frames out by request ID.
type testConn struct {
	t testing.TB
	net.Conn
	br   *bufio.Reader
	open map[uint64]*reply // streams that have not ended yet
	done map[uint64]*reply // terminal frames read past by await
}

// reply is everything that answered one request: a JSON response, or a
// result stream's schema, rows and End.
type reply struct {
	id   uint64
	resp *wire.Response
	cols []string
	rows []tuple.Row
	end  *wire.StreamEnd
}

// err is the request's outcome, whichever form the answer took.
func (r *reply) err() *wire.Error {
	if r.resp != nil {
		return r.resp.Error
	}
	return r.end.Error
}

// dialRaw connects without the hello handshake.
func dialRaw(t testing.TB, s *Server) *testConn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return &testConn{t: t, Conn: conn, br: bufio.NewReader(conn), open: map[uint64]*reply{}, done: map[uint64]*reply{}}
}

// lowerFrameCap sets the frame cap sessions enforce to n until tb ends.
func lowerFrameCap(tb testing.TB, n int64) {
	old := frameCap.Swap(n)
	tb.Cleanup(func() { frameCap.Store(old) })
}

// dialTest connects and performs the handshake.
func dialTest(t testing.TB, s *Server) *testConn {
	t.Helper()
	c := dialRaw(t, s)
	c.hello(&wire.HelloRequest{Version: wire.ProtocolVersion})
	return c
}

func (c *testConn) hello(h *wire.HelloRequest) *wire.HelloResponse {
	c.t.Helper()
	c.send(&wire.Request{ID: 99, Op: wire.OpHello, Hello: h})
	r := c.await(99)
	if r.err() != nil || r.resp.Hello == nil {
		c.t.Fatalf("hello: %+v", r.resp)
	}
	return r.resp.Hello
}

func (c *testConn) send(req *wire.Request) {
	c.t.Helper()
	frame, err := wire.AppendJSONFrame(nil, req, wire.MaxFrame)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		c.t.Fatal(err)
	}
}

func (c *testConn) sendFrame(kind wire.FrameKind, payload []byte) {
	c.t.Helper()
	frame, err := wire.AppendBinaryFrame(nil, kind, payload, wire.MaxFrame)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		c.t.Fatal(err)
	}
}

func (c *testConn) query(id uint64, sql string) {
	c.t.Helper()
	c.send(&wire.Request{ID: id, Op: wire.OpQuery, Query: &wire.QueryRequest{SQL: sql}})
}

// frame reads one raw frame.
func (c *testConn) frame() (wire.FrameKind, []byte) {
	c.t.Helper()
	kind, payload, err := wire.ReadRawFrame(c.br, wire.MaxFrame)
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	return kind, payload
}

// next reads frames up to and including the next terminal one (a JSON
// response or a stream End), folding schema and batch frames into their
// stream's reply and granting a credit per batch.
func (c *testConn) next() *reply {
	c.t.Helper()
	for {
		kind, payload := c.frame()
		if kind == wire.FrameJSON {
			var resp wire.Response
			if err := wire.UnmarshalJSONFrame(payload, &resp); err != nil {
				c.t.Fatal(err)
			}
			return &reply{id: resp.ID, resp: &resp}
		}
		id, err := wire.StreamFrameID(payload)
		if err != nil {
			c.t.Fatal(err)
		}
		r := c.open[id]
		if r == nil {
			r = &reply{id: id}
			c.open[id] = r
		}
		switch kind {
		case wire.FrameSchema:
			_, r.cols, err = wire.DecodeSchemaPayload(payload)
		case wire.FrameBatch:
			var rows []tuple.Row
			_, rows, err = decodeBatchPayload(payload)
			r.rows = append(r.rows, rows...)
			c.sendFrame(wire.FrameCredit, wire.AppendCreditPayload(nil, id, 1))
		case wire.FrameEnd:
			_, r.end, err = wire.DecodeEndPayload(payload)
			delete(c.open, id)
			if err == nil {
				return r
			}
		default:
			c.t.Fatalf("unexpected %v frame", kind)
		}
		if err != nil {
			c.t.Fatalf("%v frame: %v", kind, err)
		}
	}
}

// await returns the reply to request id, keeping replies to other
// requests read along the way.
func (c *testConn) await(id uint64) *reply {
	c.t.Helper()
	for c.done[id] == nil {
		r := c.next()
		c.done[r.id] = r
	}
	r := c.done[id]
	delete(c.done, id)
	return r
}

// --- server core, against the stub backend ---

func TestServerBasicOps(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	conn := dialTest(t, s)
	for i, req := range []*wire.Request{
		{ID: 1, Op: wire.OpPing},
		{ID: 2, Op: wire.OpCreate, Create: &wire.CreateRequest{Relation: "r", Columns: []string{"a:int"}}},
		{ID: 3, Op: wire.OpQuery, Query: &wire.QueryRequest{SQL: "SELECT 1"}},
		{ID: 4, Op: wire.OpSchema, Schema: &wire.SchemaRequest{Relation: "known"}},
		{ID: 5, Op: wire.OpStatus},
	} {
		conn.send(req)
		r := conn.next()
		if r.err() != nil {
			t.Fatalf("op %d: %v", i, r.err())
		}
		if r.id != req.ID {
			t.Fatalf("op %d: reply id %d for request %d", i, r.id, req.ID)
		}
		if req.Op == wire.OpQuery && (len(r.rows) != 1 || r.rows[0][0].I64 != 1 || r.end.Epoch != 3 || r.cols[0] != "one") {
			t.Fatalf("query reply: cols %v rows %v end %+v", r.cols, r.rows, r.end)
		}
	}
}

func TestServerErrorMapping(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	conn := dialTest(t, s)
	cases := []struct {
		req  *wire.Request
		code string
	}{
		{&wire.Request{ID: 1, Op: "bogus"}, wire.CodeBadRequest},
		{&wire.Request{ID: 2, Op: wire.OpQuery}, wire.CodeBadRequest},   // missing payload
		{&wire.Request{ID: 3, Op: wire.OpPublish}, wire.CodeBadRequest}, // publishes travel as publish frames
		{&wire.Request{ID: 4, Op: wire.OpHello, Hello: &wire.HelloRequest{Version: wire.ProtocolVersion}}, wire.CodeBadRequest},
		{&wire.Request{ID: 5, Op: wire.OpSchema, Schema: &wire.SchemaRequest{Relation: "nope"}}, wire.CodeNotFound},
	}
	for _, tc := range cases {
		conn.send(tc.req)
		if r := conn.await(tc.req.ID); r.err() == nil || r.err().Code != tc.code {
			t.Fatalf("op %q: got %v, want code %s", tc.req.Op, r.err(), tc.code)
		}
	}
	// Errors are accounted.
	if st := s.Stats(); st.Ops[wire.OpSchema].Errors != 1 || st.Ops[wire.OpQuery].Errors != 1 {
		t.Fatalf("schema errors = %d, query errors = %d, want 1 each", st.Ops[wire.OpSchema].Errors, st.Ops[wire.OpQuery].Errors)
	}
}

// TestServerInternalErrorMapping: untyped backend errors become
// CodeInternal in the End frame without killing the session.
func TestServerInternalErrorMapping(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryErr: errors.New("boom")}, Config{})
	conn := dialTest(t, s)
	conn.query(3, "x")
	r := conn.await(3)
	if r.err() == nil || r.err().Code != wire.CodeInternal {
		t.Fatalf("got %v, want internal", r.err())
	}
	if r.cols != nil {
		t.Fatalf("failed query sent a schema frame: %v", r.cols)
	}
	conn.send(&wire.Request{ID: 4, Op: wire.OpPing})
	if r := conn.await(4); r.err() != nil {
		t.Fatalf("session died after error: %v", r.err())
	}
}

// TestPipelineCapBackpressure: a connection cannot hold more than
// MaxPipelinedRequests handlers; the reader stops consuming frames
// until responses drain, and all requests still complete.
func TestPipelineCapBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var started atomic.Int64
	s := startTestServer(t, &stubBackend{}, Config{
		MaxConcurrentQueries: 64,
		MaxPipelinedRequests: 2,
		OnQueryStart:         func() { started.Add(1); <-gate },
	})
	conn := dialTest(t, s)
	const N = 6
	for i := 1; i <= N; i++ {
		conn.query(uint64(i), "q")
	}
	time.Sleep(50 * time.Millisecond)
	if got := started.Load(); got > 2 {
		t.Fatalf("%d handlers started past the pipeline cap of 2", got)
	}
	close(gate)
	for i := 1; i <= N; i++ {
		if r := conn.await(uint64(i)); r.err() != nil {
			t.Fatalf("request %d: %v", i, r.err())
		}
	}
}

// TestAdmissionControl proves the semaphore bounds concurrent query
// executions: 8 pipelined queries against a limit of 2 never run more
// than 2 at once, and the observed peak actually reaches the limit.
func TestAdmissionControl(t *testing.T) {
	var inFlight, peak, over atomic.Int64
	gate := make(chan struct{})
	s := startTestServer(t, &stubBackend{}, Config{
		MaxConcurrentQueries: 2,
		OnQueryStart: func() {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			if n > 2 {
				over.Add(1)
			}
			<-gate
			inFlight.Add(-1)
		},
	})
	conn := dialTest(t, s)
	const N = 8
	for i := 1; i <= N; i++ {
		conn.query(uint64(i), "q")
	}
	// Let the first two executions start, then release everyone in waves.
	deadline := time.After(5 * time.Second)
	for inFlight.Load() < 2 {
		select {
		case <-deadline:
			t.Fatal("executions never reached the admission limit")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	for i := 1; i <= N; i++ {
		if r := conn.await(uint64(i)); r.err() != nil {
			t.Fatalf("query %d: %v", i, r.err())
		}
	}
	if over.Load() > 0 {
		t.Fatalf("%d executions exceeded the admission limit", over.Load())
	}
	if peak.Load() != 2 {
		t.Fatalf("peak in-flight %d, want 2", peak.Load())
	}
	if st := s.Stats(); st.PeakInFlightQueries != 2 || st.MaxConcurrentQueries != 2 {
		t.Fatalf("status peak %d / max %d, want 2 / 2", st.PeakInFlightQueries, st.MaxConcurrentQueries)
	}
}

// TestRequestTimeout: a query slower than the server's RequestTimeout —
// or than the client's own smaller budget — comes back as a timeout
// error, not a hung connection.
func TestRequestTimeout(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg Config
		q   wire.QueryRequest
	}{
		"server cap":   {Config{RequestTimeout: 50 * time.Millisecond}, wire.QueryRequest{SQL: "slow"}},
		"query budget": {Config{}, wire.QueryRequest{SQL: "slow", TimeoutMs: 50}},
	} {
		t.Run(name, func(t *testing.T) {
			s := startTestServer(t, &stubBackend{queryDelay: 10 * time.Second}, tc.cfg)
			conn := dialTest(t, s)
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			conn.send(&wire.Request{ID: 1, Op: wire.OpQuery, Query: &tc.q})
			if r := conn.await(1); r.err() == nil || r.err().Code != wire.CodeTimeout {
				t.Fatalf("got %v, want timeout", r.err())
			}
		})
	}
}

// TestPipelining: replies carry the right IDs even when a slow query
// is pipelined before fast ones (completion-order replies).
func TestPipelining(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	s := startTestServer(t, &stubBackend{}, Config{
		MaxConcurrentQueries: 4,
		OnQueryStart:         func() { once.Do(func() { <-gate }) }, // first query stalls
	})
	conn := dialTest(t, s)
	conn.query(100, "slow")
	time.Sleep(10 * time.Millisecond) // let it occupy its slot
	conn.send(&wire.Request{ID: 101, Op: wire.OpPing})
	if r := conn.next(); r.id != 101 {
		t.Fatalf("fast request did not overtake: got id %d", r.id)
	}
	close(gate)
	if r := conn.next(); r.id != 100 || r.err() != nil {
		t.Fatalf("stalled query: id %d err %v", r.id, r.err())
	}
}

func TestServerCloseSeversSessions(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	conn := dialTest(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := wire.ReadRawFrame(conn.br, wire.MaxFrame); err == nil {
		t.Fatal("read succeeded after server close")
	}
	if _, err := net.Dial("tcp", s.Addr().String()); err == nil {
		t.Fatal("dial succeeded after server close")
	}
}

// TestQueryCountedBeforeEnd: the query op is counted before its End frame
// is written, so a status request sent the moment End is read always sees
// it. (Counting after the write let status run one short.)
func TestQueryCountedBeforeEnd(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	conn := dialTest(t, s)
	for i := uint64(1); i <= 300; i++ {
		conn.query(2*i, "SELECT 1")
		if r := conn.await(2 * i); r.err() != nil {
			t.Fatal(r.err())
		}
		conn.send(&wire.Request{ID: 2*i + 1, Op: wire.OpStatus})
		st := conn.await(2*i + 1).resp.Status
		if got := st.Ops[wire.OpQuery].Count; got != i {
			t.Fatalf("after End of query %d, status counts %d queries", i, got)
		}
	}
	// A refused query is counted, as an error, before its End as well.
	conn.send(&wire.Request{ID: 1000, Op: wire.OpQuery})
	if r := conn.await(1000); r.err() == nil || r.err().Code != wire.CodeBadRequest {
		t.Fatalf("query without payload: %+v", r.end)
	}
	conn.send(&wire.Request{ID: 1001, Op: wire.OpStatus})
	if q := conn.await(1001).resp.Status.Ops[wire.OpQuery]; q.Count != 301 || q.Errors != 1 {
		t.Fatalf("after a refused query: count %d errors %d, want 301 and 1", q.Count, q.Errors)
	}
}

// TestTypeQueryError is the wire half of the query error map: which
// failures of NodeBackend.Query become which wire codes.
func TestTypeQueryError(t *testing.T) {
	bind := errors.New("optimizer: unknown column nosuch")
	exec := errors.New("engine: fragment lost")
	for _, tc := range []struct {
		name string
		err  error
		code string // "" = passed through untyped
	}{
		{"parse", planError{&sql.Error{Msg: "unexpected token"}}, wire.CodeBadRequest},
		{"bind", planError{bind}, wire.CodeBadRequest},
		{"unknown relation", planError{&optimizer.UnknownTableError{Table: "ghost"}}, wire.CodeNotFound},
		{"catalog unreachable", planError{fmt.Errorf("%w: get c/t", cluster.ErrUnavailable)}, wire.CodeUnavailable},
		{"execution", exec, ""},
	} {
		got := typeQueryError(context.Background(), tc.err)
		var we *wire.Error
		switch {
		case tc.code == "" && got != tc.err:
			t.Errorf("%s: %v became %v, want it untouched", tc.name, tc.err, got)
		case tc.code != "" && (!errors.As(got, &we) || we.Code != tc.code):
			t.Errorf("%s: got %v, want code %s", tc.name, got, tc.code)
		}
	}
	// A deadline that ran out while planning stays a timeout, whatever the
	// planner reported.
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if got := typeQueryError(ctx, planError{bind}); toWireError(ctx, got).Code != wire.CodeTimeout {
		t.Errorf("expired deadline: got %v, want a timeout", got)
	}
}

// rowBatch builds the typed batch a publish or result frame carries from
// row fixtures.
func rowBatch(tb testing.TB, rows []tuple.Row) *tuple.Batch {
	tb.Helper()
	b := &tuple.Batch{}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// decodeBatchPayload decodes a FrameBatch payload into typed rows.
func decodeBatchPayload(p []byte) (id uint64, rows []tuple.Row, err error) {
	id, err = wire.StreamFrameID(p)
	if err != nil {
		return 0, nil, err
	}
	var b tuple.Batch
	_, err = tuple.DecodeBatchInto(p[8:], &b)
	return id, b.Rows(), err
}
