// Package client is the Go client for a served ORCHESTRA deployment
// (an orchestra.Cluster with Serve enabled, or an orchestra-node started
// with -serve): connection pooling, endpoint balancing and failover over
// the wire protocol that internal/wire defines, with server-side
// failures surfaced as typed errors. Query results arrive as
// column-major row-batch frames decoded incrementally, both behind the
// buffered Query API and the incremental QueryStream iterator.
//
//	cl, _ := client.Dial("127.0.0.1:7101")
//	defer cl.Close()
//	cl.Create(ctx, "inv", []string{"item:string", "qty:int"}, "item")
//	cl.Publish(ctx, "inv", [][]any{{"bolt", 90}, {"nut", 120}})
//	res, _ := cl.Query(ctx, "SELECT item, qty FROM inv WHERE qty > 100")
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/obs"
	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// Typed error categories; unwrap with errors.Is. The full server message
// is available via errors.As on *Error.
var (
	// ErrBadRequest reports a malformed or unparsable request.
	ErrBadRequest = wire.ErrBadRequest
	// ErrNotFound reports a missing relation.
	ErrNotFound = wire.ErrNotFound
	// ErrTimeout reports a server-side request timeout (admission wait
	// included).
	ErrTimeout = wire.ErrTimeout
	// ErrFrameTooLarge reports a single wire frame exceeding the
	// protocol's 64 MiB frame cap — typically a publish too big for one
	// frame. Results are not subject to a whole-result cap.
	ErrFrameTooLarge = wire.ErrFrameTooLarge
	// ErrCancelled reports a stream terminated by a cancel frame.
	ErrCancelled = wire.ErrCancelled
	// ErrServer reports any other server-side failure.
	ErrServer = wire.ErrServer
)

// Error is a failure reported by the server: its Code is the wire code
// ("bad_request", "not_found", "timeout", "frame_too_large", "internal",
// ...), its Message the server's description, and it unwraps to the
// Err* category of its code.
type Error = wire.Error

// Options tunes a Client. The frame cap (wire.MaxFrame) and a stream's
// credit window (wire.CreditWindow) are constants of the protocol, not
// options.
type Options struct {
	// PoolSize caps idle connections kept for reuse per endpoint
	// (default 2). Concurrent calls beyond the pool dial extra
	// connections that are dropped when the pool is full on release.
	PoolSize int
	// DialTimeout bounds connection establishment (default 5s). It also
	// bounds client-initiated protocol exchanges with no caller
	// deadline of their own (hello, stream-cancel drain, membership
	// refresh).
	DialTimeout time.Duration
	// Endpoints seeds additional cluster members beyond the dialed
	// address. The member list grows and shrinks as the cluster
	// advertises peers (see RefreshInterval); seeds are never dropped.
	Endpoints []string
	// Retry governs automatic retry and failover of failed calls; see
	// RetryPolicy for what is and is not safe to retry.
	Retry RetryPolicy
	// RefreshInterval paces background membership refreshes via the
	// health op (default 30s; negative disables). A refresh is also
	// triggered whenever an endpoint fails.
	RefreshInterval time.Duration
}

// Client is a connection-reusing client for a served deployment. It
// maintains a cluster member list (seeded from the dialed address,
// refreshed from the servers' advertised peers), balances calls across
// healthy members, and — under Options.Retry — fails idempotent calls
// over to another member. It is safe for concurrent use; each in-flight
// call holds one connection.
type Client struct {
	opts  Options
	retry RetryPolicy
	seeds []string

	rr         atomic.Uint64 // round-robin cursor
	ctr        counters
	refreshing atomic.Bool

	mu          sync.Mutex
	eps         []*endpoint
	lastRefresh time.Time
	closed      bool
}

// wireConn is one pooled connection. It keeps no protocol state: the
// frame cap is a constant, and the credit window governs only the
// server's sending (the client grants one credit per consumed batch).
type wireConn struct {
	net.Conn
	br *bufio.Reader
	ep *endpoint // owning endpoint (pool and health bookkeeping)
}

// frameCap bounds every frame the client sends or reads: wire.MaxFrame.
// It is a variable only so that tests reach the refusal of a publish past
// the cap without building one of 64 MiB, and atomic so that a test may
// lower it while other clients' goroutines run.
var frameCap atomic.Int64

func init() { frameCap.Store(wire.MaxFrame) }

// Dial validates connectivity to addr (performing the protocol
// handshake) and returns a Client. addr plus Options.Endpoints seed the
// cluster member list.
func Dial(addr string, opts ...Options) (*Client, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RefreshInterval == 0 {
		o.RefreshInterval = 30 * time.Second
	}
	c := &Client{opts: o, retry: o.Retry.normalized()}
	seen := map[string]bool{}
	for _, a := range append([]string{addr}, o.Endpoints...) {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		c.seeds = append(c.seeds, a)
		c.eps = append(c.eps, &endpoint{addr: a})
	}
	conn, err := c.acquireOn(c.eps[0])
	if err != nil {
		return nil, err
	}
	c.release(conn)
	c.refreshAsync() // discover peers in the background
	return c, nil
}

// Close drops all pooled connections; subsequent calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	eps := c.eps
	c.closed = true
	c.mu.Unlock()
	for _, e := range eps {
		e.drop()
	}
	return nil
}

// dial establishes one connection to ep and performs the handshake.
func (c *Client) dial(ep *endpoint) (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", ep.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("orchestra client: %w", err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn := &wireConn{
		Conn: nc,
		br:   bufio.NewReaderSize(nc, 32<<10),
		ep:   ep,
	}
	if err := c.hello(conn); err != nil {
		nc.Close()
		return nil, err
	}
	return conn, nil
}

// hello opens a fresh connection: the server checks the protocol version
// and accepts or refuses the connection.
func (c *Client) hello(conn *wireConn) error {
	conn.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	defer conn.SetDeadline(time.Time{})
	req := &wire.Request{ID: 1, Op: wire.OpHello, Hello: &wire.HelloRequest{Version: wire.ProtocolVersion}}
	frame, err := requestFrame(req)
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		return fmt.Errorf("orchestra client: hello: %w", err)
	}
	resp, _, err := readResponse(conn)
	if err != nil {
		return fmt.Errorf("orchestra client: hello: %w", err)
	}
	if resp.Error != nil {
		return resp.Error
	}
	if resp.Hello == nil {
		return errors.New("orchestra client: malformed hello response")
	}
	return nil
}

// readFrame reads one frame, mapping a frame-size violation onto
// ErrFrameTooLarge.
func readFrame(conn *wireConn) (wire.FrameKind, []byte, error) {
	kind, payload, err := wire.ReadRawFrame(conn.br, frameCap.Load())
	var fse *wire.FrameSizeError
	if errors.As(err, &fse) {
		err = fmt.Errorf("%w: inbound frame of %d bytes exceeds limit %d", ErrFrameTooLarge, fse.Size, fse.Max)
	}
	return kind, payload, err
}

// readResponse reads one JSON response, returning the frame's wire size
// for accounting.
func readResponse(conn *wireConn) (*wire.Response, int64, error) {
	kind, payload, err := readFrame(conn)
	if err != nil {
		return nil, 0, err
	}
	n := wire.FrameWireSize(payload)
	if kind != wire.FrameJSON {
		return nil, n, fmt.Errorf("orchestra client: unexpected %v frame", kind)
	}
	var resp wire.Response
	if err := wire.UnmarshalJSONFrame(payload, &resp); err != nil {
		return nil, n, err
	}
	return &resp, n, nil
}

// connCall wires context cancellation to a connection held by one call:
// cancellation forces an immediate deadline so blocked reads/writes
// unblock now.
type connCall struct {
	conn *wireConn
	ctx  context.Context
	// stop detaches the watchdog; fired closes once a started watchdog
	// has finished with the connection.
	stop  func() bool
	fired chan struct{}
}

func newConnCall(ctx context.Context, conn *wireConn) *connCall {
	cc := &connCall{conn: conn, ctx: ctx, fired: make(chan struct{})}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	} else {
		conn.SetDeadline(time.Time{})
	}
	cc.stop = context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0)) // unblock read/write now
		close(cc.fired)
	})
	return cc
}

// finish tears down the watchdog. keep reports whether the connection is
// clean (all response frames consumed) and may return to the pool. A
// watchdog that already started is waited out first — it must not force
// its deadline onto a connection that is back in the pool serving
// another call — and the connection it touched is dropped.
func (cc *connCall) finish(c *Client, keep bool) {
	if !cc.stop() {
		<-cc.fired
		keep = false
	}
	if keep {
		cc.conn.SetDeadline(time.Time{})
		c.release(cc.conn)
		return
	}
	c.discard(cc.conn)
}

// wrapErr folds a context cancellation into err.
func (cc *connCall) wrapErr(err error) error {
	if ctxErr := cc.ctx.Err(); ctxErr != nil {
		return fmt.Errorf("orchestra client: %w", ctxErr)
	}
	return err
}

// roundTrip sends one request and reads its response on a pooled
// connection, retrying across endpoints under the client's RetryPolicy.
// Calls are synchronous per connection; concurrency comes from multiple
// connections.
func (c *Client) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("orchestra client: %w", err)
	}
	// Creates mutate; everything else that flows through here is a read.
	idempotent := req.Op != wire.OpCreate
	var resp *wire.Response
	var n int64
	_, err := c.withRetry(ctx, idempotent, func(conn *wireConn) error {
		r, sz, err := c.roundTripOn(ctx, conn, req)
		if err != nil {
			return err
		}
		resp, n = r, sz
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return resp, n, nil
}

// requestFrame encodes one request, enforcing the frame cap before any
// bytes hit the wire — an oversized request fails fast with
// ErrFrameTooLarge instead of making the server abort the connection.
func requestFrame(req *wire.Request) ([]byte, error) {
	frame, err := wire.AppendJSONFrame(nil, req, frameCap.Load())
	return frame, frameTooLarge(err)
}

// frameTooLarge maps an outbound frame-size violation onto
// ErrFrameTooLarge.
func frameTooLarge(err error) error {
	var fse *wire.FrameSizeError
	if errors.As(err, &fse) {
		return fmt.Errorf("%w: request frame of %d bytes exceeds the frame cap %d", ErrFrameTooLarge, fse.Size, fse.Max)
	}
	return err
}

// roundTripOn encodes req and runs one exchange on an already-acquired
// connection.
func (c *Client) roundTripOn(ctx context.Context, conn *wireConn, req *wire.Request) (*wire.Response, int64, error) {
	frame, err := requestFrame(req)
	if err != nil {
		c.release(conn) // nothing was sent; conn is clean
		return nil, 0, err
	}
	return c.exchange(ctx, conn, frame)
}

// exchange writes one request frame on an already-acquired connection
// and reads its JSON response, handling cancellation, cleanup, and error
// typing; the connection returns to the pool only on a clean exchange.
func (c *Client) exchange(ctx context.Context, conn *wireConn, frame []byte) (*wire.Response, int64, error) {
	cc := newConnCall(ctx, conn)
	if _, err := conn.Write(frame); err != nil {
		err = cc.wrapErr(fmt.Errorf("orchestra client: write: %w", err))
		cc.finish(c, false)
		return nil, 0, err
	}
	resp, n, err := readResponse(conn)
	if err != nil {
		err = cc.wrapErr(fmt.Errorf("orchestra client: read: %w", err))
		cc.finish(c, false)
		return nil, 0, err
	}
	cc.finish(c, true)
	if resp.Error != nil {
		return nil, n, resp.Error
	}
	return resp, n, nil
}

// Create registers a relation. Columns are "name:type" (int, float,
// string); keys name the partitioning key columns (default: first
// column).
func (c *Client) Create(ctx context.Context, relation string, columns []string, keys ...string) error {
	_, _, err := c.roundTrip(ctx, &wire.Request{
		Op:     wire.OpCreate,
		Create: &wire.CreateRequest{Relation: relation, Columns: columns, Keys: keys},
	})
	return err
}

// Publish inserts a batch of rows as one published update and returns
// the new global epoch. Values may be int, int64, float64, or string; a
// column that mixes ints and floats is sent as floats (the server narrows
// integral floats back for an int column). Rows the wire's typed batch
// cannot carry — any other mix within a column, another Go type, ragged
// rows — are refused here with ErrBadRequest, and a publish larger than
// the frame cap with ErrFrameTooLarge; neither touches a connection.
//
// Every publish carries a random publish ID. The deployment records it
// with the commit and answers a duplicate with the original epoch, which
// makes a publish whose outcome was lost to a connection failure safe to
// retry on another endpoint — the client does so automatically under
// Options.Retry.
func (c *Client) Publish(ctx context.Context, relation string, rows [][]any) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("orchestra client: %w", err)
	}
	batch, err := batchOf(rows)
	if err != nil {
		return 0, err
	}
	frame, mark := wire.BeginFrame(make([]byte, 0, 4096), wire.FramePublish)
	frame, err = wire.AppendPublishPayload(frame, 1, newPublishID(), relation, batch)
	if err != nil {
		return 0, wire.Errorf(wire.CodeBadRequest, "%v", err)
	}
	if frame, err = wire.FinishFrame(frame, mark, frameCap.Load()); err != nil {
		return 0, frameTooLarge(err)
	}
	var epoch uint64
	_, err = c.withRetry(ctx, true, func(conn *wireConn) error {
		resp, _, err := c.exchange(ctx, conn, frame)
		if err != nil {
			return err
		}
		epoch = resp.Epoch
		return nil
	})
	return epoch, err
}

// batchOf converts caller values into the typed batch of a publish frame,
// whose columns are type-homogeneous: a column mixing ints and floats is
// widened to float, anything else the frame cannot carry is a bad request.
func batchOf(rows [][]any) (*tuple.Batch, error) {
	badRequest := func(format string, args ...any) error {
		return wire.Errorf(wire.CodeBadRequest, format, args...)
	}
	b := &tuple.Batch{N: len(rows)}
	for i, r := range rows {
		if i == 0 {
			b.Cols = make([]tuple.ColVec, len(r))
		} else if len(r) != len(b.Cols) {
			return nil, badRequest("row %d arity %d != row 0 arity %d", i, len(r), len(b.Cols))
		}
		for j, v := range r {
			col := &b.Cols[j]
			var val tuple.Value
			switch x := v.(type) {
			case int:
				val = tuple.I(int64(x))
			case int64:
				val = tuple.I(x)
			case float64:
				val = tuple.F(x)
			case string:
				val = tuple.S(x)
			default:
				return nil, badRequest("row %d column %d: unsupported value type %T", i, j, v)
			}
			switch {
			case i == 0:
				col.T = val.T
			case val.T == col.T:
			case val.T == tuple.String || col.T == tuple.String:
				return nil, badRequest("column %d mixes %v and %v values", j, col.T, val.T)
			case col.T == tuple.Int64: // the ints so far become floats
				col.T, col.F64 = tuple.Float64, make([]float64, i, len(rows))
				for k, x := range col.I64 {
					col.F64[k] = float64(x)
				}
				col.I64 = nil
			default:
				val = tuple.F(float64(val.I64))
			}
			switch col.T {
			case tuple.Int64:
				col.I64 = append(col.I64, val.I64)
			case tuple.Float64:
				col.F64 = append(col.F64, val.F64)
			case tuple.String:
				col.Str = append(col.Str, val.Str)
			}
		}
	}
	return b, nil
}

// QueryOptions tunes one query; the zero value queries the current
// epoch with restart recovery.
type QueryOptions struct {
	// Epoch pins the snapshot (0 = current).
	Epoch uint64
	// Recovery is "", "fail", "restart", or "incremental".
	Recovery string
	// Provenance forces provenance tracking.
	Provenance bool
	// Explain asks for the optimizer's plan in Result.Plan.
	Explain bool
	// Trace asks for the query's span tree in Result.Trace: planning,
	// per-fragment scans, ship encode/decode, and the final pipeline,
	// with durations and row/byte counts.
	Trace bool
}

// Result is a completed query. Row values are int64, float64, or string.
type Result struct {
	Columns  []string
	Rows     [][]any
	Epoch    uint64
	Cached   bool
	Phases   uint32
	Restarts int
	Plan     string
	// WireBytes is the total size of the response frames that carried
	// this result.
	WireBytes int64
	// Attempts counts the call attempts this result took (1 = no
	// retries); Failovers counts attempts that switched endpoint; and
	// Endpoint is the address that served the final attempt.
	Attempts  int
	Failovers int
	Endpoint  string
	// TraceID and Trace carry the execution's span tree when
	// QueryOptions.Trace was set.
	TraceID string
	Trace   *TraceSpan
}

// TraceSpan is one timed stage of a traced query — the nodes of
// Result.Trace's span tree.
type TraceSpan = obs.Span

// Query runs a SQL query at the current epoch with default options.
func (c *Client) Query(ctx context.Context, sql string) (*Result, error) {
	return c.QueryOpts(ctx, sql, QueryOptions{})
}

// QueryOpts runs a SQL query with explicit options; the result arrives
// as batch frames and is assembled incrementally.
//
// Queries are idempotent, so under Options.Retry a buffered query is
// fully fault-tolerant: a failure at any point — dial, mid-stream, even
// with partial rows already decoded — discards the partial result and
// re-runs the query, preferring a different endpoint.
func (c *Client) QueryOpts(ctx context.Context, sql string, opts QueryOptions) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("orchestra client: %w", err)
	}
	var res *Result
	meta, err := c.withRetry(ctx, true, func(conn *wireConn) error {
		st, err := c.startStream(ctx, conn, sql, opts)
		if err != nil {
			return err
		}
		r, err := drainStream(st)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Attempts = meta.attempts
	res.Failovers = meta.failovers
	res.Endpoint = meta.endpoint
	return res, nil
}

// drainStream consumes a stream to completion into a buffered Result.
func drainStream(st *Stream) (*Result, error) {
	res := &Result{Columns: st.Columns()}
	for st.Next() {
		res.Rows = append(res.Rows, st.Batch()...)
	}
	if err := st.Err(); err != nil {
		st.Close()
		return nil, err
	}
	st.Close()
	res.Epoch = st.Epoch()
	res.Cached = st.Cached()
	res.Phases = st.Phases()
	res.Restarts = st.Restarts()
	res.Plan = st.Plan()
	res.WireBytes = st.WireBytes()
	res.TraceID = st.TraceID()
	res.Trace = st.Trace()
	return res, nil
}

// queryRequest builds the wire request for one query.
func queryRequest(ctx context.Context, sql string, opts QueryOptions) *wire.Request {
	req := &wire.Request{
		Op: wire.OpQuery,
		Query: &wire.QueryRequest{
			SQL:        sql,
			Epoch:      opts.Epoch,
			Recovery:   opts.Recovery,
			Provenance: opts.Provenance,
			Explain:    opts.Explain,
			Trace:      opts.Trace,
		},
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Query.TimeoutMs = ms
		}
	}
	return req
}

// Stream is an incrementally decoded query result: a sequence of row
// batches followed by terminal metadata. Iterate with Next/Batch, check
// Err, then read the metadata accessors; Close must always be called.
type Stream struct {
	c    *Client
	conn *wireConn
	cc   *connCall
	id   uint64

	cols      []string
	batch     [][]any
	pending   bool   // a consumed batch needs a credit grant
	grant     []byte // the one-credit frame, built once: every grant is the same bytes
	err       error
	done      bool
	end       *wire.StreamEnd
	wireBytes int64
	endpoint  string
}

// QueryStream starts a streamed query and returns its result iterator.
//
// Under Options.Retry a failure to start the stream — dial error,
// draining endpoint, connection lost before the first frame — retries
// on another endpoint; no rows have been surfaced, so the retry is
// invisible. Once the iterator is returned, failures surface through
// Err: rows already handed to the caller cannot be un-consumed, so
// mid-stream recovery is the caller's call (or use Query, which buffers
// and is therefore fully retryable).
//
//	st, err := cl.QueryStream(ctx, "SELECT * FROM big")
//	if err != nil { ... }
//	defer st.Close()
//	for st.Next() {
//	    for _, row := range st.Batch() { ... }
//	}
//	if err := st.Err(); err != nil { ... }
func (c *Client) QueryStream(ctx context.Context, sql string, opts ...QueryOptions) (*Stream, error) {
	var o QueryOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("orchestra client: %w", err)
	}
	var st *Stream
	_, err := c.withRetry(ctx, true, func(conn *wireConn) error {
		s, err := c.startStream(ctx, conn, sql, o)
		if err != nil {
			return err
		}
		st = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// startStream performs one attempt at starting a query on an
// already-acquired connection, up to the schema frame.
func (c *Client) startStream(ctx context.Context, conn *wireConn, sql string, o QueryOptions) (*Stream, error) {
	st := &Stream{c: c, conn: conn, id: 1, endpoint: conn.ep.addr}
	req := queryRequest(ctx, sql, o)
	req.ID = st.id
	frame, err := requestFrame(req)
	if err != nil {
		c.release(conn) // nothing was sent; conn is clean
		return nil, err
	}
	st.cc = newConnCall(ctx, conn)
	if _, err := conn.Write(frame); err != nil {
		err = st.cc.wrapErr(fmt.Errorf("orchestra client: write: %w", err))
		st.cc.finish(c, false)
		return nil, err
	}
	// The first frame is Schema — or End when the query failed outright.
	kind, payload, err := st.readFrame()
	if err != nil {
		st.cc.finish(c, false)
		return nil, err
	}
	switch kind {
	case wire.FrameSchema:
		_, cols, err := wire.DecodeSchemaPayload(payload)
		if err != nil {
			st.cc.finish(c, false)
			return nil, err
		}
		st.cols = cols
		return st, nil
	case wire.FrameEnd:
		_, end, err := wire.DecodeEndPayload(payload)
		if err == nil {
			if end.Error != nil {
				err = end.Error
			} else {
				err = errors.New("orchestra client: stream ended before schema")
			}
		}
		st.cc.finish(c, true)
		return nil, err
	default:
		st.cc.finish(c, false)
		return nil, fmt.Errorf("orchestra client: unexpected %v frame at stream start", kind)
	}
}

// readFrame reads one frame off the stream's connection and accounts its
// wire size.
func (s *Stream) readFrame() (wire.FrameKind, []byte, error) {
	kind, payload, err := readFrame(s.conn)
	if err != nil {
		return kind, payload, s.cc.wrapErr(err)
	}
	s.wireBytes += wire.FrameWireSize(payload)
	return kind, payload, nil
}

// Next advances to the next batch, returning false at the end of the
// stream or on error (check Err).
func (s *Stream) Next() bool {
	if s.done || s.err != nil {
		return false
	}
	if s.pending {
		// Grant one credit for the batch just consumed so the server's
		// window keeps sliding.
		s.pending = false
		var err error
		if s.grant == nil {
			s.grant, err = wire.AppendBinaryFrame(nil, wire.FrameCredit, wire.AppendCreditPayload(nil, s.id, 1), frameCap.Load())
		}
		if err == nil {
			_, err = s.conn.Write(s.grant)
		}
		if err != nil {
			s.fail(s.cc.wrapErr(fmt.Errorf("orchestra client: credit: %w", err)))
			return false
		}
	}
	for {
		kind, payload, err := s.readFrame()
		if err != nil {
			s.fail(err)
			return false
		}
		switch kind {
		case wire.FrameBatch:
			_, rows, err := wire.DecodeBatchPayloadAny(payload)
			if err != nil {
				s.fail(err)
				return false
			}
			s.batch = rows
			s.pending = true
			return true
		case wire.FrameEnd:
			_, end, err := wire.DecodeEndPayload(payload)
			if err != nil {
				s.fail(err)
				return false
			}
			s.done = true
			s.end = end
			if end.Error != nil {
				s.err = end.Error
			}
			s.finishConn(true)
			return false
		default:
			s.fail(fmt.Errorf("orchestra client: unexpected %v frame mid-stream", kind))
			return false
		}
	}
}

// fail records the stream's terminal error; the connection is dirty.
func (s *Stream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.done = true
	s.finishConn(false)
}

func (s *Stream) finishConn(keep bool) {
	if s.cc != nil {
		s.cc.finish(s.c, keep)
		s.cc = nil
	}
}

// Batch returns the current batch of rows (valid until the next call to
// Next). Row values are int64, float64, or string. The cells of one column
// share one backing array per batch, so a cell kept past Next keeps its
// column's array alive: copy the value out (strings.Clone for a string, a
// plain variable for a number) to hold it alone.
func (s *Stream) Batch() [][]any { return s.batch }

// Columns returns the result column names (available immediately).
func (s *Stream) Columns() []string { return s.cols }

// Err returns the stream's terminal error, if any.
func (s *Stream) Err() error { return s.err }

// Cancel abandons a stream in flight while keeping the connection
// usable: it sends a cancel frame, then drains frames until the server's
// terminal End arrives. The server stops emitting batches and returns the
// query's admission slot. After a clean cancel, Err reports nil and the
// connection returns to the pool. Cancelling a finished stream is a no-op.
func (s *Stream) Cancel() error {
	if s.done {
		return nil
	}
	if s.cc.ctx.Err() != nil {
		// The caller's context is already gone: the watchdog forced the
		// connection deadline, so a cancel round-trip would only delay.
		// Drop the connection instead of draining.
		s.fail(s.cc.wrapErr(errors.New("orchestra client: stream closed before end")))
		return nil
	}
	buf := wire.AppendCancelPayload(make([]byte, 0, 8), s.id)
	frame, err := wire.AppendBinaryFrame(make([]byte, 0, 16), wire.FrameCancel, buf, frameCap.Load())
	if err == nil {
		_, err = s.conn.Write(frame)
	}
	if err != nil {
		s.fail(s.cc.wrapErr(fmt.Errorf("orchestra client: cancel: %w", err)))
		return s.err
	}
	// Bound the drain so a wedged server cannot hold the caller: the
	// caller's own deadline when one is set, else the client's
	// DialTimeout (the server acks promptly — End follows at most a
	// window of batches).
	drainBy := time.Now().Add(s.c.opts.DialTimeout)
	if dl, ok := s.cc.ctx.Deadline(); ok && dl.Before(drainBy) {
		drainBy = dl
	}
	s.conn.SetDeadline(drainBy)
	for {
		kind, payload, err := s.readFrame()
		if err != nil {
			s.fail(err)
			return s.err
		}
		switch kind {
		case wire.FrameBatch:
			// Discard: in-flight batches the server sent before seeing the
			// cancel. No credits are granted — the server is past waiting.
		case wire.FrameEnd:
			_, end, err := wire.DecodeEndPayload(payload)
			if err != nil {
				s.fail(err)
				return s.err
			}
			s.done = true
			s.end = end
			if end.Error != nil && end.Error.Code != wire.CodeCancelled {
				// The query failed for its own reasons before the cancel
				// landed; surface that, not the cancellation.
				s.err = end.Error
			}
			s.finishConn(true)
			return s.err
		default:
			s.fail(fmt.Errorf("orchestra client: unexpected %v frame draining cancelled stream", kind))
			return s.err
		}
	}
}

// Close releases the stream's connection. A stream abandoned before its
// End frame is cancelled first (see Cancel), so the connection usually
// survives into the pool; if the cancel itself fails the connection is
// dropped. Fully consumed streams have returned their connection
// already. Close is idempotent.
func (s *Stream) Close() error { return s.Cancel() }

// Endpoint returns the address of the endpoint serving this stream.
func (s *Stream) Endpoint() string { return s.endpoint }

// WireBytes returns the bytes of response frames consumed so far.
func (s *Stream) WireBytes() int64 { return s.wireBytes }

// tail accessors are valid after Next has returned false with nil Err.

// Epoch returns the snapshot epoch the query executed against.
func (s *Stream) Epoch() uint64 {
	if s.end != nil {
		return s.end.Epoch
	}
	return 0
}

// Cached reports a materialized-view cache hit.
func (s *Stream) Cached() bool { return s.end != nil && s.end.Cached }

// Phases returns 1 + incremental recovery invocations.
func (s *Stream) Phases() uint32 {
	if s.end != nil {
		return s.end.Phases
	}
	return 0
}

// Restarts counts full restarts performed.
func (s *Stream) Restarts() int {
	if s.end != nil {
		return s.end.Restarts
	}
	return 0
}

// Plan returns the optimizer explanation (when Explain was requested).
func (s *Stream) Plan() string {
	if s.end != nil {
		return s.end.Plan
	}
	return ""
}

// TraceID identifies the traced execution (when Trace was requested).
func (s *Stream) TraceID() string {
	if s.end != nil {
		return s.end.TraceID
	}
	return ""
}

// Trace returns the query's span tree (when Trace was requested).
func (s *Stream) Trace() *TraceSpan {
	if s.end != nil {
		return s.end.Trace
	}
	return nil
}

// TotalRows returns the stream's total row count as reported by the
// server's End frame.
func (s *Stream) TotalRows() int64 {
	if s.end != nil {
		return s.end.Rows
	}
	return 0
}

// TotalBatches returns how many batch frames the server sent.
func (s *Stream) TotalBatches() int {
	if s.end != nil {
		return s.end.Batches
	}
	return 0
}

// StreamedRows returns how many result rows the server emitted *during*
// execution — nonzero exactly when the query ran on the server's
// streaming pushdown path (first batch before the collect), zero when
// the answer was collected first. Valid after Next returns false.
func (s *Stream) StreamedRows() int64 {
	if s.end != nil {
		return s.end.Streamed
	}
	return 0
}

// Relation describes one catalog entry.
type Relation = wire.RelationInfo

// Schema fetches one relation's catalog entry.
func (c *Client) Schema(ctx context.Context, relation string) (*Relation, error) {
	resp, _, err := c.roundTrip(ctx, &wire.Request{
		Op:     wire.OpSchema,
		Schema: &wire.SchemaRequest{Relation: relation},
	})
	if err != nil {
		return nil, err
	}
	if resp.Schema == nil || len(resp.Schema.Relations) == 0 {
		return nil, wire.Errorf(wire.CodeNotFound, "relation %s", relation)
	}
	return &resp.Schema.Relations[0], nil
}

// Catalog lists all relations the server knows about.
func (c *Client) Catalog(ctx context.Context) ([]Relation, error) {
	resp, _, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpSchema, Schema: &wire.SchemaRequest{}})
	if err != nil {
		return nil, err
	}
	if resp.Schema == nil {
		return nil, nil
	}
	return resp.Schema.Relations, nil
}

// Status is the server's identity and load counters.
type Status = wire.StatusResponse

// Status fetches the server's status/stats snapshot.
func (c *Client) Status(ctx context.Context) (*Status, error) {
	resp, _, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpStatus})
	if err != nil {
		return nil, err
	}
	if resp.Status == nil {
		return nil, fmt.Errorf("orchestra client: malformed response (no status payload)")
	}
	return resp.Status, nil
}

// TraceDump is the server's slow-query log with full span trees.
type TraceDump = wire.TraceResponse

// Traces fetches the server's slow-query log: every logged entry with
// its complete span tree, oldest first.
func (c *Client) Traces(ctx context.Context) (*TraceDump, error) {
	resp, _, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpTrace})
	if err != nil {
		return nil, err
	}
	if resp.Trace == nil {
		return nil, fmt.Errorf("orchestra client: malformed response (no trace payload)")
	}
	return resp.Trace, nil
}
