// Package server serves the wire protocol (internal/wire) of an ORCHESTRA
// deployment: the sessions that speak it, the result-stream writer, and
// the admission control in front of query execution. NodeBackend, the one
// implementation of the work behind the ops at a cluster.Node, lives here
// too, because its view cache replays memoized frames through the stream
// writer itself; an orchestra-node process and every node of an embedded
// Cluster share it.
package server

import (
	"bufio"
	"context"
	"errors"
	"expvar"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/obs"
	"orchestra/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// MaxConcurrentQueries bounds query executions in flight at once —
	// the admission-control semaphore. Excess queries wait their turn
	// (closed-loop clients self-throttle; waiting counts toward the
	// request timeout). Default: 2 × GOMAXPROCS.
	MaxConcurrentQueries int
	// RequestTimeout caps the server-side execution time of any single
	// request, including admission wait (default 30s). A QueryRequest
	// may ask for less, never more.
	RequestTimeout time.Duration
	// MaxPipelinedRequests bounds requests in flight per connection
	// (default 64). When a client pipelines past the cap, the session
	// stops reading frames until a response drains — backpressure via
	// TCP, so one connection cannot accumulate unbounded handler
	// goroutines and payloads.
	MaxPipelinedRequests int
	// OnQueryStart, when set, is invoked at the start of every query
	// execution while its admission slot is held — an instrumentation
	// hook (tests use it to make executions overlap deterministically).
	OnQueryStart func()
	// Logf receives connection-level diagnostics (default log.Printf).
	Logf func(format string, args ...any)
	// Registry receives the server's metrics: per-op latency histograms
	// and error counters, plus live connection/admission gauges. Nil
	// means a private registry; either way ServeOps exposes it over HTTP.
	Registry *obs.Registry
	// SlowQueryThreshold is the duration at which a completed query
	// enters the slow-query ring log, span tree included (the server
	// forces tracing on for logged-but-untraced queries and strips the
	// tree from the client's response). 0 = the 250ms default; negative
	// disables the log.
	SlowQueryThreshold time.Duration
	// Peers, when set, supplies the deployment's advertised client
	// endpoints (this server's included) for the health and status ops —
	// the member list smart clients refresh from.
	Peers func() []string
}

// defaultSlowQueryThreshold is the slow-query log's default threshold.
const defaultSlowQueryThreshold = 250 * time.Millisecond

// slowQueryLogSize is the slow-query ring's capacity.
const slowQueryLogSize = 64

func (c Config) withDefaults() Config {
	if c.MaxConcurrentQueries <= 0 {
		c.MaxConcurrentQueries = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxPipelinedRequests <= 0 {
		c.MaxPipelinedRequests = 64
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = defaultSlowQueryThreshold
	}
	return c
}

// Server accepts wire-protocol sessions and dispatches them to a Backend.
type Server struct {
	cfg     Config
	backend Backend
	ln      net.Listener
	start   time.Time

	sem chan struct{} // admission-control slots for query execution

	inFlight   atomic.Int64
	peakFlight atomic.Int64
	conns      atomic.Int64
	totalConns atomic.Int64

	// draining flips at Shutdown: new work is refused with
	// CodeUnavailable while requests already in flight finish.
	draining atomic.Bool
	// reqsInFlight counts requests from frame-read to response-written
	// (streams: to End frame). Shutdown waits for it to reach zero.
	reqsInFlight atomic.Int64

	metrics *obs.Registry
	ops     map[string]*opMetrics
	slow    *slowLog

	// Streamed-execution accounting: first-batch latency (request start
	// to first batch frame on the wire) and rows/queries that ran on the
	// during-execution streaming path.
	firstBatch      *obs.Histogram
	streamedRows    *obs.Counter
	streamedQueries *obs.Counter

	mu      sync.Mutex
	active  map[net.Conn]struct{}
	opsLns  []net.Listener // ops HTTP listeners (ServeOps)
	closed  bool
	accepts sync.WaitGroup
}

// opMetrics are one operation's registry handles, resolved once at
// Start so the per-request path never touches the registry lock. The
// histogram's own count/sum/max replace the old ad-hoc opCounters.
type opMetrics struct {
	hist   *obs.Histogram
	errors *obs.Counter
}

// observeOp records one request's service time and outcome — the single
// accounting point shared by the control-op dispatch, the query stream
// path, and the hello handshake.
func (s *Server) observeOp(op string, d time.Duration, failed bool) {
	m := s.ops[op]
	if m == nil {
		return
	}
	m.hist.Observe(d)
	if failed {
		m.errors.Inc()
	}
}

// slowLog is a fixed-capacity ring of the slowest-threshold-crossing
// queries, span trees included.
type slowLog struct {
	threshold time.Duration

	mu      sync.Mutex
	entries []wire.SlowQuery // ring storage, cap fixed
	next    int              // overwrite cursor once full
	dropped uint64           // entries overwritten
}

func newSlowLog(threshold time.Duration) *slowLog {
	return &slowLog{threshold: threshold, entries: make([]wire.SlowQuery, 0, slowQueryLogSize)}
}

func (l *slowLog) enabled() bool { return l.threshold > 0 }

func (l *slowLog) qualifies(d time.Duration) bool {
	return l.threshold > 0 && d >= l.threshold
}

func (l *slowLog) record(e wire.SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) < cap(l.entries) {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % len(l.entries)
	l.dropped++
}

// snapshot copies the ring oldest-first. withTraces strips the span
// trees (the status op's lightweight summary form).
func (l *slowLog) snapshot(withTraces bool) ([]wire.SlowQuery, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]wire.SlowQuery, 0, len(l.entries))
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	if !withTraces {
		for i := range out {
			out[i].Trace = nil
		}
	}
	return out, l.dropped
}

// Start listens on addr ("host:port"; ":0" picks a free port) and serves
// until Close.
func Start(addr string, backend Backend, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		backend: backend,
		ln:      ln,
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.MaxConcurrentQueries),
		active:  make(map[net.Conn]struct{}),
		metrics: cfg.Registry,
		ops:     make(map[string]*opMetrics),
		slow:    newSlowLog(cfg.SlowQueryThreshold),
	}
	for _, op := range []string{wire.OpPing, wire.OpCreate, wire.OpPublish, wire.OpQuery, wire.OpSchema, wire.OpStatus, wire.OpHello, wire.OpTrace, wire.OpHealth} {
		s.ops[op] = &opMetrics{
			hist:   s.metrics.Histogram(`orchestra_op_duration_us{op="` + op + `"}`),
			errors: s.metrics.Counter(`orchestra_op_errors_total{op="` + op + `"}`),
		}
	}
	s.firstBatch = s.metrics.Histogram("orchestra_query_first_batch_us")
	s.streamedRows = s.metrics.Counter("orchestra_streamed_rows_total")
	s.streamedQueries = s.metrics.Counter("orchestra_streamed_queries_total")
	s.metrics.GaugeFunc("orchestra_connections", s.conns.Load)
	s.metrics.GaugeFunc("orchestra_connections_total", s.totalConns.Load)
	s.metrics.GaugeFunc("orchestra_in_flight_queries", s.inFlight.Load)
	s.metrics.GaugeFunc("orchestra_peak_in_flight_queries", s.peakFlight.Load)
	s.metrics.GaugeFunc("orchestra_uptime_seconds", func() int64 {
		return int64(time.Since(s.start).Seconds())
	})
	s.registerCacheGauges()
	s.registerReplGauges()
	s.accepts.Add(1)
	go s.acceptLoop()
	return s, nil
}

// registerCacheGauges exports the backend's cache counters (view cache,
// decoded-page LRU) as registry gauges.
func (s *Server) registerCacheGauges() {
	stat := func(name string, f func(obs.CacheStats) int64) func() int64 {
		return func() int64 { return f(s.backend.CacheStats()[name]) }
	}
	for _, name := range []string{"views", "pages"} {
		s.metrics.GaugeFunc(`orchestra_cache_hits{cache="`+name+`"}`, stat(name, func(c obs.CacheStats) int64 { return int64(c.Hits) }))
		s.metrics.GaugeFunc(`orchestra_cache_misses{cache="`+name+`"}`, stat(name, func(c obs.CacheStats) int64 { return int64(c.Misses) }))
		s.metrics.GaugeFunc(`orchestra_cache_evictions{cache="`+name+`"}`, stat(name, func(c obs.CacheStats) int64 { return int64(c.Evictions) }))
		s.metrics.GaugeFunc(`orchestra_cache_size{cache="`+name+`"}`, stat(name, func(c obs.CacheStats) int64 { return int64(c.Size) }))
	}
}

// registerReplGauges exports the backend's replica-repair health as
// registry gauges: shipping lag, catch-up and state-transfer counters,
// and anti-entropy repairs (all zero for a single-node deployment).
func (s *Server) registerReplGauges() {
	stat := func(f func(obs.ReplStats) int64) func() int64 {
		return func() int64 {
			r, rok := s.backend.ReplStats()
			if !rok {
				return 0
			}
			return f(r)
		}
	}
	s.metrics.GaugeFunc("orchestra_repl_max_lag", stat(func(r obs.ReplStats) int64 { return int64(r.MaxLag) }))
	s.metrics.GaugeFunc("orchestra_repl_catch_up_records_total", stat(func(r obs.ReplStats) int64 { return int64(r.CatchUpRecords) }))
	s.metrics.GaugeFunc("orchestra_repl_state_transfers_total", stat(func(r obs.ReplStats) int64 { return int64(r.StateTransfers) }))
	s.metrics.GaugeFunc("orchestra_repl_anti_entropy_repairs_total", stat(func(r obs.ReplStats) int64 { return int64(r.AntiEntropyRepairs) }))
	s.metrics.GaugeFunc("orchestra_repl_last_catch_up_us", stat(func(r obs.ReplStats) int64 { return r.LastCatchUpUs }))
}

// ServeOps starts an HTTP listener on addr ("host:port"; ":0" picks a
// free port) serving the ops endpoints off the server's registry:
// /metrics in Prometheus text format, /debug/vars, and /debug/pprof.
// The listener closes with the server. Returns the bound address.
func (s *Server) ServeOps(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("server: closed")
	}
	s.opsLns = append(s.opsLns, ln)
	s.mu.Unlock()
	h := opsHandler(s.metrics)
	go func() {
		_ = http.Serve(ln, h) // exits when the listener closes
	}()
	return ln.Addr(), nil
}

// opsHandler builds the ops HTTP mux for a node: Prometheus-style text
// metrics at /metrics, the process expvar dump at /debug/vars, and the
// standard pprof profiles under /debug/pprof/. It lives here, beside its
// one caller, because importing net/http/pprof and expvar registers their
// handlers on http.DefaultServeMux: a package a client links must not.
func opsHandler(r *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("orchestra ops endpoint\n\n/metrics\n/debug/vars\n/debug/pprof/\n"))
	})
	return mux
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Shutdown drains the server gracefully: it stops accepting new
// connections, refuses new queries and publishes with CodeUnavailable
// (answering health with "draining" so smart clients steer away), lets
// requests already in flight finish — streamed results included — and
// then closes every session. If ctx expires first, the remaining
// in-flight work is severed as by Close. Safe to call concurrently with
// Close; both are idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Stop accepting. Close() closes s.ln again; net.Listener.Close is
	// documented idempotent-safe (second close returns ErrClosed, which
	// Close ignores for its return only on the first path — acceptable).
	lnErr := s.ln.Close()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.reqsInFlight.Load() > 0 {
		select {
		case <-ctx.Done():
			_ = s.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
	if err := s.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	if lnErr != nil && !errors.Is(lnErr, net.ErrClosed) {
		return lnErr
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops accepting, severs all sessions, and waits for the accept
// loop to exit. In-flight request goroutines drain on their own.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.active))
	for c := range s.active {
		conns = append(conns, c)
	}
	opsLns := s.opsLns
	s.opsLns = nil
	s.mu.Unlock()
	for _, ln := range opsLns {
		ln.Close()
	}
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.accepts.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.accepts.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.active[conn] = struct{}{}
		s.mu.Unlock()
		s.conns.Add(1)
		s.totalConns.Add(1)
		go s.session(conn)
	}
}

// session owns one connection: after the hello handshake it reads request
// frames and dispatches each to its own goroutine, so a slow query does
// not block later requests pipelined on the same connection. Frames are
// serialized by a per-connection write lock and carry the request's ID;
// result streams interleave their frames with other responses under the
// same lock, one frame at a time.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	// ctx is canceled when the read loop exits, unblocking any stream
	// writers waiting on credit from a dead connection.
	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex

	smu     sync.Mutex
	streams map[uint64]*streamWriter // in-flight streams by request ID
}

// write sends one pre-encoded frame under the write lock. On failure the
// connection is closed to wake the read loop.
func (sess *session) write(frame []byte) error {
	sess.wmu.Lock()
	_, err := sess.conn.Write(frame)
	sess.wmu.Unlock()
	if err != nil {
		if !errors.Is(err, net.ErrClosed) {
			sess.srv.cfg.Logf("server: %s: write: %v", sess.conn.RemoteAddr(), err)
		}
		sess.conn.Close()
	}
	return err
}

// writeResponse encodes and sends one JSON response using a pooled
// buffer. A response larger than the frame cap fails only its request.
func (sess *session) writeResponse(resp *wire.Response) error {
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	frame, err := wire.AppendJSONFrame((*buf)[:0], resp, frameCap.Load())
	if err != nil {
		code := wire.CodeInternal
		var fse *wire.FrameSizeError
		if errors.As(err, &fse) {
			code = wire.CodeFrameTooLarge
		}
		fallback := &wire.Response{ID: resp.ID, Error: wire.Errorf(code, "encode response: %v", err)}
		if frame, err = wire.AppendJSONFrame((*buf)[:0], fallback, frameCap.Load()); err != nil {
			sess.srv.cfg.Logf("server: %s: encode: %v", sess.conn.RemoteAddr(), err)
			sess.conn.Close()
			return err
		}
	}
	err = sess.write(frame)
	*buf = frame[:0]
	return err
}

// protocolError tells the peer why the session is ending (the caller
// returns from the read loop right after): framing or sequencing is
// broken, so no further frame on this connection can be trusted.
func (sess *session) protocolError(id uint64, code, format string, args ...any) {
	sess.srv.cfg.Logf("server: %s: "+format, append([]any{sess.conn.RemoteAddr()}, args...)...)
	sess.writeResponse(&wire.Response{ID: id, Error: wire.Errorf(code, format, args...)})
}

// registerStream claims id for w; it fails when another stream on the
// session is still using the id (frames would be un-demultiplexable and
// the later dropStream would orphan the survivor's credits).
func (sess *session) registerStream(id uint64, w *streamWriter) bool {
	sess.smu.Lock()
	defer sess.smu.Unlock()
	if _, taken := sess.streams[id]; taken {
		return false
	}
	sess.streams[id] = w
	return true
}

// dropStream unregisters w. It deletes only w's own entry: once a stream's
// End frame is out the client may open its next stream under the same id,
// and a late drop by the finished stream must not unregister that one (its
// credits would be dropped and it would stall after a window of frames).
func (sess *session) dropStream(id uint64, w *streamWriter) {
	sess.smu.Lock()
	if sess.streams[id] == w {
		delete(sess.streams, id)
	}
	sess.smu.Unlock()
}

// stream looks up the in-flight stream a credit or cancel frame names.
// Frames for an id with no registered stream are dropped — the protocol
// only permits them after the stream's schema frame was received, which
// orders them after registration, so an unknown id is a finished stream.
func (sess *session) stream(id uint64) *streamWriter {
	sess.smu.Lock()
	defer sess.smu.Unlock()
	return sess.streams[id]
}

func (s *Server) session(conn net.Conn) {
	sess := &session{
		srv:     s,
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 32<<10),
		streams: make(map[uint64]*streamWriter),
	}
	sess.ctx, sess.cancel = context.WithCancel(context.Background())
	defer func() {
		sess.cancel()
		conn.Close()
		s.conns.Add(-1)
		s.mu.Lock()
		delete(s.active, conn)
		s.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if !s.handshake(sess) {
		return
	}
	// Requests pass through a bounded admission pump instead of blocking
	// the read loop directly on the pipeline cap: the read loop must stay
	// responsive to FrameCredit flow-control frames even while a full
	// pipeline of streamed queries is blocked awaiting those very credits.
	// Memory stays bounded at ~2× MaxPipelinedRequests parked requests;
	// a client that pipelines beyond that stalls via TCP as before.
	var handlers sync.WaitGroup
	pipeline := make(chan struct{}, s.cfg.MaxPipelinedRequests)
	reqCh := make(chan wire.Request, s.cfg.MaxPipelinedRequests)
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		for req := range reqCh {
			select {
			case pipeline <- struct{}{}:
			case <-sess.ctx.Done():
				s.reqsInFlight.Add(-1) // the request just taken
				return                 // connection gone; drop parked requests
			}
			handlers.Add(1)
			go func(req wire.Request) {
				defer handlers.Done()
				defer s.reqsInFlight.Add(-1)
				defer func() { <-pipeline }()
				if req.Op == wire.OpQuery {
					s.dispatchStream(sess, &req)
					return
				}
				sess.writeResponse(s.dispatch(&req))
			}(req)
		}
	}()
	defer func() {
		sess.cancel() // unblock the pump and any credit-waiting streams
		close(reqCh)
		<-pumpDone
		handlers.Wait()
		for range reqCh { // parked requests the pump never handled
			s.reqsInFlight.Add(-1)
		}
	}()
	for {
		kind, payload, err := wire.ReadRawFrame(sess.br, frameCap.Load())
		if err != nil {
			sess.readError(err)
			return
		}
		var req wire.Request
		switch kind {
		case wire.FrameCredit:
			id, n, err := wire.DecodeCreditPayload(payload)
			if err != nil {
				sess.protocolError(0, wire.CodeBadRequest, "%v", err)
				return
			}
			if w := sess.stream(id); w != nil {
				w.credit(uint64(n))
			}
			continue
		case wire.FrameCancel:
			id, err := wire.StreamFrameID(payload)
			if err != nil {
				sess.protocolError(0, wire.CodeBadRequest, "%v", err)
				return
			}
			if w := sess.stream(id); w != nil {
				w.cancelReq()
			}
			continue
		case wire.FramePublish:
			id, pubID, rel, rows, err := wire.DecodePublishPayload(payload)
			if err != nil {
				if id, iderr := wire.StreamFrameID(payload); iderr == nil {
					// The frame was read whole, so framing is intact:
					// fail only this request.
					sess.writeResponse(&wire.Response{ID: id, Error: wire.Errorf(wire.CodeBadRequest, "%v", err)})
					continue
				}
				sess.protocolError(0, wire.CodeBadRequest, "%v", err)
				return
			}
			req = wire.Request{ID: id, Op: wire.OpPublish, Publish: &wire.PublishRequest{Relation: rel, PublishID: pubID, TypedRows: rows}}
		case wire.FrameJSON:
			if err := wire.UnmarshalJSONFrame(payload, &req); err != nil {
				sess.protocolError(0, wire.CodeBadRequest, "malformed request: %v", err)
				return
			}
		default:
			sess.protocolError(0, wire.CodeBadRequest, "unexpected %v frame from client", kind)
			return
		}
		s.reqsInFlight.Add(1)
		reqCh <- req // backpressure: stop reading when the pump is saturated
	}
}

// readError ends the session after a failed frame read, telling the peer
// why when the cause is the frame itself rather than the connection.
func (sess *session) readError(err error) {
	var fse *wire.FrameSizeError
	switch {
	case errors.As(err, &fse):
		sess.protocolError(0, wire.CodeFrameTooLarge, "%v", err)
	case errors.Is(err, wire.ErrEmptyFrame):
		sess.protocolError(0, wire.CodeBadRequest, "%v", err)
	case !errors.Is(err, net.ErrClosed) && !isEOF(err):
		sess.srv.cfg.Logf("server: %s: read: %v", sess.conn.RemoteAddr(), err)
	}
}

// handshake reads the mandatory hello request and checks the protocol
// version. Anything else as the first frame, or another version, is
// refused with a typed bad_request and the connection closed (false).
func (s *Server) handshake(sess *session) bool {
	kind, payload, err := wire.ReadRawFrame(sess.br, frameCap.Load())
	start := time.Now()
	if err != nil {
		sess.readError(err)
		return false
	}
	var req wire.Request
	if kind == wire.FrameJSON {
		err = wire.UnmarshalJSONFrame(payload, &req)
	}
	switch {
	case kind != wire.FrameJSON || err != nil || req.Op != wire.OpHello || req.Hello == nil:
		sess.protocolError(req.ID, wire.CodeBadRequest, "first frame must be a hello request")
	case req.Hello.Version != wire.ProtocolVersion:
		sess.protocolError(req.ID, wire.CodeBadRequest, "protocol version %d, server speaks %d", req.Hello.Version, wire.ProtocolVersion)
	default:
		// Counted before the response is on the wire, as a query is before
		// its End frame: a peer that has read it finds it in the stats.
		s.observeOp(wire.OpHello, time.Since(start), false)
		if sess.writeResponse(&wire.Response{ID: req.ID, Hello: &wire.HelloResponse{Version: wire.ProtocolVersion}}) != nil {
			s.ops[wire.OpHello].errors.Inc()
			return false
		}
		return true
	}
	s.observeOp(wire.OpHello, time.Since(start), true)
	return false
}

// dispatchStream answers one query request with its result stream:
// Schema, Batch*, End — with errors carried in the End frame.
func (s *Server) dispatchStream(sess *session, req *wire.Request) {
	start := time.Now()
	q := req.Query
	if q == nil {
		q = &wire.QueryRequest{} // refused below; its End frame still needs a writer
	}
	timeout := s.cfg.RequestTimeout
	if d := time.Duration(q.TimeoutMs) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	ctx, cancel := context.WithTimeout(sess.ctx, timeout)
	defer cancel()
	w := newStreamWriter(ctx, sess, req.ID)
	w.cancelFn = cancel // a FrameCancel aborts the query context
	w.onFirst = func() { s.firstBatch.Observe(time.Since(start)) }
	// account counts the op from end()'s beforeEnd hook — before the End
	// frame hits the wire — so a client that reads End and then asks for
	// status always finds its query counted.
	countedOK := false
	account := func(failed bool) {
		countedOK = !failed
		s.observeOp(wire.OpQuery, time.Since(start), failed)
	}
	// refuse ends a stream that never registered or executed.
	refuse := func(code, format string, args ...any) {
		w.end(&wire.StreamEnd{Error: wire.Errorf(code, format, args...)}, account)
	}
	switch {
	case req.Query == nil:
		refuse(wire.CodeBadRequest, "query payload missing")
		return
	case s.draining.Load():
		// Refused before any execution: the client may re-route freely.
		refuse(wire.CodeUnavailable, "server draining")
		return
	case !sess.registerStream(req.ID, w):
		refuse(wire.CodeBadRequest, "stream id %d already active on this connection", req.ID)
		return
	}
	// Unregistered by the same hook, so a client reacting to End by reusing
	// the ID on its next pipelined query cannot race the cleanup; the defer
	// only covers error exits (dropStream is idempotent).
	defer sess.dropStream(req.ID, w)
	drop := func(failed bool) {
		sess.dropStream(req.ID, w)
		account(failed)
	}

	tail, err := s.runQuery(ctx, q, w)
	if err == nil && tail.Streamed > 0 {
		s.streamedQueries.Inc()
		s.streamedRows.Add(uint64(tail.Streamed))
	}
	if err != nil {
		if w.cancelled.Load() {
			// The client abandoned the stream; whatever the aborted
			// execution reported, the terminal status is "cancelled".
			tail = &wire.StreamEnd{Error: wire.Errorf(wire.CodeCancelled, "stream cancelled by client")}
		} else {
			tail = &wire.StreamEnd{Error: toWireError(ctx, err)}
		}
	}
	if werr := w.end(tail, drop); werr != nil {
		if countedOK {
			// Counted as a success before the End write itself failed.
			s.ops[wire.OpQuery].errors.Inc()
		}
		if !errors.Is(werr, net.ErrClosed) {
			// The tail itself would not encode (e.g. a plan or error
			// message past the frame cap): a stream must never end
			// without its End frame, so degrade to a minimal error End —
			// and sever the connection if even that cannot be sent,
			// rather than leave the client waiting forever.
			code := wire.CodeInternal
			var fse *wire.FrameSizeError
			if errors.As(werr, &fse) {
				code = wire.CodeFrameTooLarge
			}
			fallback := &wire.StreamEnd{Error: wire.Errorf(code, "encode stream end: frame limit exceeded")}
			if werr2 := w.end(fallback, nil); werr2 != nil {
				sess.conn.Close()
			}
		}
	}
}

// acquireAdmission passes the admission-control semaphore and accounts
// the in-flight query; the returned release is idempotent.
func (s *Server) acquireAdmission(ctx context.Context) (func(), error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, wire.Errorf(wire.CodeTimeout, "admission wait: %v", ctx.Err())
	}
	n := s.inFlight.Add(1)
	for {
		peak := s.peakFlight.Load()
		if n <= peak || s.peakFlight.CompareAndSwap(peak, n) {
			break
		}
	}
	if s.cfg.OnQueryStart != nil {
		s.cfg.OnQueryStart()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			s.inFlight.Add(-1)
			<-s.sem
		})
	}, nil
}

// runQuery passes admission control, then executes the query against the
// backend, which emits the answer through out. The wait is bounded by the
// request context, so an overloaded server times out queued queries
// instead of letting them pile up forever.
//
// The admission slot is held until the backend returns: result frames
// flow *during* execution for plans that stream, so the slot covers
// execution plus emission; the credit window already bounds how long a
// slow reader can stretch that (the request timeout severs stalled
// streams).
func (s *Server) runQuery(ctx context.Context, q *wire.QueryRequest, out *streamWriter) (*wire.StreamEnd, error) {
	release, err := s.acquireAdmission(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	// Trace every query while the slow-query log is on, so a logged entry
	// has its span tree; the tree is stripped again below unless the
	// client asked for it.
	forced := !q.Trace && s.slow.enabled()
	q.Trace = q.Trace || forced
	start := time.Now()
	tail, err := s.backend.QueryStream(ctx, q, out)
	if err == nil && tail.Trace != nil && out.writeCalls > 0 {
		tail.Trace.Children = append(tail.Trace.Children, &obs.Span{
			Name:    "stream.write",
			StartUs: out.writeStart.Sub(start).Microseconds(),
			DurUs:   out.writeDur.Microseconds(),
			Rows:    out.RowsStaged(),
			Batches: out.writeCalls,
		})
	}
	if d := time.Since(start); s.slow.qualifies(d) {
		e := wire.SlowQuery{SQL: q.SQL, DurUs: d.Microseconds(), StartUnixMs: start.UnixMilli(), Rows: out.RowsStaged()}
		if err != nil {
			e.Error = err.Error()
		} else {
			e.TraceID, e.Trace = tail.TraceID, tail.Trace
		}
		s.slow.record(e)
	}
	if err != nil {
		return nil, err
	}
	if forced {
		tail.Trace, tail.TraceID = nil, ""
	}
	return &wire.StreamEnd{QueryTail: *tail}, nil
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// dispatch executes one request and accounts it.
func (s *Server) dispatch(req *wire.Request) *wire.Response {
	op := req.Op
	start := time.Now()
	resp := &wire.Response{ID: req.ID}
	if s.ops[op] == nil {
		resp.Error = wire.Errorf(wire.CodeBadRequest, "unknown op %q", op)
		return resp
	}
	if s.draining.Load() && (op == wire.OpPublish || op == wire.OpCreate) {
		// Refused before any execution — a proof of non-execution the
		// client may act on by re-routing to another endpoint.
		resp.Error = wire.Errorf(wire.CodeUnavailable, "server draining")
		s.observeOp(op, time.Since(start), true)
		return resp
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	err := s.handle(ctx, req, resp)
	if err != nil {
		resp.Error = toWireError(ctx, err)
	}
	s.observeOp(op, time.Since(start), resp.Error != nil)
	return resp
}

func (s *Server) handle(ctx context.Context, req *wire.Request, resp *wire.Response) error {
	switch req.Op {
	case wire.OpPing:
		resp.Epoch = uint64(s.backend.Epoch())
		return nil
	case wire.OpCreate:
		if req.Create == nil {
			return wire.Errorf(wire.CodeBadRequest, "create payload missing")
		}
		e, err := s.backend.Create(ctx, req.Create)
		if err != nil {
			return err
		}
		resp.Epoch = uint64(e)
		return nil
	case wire.OpPublish:
		if req.Publish == nil {
			return wire.Errorf(wire.CodeBadRequest, "a publish travels as a publish frame, not a JSON request")
		}
		e, err := s.backend.Publish(ctx, req.Publish)
		if err != nil {
			return err
		}
		resp.Epoch = uint64(e)
		return nil
	case wire.OpSchema:
		rel := ""
		if req.Schema != nil {
			rel = req.Schema.Relation
		}
		sr, err := s.backend.Catalog(ctx, rel)
		if err != nil {
			return err
		}
		resp.Schema = sr
		return nil
	case wire.OpStatus:
		resp.Status = s.status()
		return nil
	case wire.OpHealth:
		resp.Health = s.health()
		return nil
	case wire.OpTrace:
		entries, dropped := s.slow.snapshot(true)
		resp.Trace = &wire.TraceResponse{
			ThresholdMs: max(s.slow.threshold.Milliseconds(), 0),
			Dropped:     dropped,
			Entries:     entries,
		}
		return nil
	}
	return wire.Errorf(wire.CodeBadRequest, "op %q is not valid here", req.Op) // a second hello
}

// peers returns the deployment's advertised client endpoints.
func (s *Server) peers() []string {
	if s.cfg.Peers != nil {
		return s.cfg.Peers()
	}
	return nil
}

// health answers the health op: drain state, load, and the member list.
func (s *Server) health() *wire.HealthResponse {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	return &wire.HealthResponse{
		Status:        status,
		InFlight:      s.inFlight.Load(),
		MaxConcurrent: s.cfg.MaxConcurrentQueries,
		Connections:   s.conns.Load(),
		Peers:         s.peers(),
	}
}

func (s *Server) status() *wire.StatusResponse {
	info := s.backend.Info()
	st := &wire.StatusResponse{
		NodeID:               info.NodeID,
		Members:              info.Members,
		Peers:                s.peers(),
		Epoch:                uint64(s.backend.Epoch()),
		UptimeMs:             time.Since(s.start).Milliseconds(),
		Connections:          s.conns.Load(),
		TotalConnections:     s.totalConns.Load(),
		InFlightQueries:      s.inFlight.Load(),
		PeakInFlightQueries:  s.peakFlight.Load(),
		MaxConcurrentQueries: s.cfg.MaxConcurrentQueries,
		Ops:                  make(map[string]wire.OpCounters, len(s.ops)),
	}
	for op, m := range s.ops {
		snap := m.hist.Snapshot()
		st.Ops[op] = wire.OpCounters{
			Count:   snap.Count,
			Errors:  m.errors.Load(),
			TotalUs: snap.SumUs,
			MaxUs:   snap.MaxUs,
			P50Us:   snap.Quantile(0.50),
			P95Us:   snap.Quantile(0.95),
			P99Us:   snap.Quantile(0.99),
		}
	}
	st.Caches = s.backend.CacheStats()
	if d, ok := s.backend.DurabilityStats(); ok {
		st.Durability = &d
	}
	if r, ok := s.backend.ReplStats(); ok {
		st.Replication = &r
	}
	if n, snap := s.streamedQueries.Load(), s.firstBatch.Snapshot(); n > 0 || snap.Count > 0 {
		st.Streams = &wire.StreamStats{
			Queries:         n,
			Rows:            s.streamedRows.Load(),
			FirstBatchP50Us: snap.Quantile(0.50),
			FirstBatchP95Us: snap.Quantile(0.95),
			FirstBatchP99Us: snap.Quantile(0.99),
			FirstBatchMaxUs: snap.MaxUs,
		}
	}
	st.SlowQueries, _ = s.slow.snapshot(false)
	return st
}

// Stats snapshots the server's own counters (the status op, server-side).
func (s *Server) Stats() *wire.StatusResponse { return s.status() }

// toWireError maps backend errors onto wire codes, preserving codes that
// are already typed.
func toWireError(ctx context.Context, err error) *wire.Error {
	var we *wire.Error
	if errors.As(err, &we) {
		return we
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return wire.Errorf(wire.CodeTimeout, "%v", err)
	}
	return wire.Errorf(wire.CodeInternal, "%v", err)
}
