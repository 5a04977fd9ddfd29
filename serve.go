package orchestra

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"orchestra/internal/cluster"
	"orchestra/internal/kvstore"
	"orchestra/internal/server"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
)

// ServeOptions tunes a served endpoint; the zero value is sensible.
type ServeOptions struct {
	// Node is the cluster node index that initiates the served work
	// (default 0). Serving each node on its own address turns an
	// embedded cluster into a multi-endpoint deployment for clients to
	// spread load across.
	Node int
	// MaxConcurrentQueries bounds query executions in flight on this
	// endpoint — the admission-control semaphore (default 2×GOMAXPROCS).
	MaxConcurrentQueries int
	// RequestTimeout caps any single request's server-side time,
	// including admission wait (default 30s).
	RequestTimeout time.Duration
	// OnQueryStart, when set, runs at the start of every query execution
	// while its admission slot is held (instrumentation hook).
	OnQueryStart func()
	// MaxFrame bounds a single wire frame (default server.MaxFrame);
	// results are bounded per batch frame, not as a whole.
	MaxFrame int64
	// StreamWindow is the per-stream credit window offered to streaming
	// clients, in batch frames (default server.DefaultStreamWindow).
	StreamWindow int
	// StreamCompressMin sets the raw batch size at which streamed batches
	// are flate-compressed (0 = default 4 KiB, negative = never).
	StreamCompressMin int
	// SlowQueryThreshold sets the endpoint's slow-query log threshold:
	// queries at or above it are recorded with their span trees,
	// retrievable via the status and trace ops (0 = the server's 250ms
	// default; negative disables the log).
	SlowQueryThreshold time.Duration
	// OpsAddr, when non-empty, additionally serves the ops HTTP
	// endpoints on that address: /metrics (Prometheus text format),
	// /debug/vars, and /debug/pprof.
	OpsAddr string
	// Advertise overrides the address this endpoint publishes in the
	// cluster's member list (health/status peers). Defaults to the
	// actual listen address; set it when clients reach the endpoint
	// through a different address (a proxy, NAT, or ":0" listeners).
	Advertise string
	// Peers lists additional endpoint addresses to advertise alongside
	// those served off this cluster in-process — for multi-process
	// deployments where each process serves one endpoint but the member
	// list must name them all.
	Peers []string
}

// Server is a wire-protocol endpoint serving this cluster; see
// Cluster.Serve. Clients connect with the orchestra/client package.
type Server struct {
	s       *server.Server
	c       *Cluster
	opsAddr string
}

// Addr returns the endpoint's listen address (useful with ":0").
func (s *Server) Addr() string { return s.s.Addr().String() }

// Close stops the endpoint and severs its sessions.
func (s *Server) Close() error {
	s.c.dropServed(s)
	return s.s.Close()
}

// Shutdown drains the endpoint gracefully: it leaves the cluster's
// advertised member list, stops accepting connections, refuses new
// queries and publishes with the retryable "unavailable" code, answers
// health checks with "draining" so smart clients steer away, and waits
// for in-flight requests to finish. If ctx expires first the remaining
// sessions are severed as by Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.c.dropServed(s)
	return s.s.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.s.Draining() }

// Stats snapshots the endpoint's request/latency/error counters.
func (s *Server) Stats() *server.StatusResponse { return s.s.Stats() }

// OpsAddr returns the ops HTTP listener's address ("" when none).
func (s *Server) OpsAddr() string { return s.opsAddr }

// ServeOps starts an ops HTTP listener (see ServeOptions.OpsAddr) on an
// already-serving endpoint and returns its bound address.
func (s *Server) ServeOps(addr string) (string, error) {
	a, err := s.s.ServeOps(addr)
	if err != nil {
		return "", err
	}
	s.opsAddr = a.String()
	return s.opsAddr, nil
}

// Serve exposes the cluster at addr (TCP, ":0" picks a free port) over
// the wire protocol: create, publish, query (with epoch pinning,
// recovery mode, provenance), schema/catalog, and status/stats. Each connection is a session served by its own
// goroutine; query executions pass an admission-control semaphore. Call
// Serve once per node index to give every node its own endpoint.
func (c *Cluster) Serve(addr string, opts ServeOptions) (*Server, error) {
	if opts.Node < 0 || opts.Node >= len(c.engines) {
		return nil, fmt.Errorf("orchestra: no node %d", opts.Node)
	}
	s, err := server.Start(addr, &clusterBackend{c: c, node: opts.Node}, server.Config{
		MaxConcurrentQueries: opts.MaxConcurrentQueries,
		RequestTimeout:       opts.RequestTimeout,
		OnQueryStart:         opts.OnQueryStart,
		MaxFrame:             opts.MaxFrame,
		StreamWindow:         opts.StreamWindow,
		StreamCompressMin:    opts.StreamCompressMin,
		SlowQueryThreshold:   opts.SlowQueryThreshold,
		// Every endpoint served off this cluster advertises the whole
		// set (plus any static extras), so one reachable endpoint
		// teaches a client the others.
		Peers: func() []string { return mergePeers(c.servedPeers(), opts.Peers) },
		// Durable clusters export the node's WAL/fsync/snapshot metrics
		// through this endpoint's /metrics; nil makes the server allocate
		// its own registry.
		Registry: c.nodeRegistry(opts.Node),
	})
	if err != nil {
		return nil, err
	}
	srv := &Server{s: s, c: c}
	advertise := opts.Advertise
	if advertise == "" {
		advertise = s.Addr().String()
	}
	c.addServed(srv, advertise)
	if opts.OpsAddr != "" {
		if _, err := srv.ServeOps(opts.OpsAddr); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// addServed registers a served endpoint's advertised address in the
// cluster's member list.
func (c *Cluster) addServed(s *Server, advertise string) {
	c.mu.Lock()
	if c.served == nil {
		c.served = make(map[*Server]string)
	}
	c.served[s] = advertise
	c.mu.Unlock()
}

// dropServed removes an endpoint from the member list (close/drain).
func (c *Cluster) dropServed(s *Server) {
	c.mu.Lock()
	delete(c.served, s)
	c.mu.Unlock()
}

// servedPeers lists the advertised addresses of every live endpoint
// served off this cluster, sorted for stable output.
func (c *Cluster) servedPeers() []string {
	c.mu.Lock()
	out := make([]string, 0, len(c.served))
	for _, addr := range c.served {
		out = append(out, addr)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// mergePeers unions two advertised-address lists, dropping blanks and
// duplicates, sorted for stable output.
func mergePeers(a, b []string) []string {
	seen := make(map[string]struct{}, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, s := range append(a, b...) {
		if s == "" {
			continue
		}
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// clusterBackend adapts a Cluster to the server.Backend interface.
type clusterBackend struct {
	c    *Cluster
	node int
}

// wireQueryError types untyped embedded-query failures for the wire:
// SQL parse errors are the client's fault, not the server's.
func wireQueryError(err error) error {
	var se *sql.Error
	if errors.As(err, &se) {
		return server.Errorf(server.CodeBadRequest, "%v", err)
	}
	return err
}

func (b *clusterBackend) Create(ctx context.Context, req *server.CreateRequest) (tuple.Epoch, error) {
	def := NewSchema(req.Relation, req.Columns...)
	if len(req.Keys) > 0 {
		def.Key(req.Keys...)
	}
	if err := b.c.CreateRelation(def); err != nil {
		return 0, server.Errorf(server.CodeBadRequest, "%v", err)
	}
	return b.c.CurrentEpoch(), nil
}

func (b *clusterBackend) Publish(ctx context.Context, req *server.PublishRequest) (tuple.Epoch, error) {
	s, ok := b.c.Schema(req.Relation)
	if !ok {
		return 0, server.Errorf(server.CodeNotFound, "unknown relation %q", req.Relation)
	}
	if err := server.CoerceTypedRows(s, req.TypedRows); err != nil {
		return 0, err
	}
	return b.c.PublishTypedID(b.node, req.Relation, req.TypedRows, req.PublishID)
}

// QueryStream implements server.Backend: the embedded query path with
// out as its sink.
func (b *clusterBackend) QueryStream(ctx context.Context, req *server.QueryRequest, out server.ResultStream) (*server.QueryTail, error) {
	rec, err := server.RecoveryMode(req.Recovery)
	if err != nil {
		return nil, err
	}
	opts := QueryOptions{
		Node:       b.node,
		Epoch:      Epoch(req.Epoch),
		Recovery:   rec,
		Provenance: req.Provenance,
		Trace:      req.Trace,
		sink:       out,
	}
	if dl, ok := ctx.Deadline(); ok {
		if opts.Timeout = time.Until(dl); opts.Timeout <= 0 {
			// Don't let an expired budget fall through to QueryOpts'
			// 5-minute default while holding an admission slot.
			return nil, server.Errorf(server.CodeTimeout, "request deadline expired before execution")
		}
	}
	res, err := b.c.QueryOpts(req.SQL, opts)
	if err != nil {
		return nil, wireQueryError(err)
	}
	tail := &server.QueryTail{
		Epoch:    uint64(res.Epoch),
		Cached:   res.Cached,
		Phases:   res.Phases,
		Restarts: res.Restarts,
		TraceID:  res.TraceID,
		Trace:    res.Trace,
		Streamed: res.Streamed,
	}
	if req.Explain {
		tail.Plan = res.Plan
	}
	return tail, nil
}

func (b *clusterBackend) Catalog(ctx context.Context, rel string) (*server.SchemaResponse, error) {
	names := b.c.Relations()
	if rel != "" {
		if _, ok := b.c.Schema(rel); !ok {
			return nil, server.Errorf(server.CodeNotFound, "unknown relation %q", rel)
		}
		names = []string{rel}
	}
	out := &server.SchemaResponse{}
	for _, name := range names {
		s, ok := b.c.Schema(name)
		if !ok {
			continue
		}
		cols, keys := server.FormatColumns(s)
		out.Relations = append(out.Relations, server.RelationInfo{
			Relation: name,
			Columns:  cols,
			Keys:     keys,
			Rows:     b.c.RowCount(name),
		})
	}
	return out, nil
}

func (b *clusterBackend) Epoch() tuple.Epoch { return b.c.CurrentEpoch() }

// CacheStats implements server.Backend: the shared view cache plus this
// node's decoded-page LRU.
func (b *clusterBackend) CacheStats() map[string]CacheStats {
	return b.c.CacheStats(b.node)
}

// DurabilityStats implements server.Backend.
func (b *clusterBackend) DurabilityStats() (kvstore.DurabilityStats, bool) {
	return b.c.DurabilityStats(b.node)
}

// ReplStats implements server.Backend: the serving node's replica-repair
// counters and catch-up lag.
func (b *clusterBackend) ReplStats() (cluster.ReplStats, bool) {
	return b.c.ReplStats(b.node), b.c.Size() > 1
}

func (b *clusterBackend) Info() server.BackendInfo {
	return server.BackendInfo{NodeID: b.c.NodeID(b.node), Members: b.c.liveNodes()}
}
