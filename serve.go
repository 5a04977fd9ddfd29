package orchestra

import (
	"context"
	"time"

	"orchestra/internal/server"
	"orchestra/internal/wire"
)

// ServeOptions tunes a served endpoint; the zero value is sensible. The
// frame cap, a stream's credit window and the batch cut are constants of
// the wire protocol, and a request's server-side time is capped at 30 s
// (a query may ask for less), so none of them is an option.
type ServeOptions struct {
	// Node is the cluster node index that initiates the served work
	// (default 0). Serving each node on its own address turns an
	// embedded cluster into a multi-endpoint deployment for clients to
	// spread load across.
	Node int
	// MaxConcurrentQueries bounds query executions in flight on this
	// endpoint — the admission-control semaphore (default 2×GOMAXPROCS).
	MaxConcurrentQueries int
	// OnQueryStart, when set, runs at the start of every query execution
	// while its admission slot is held (instrumentation hook).
	OnQueryStart func()
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
func (s *Server) Stats() *wire.StatusResponse { return s.s.Stats() }

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

// Serve exposes node opts.Node's backend at addr (TCP, ":0" picks a free
// port) over the wire protocol: create, publish, query (with epoch
// pinning, recovery mode, provenance), schema/catalog, and status/stats —
// exactly what an orchestra-node process serves. Each connection is a
// session served by its own goroutine; query executions pass an
// admission-control semaphore. Call Serve once per node index to give
// every node its own endpoint.
func (c *Cluster) Serve(addr string, opts ServeOptions) (*Server, error) {
	b, err := c.backend(opts.Node)
	if err != nil {
		return nil, err
	}
	s, err := server.Start(addr, b, server.Config{
		MaxConcurrentQueries: opts.MaxConcurrentQueries,
		OnQueryStart:         opts.OnQueryStart,
		SlowQueryThreshold:   opts.SlowQueryThreshold,
		// Every endpoint served off this cluster advertises the whole
		// set (plus any static extras), so one reachable endpoint
		// teaches a client the others.
		Peers: func() []string { return server.MergePeers(c.servedPeers(), opts.Peers) },
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
// served off this cluster.
func (c *Cluster) servedPeers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.served))
	for _, addr := range c.served {
		out = append(out, addr)
	}
	return out
}
