package client

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/wire"
)

// newPublishID draws a random nonzero publish idempotency token.
func newPublishID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return mrand.Uint64() | 1
	}
	if id := binary.BigEndian.Uint64(b[:]); id != 0 {
		return id
	}
	return 1
}

// RetryPolicy governs automatic retry of failed calls. Retries target a
// different endpoint than the failed attempt when the member list has
// one, with capped exponential backoff and jitter between attempts.
//
// What retries is decided per failure, not per policy: an endpoint that
// could not be dialed, or that refused with the server's "unavailable"
// code (a proof the request never executed — servers answer it while
// draining), is always safe to retry, any operation included. A
// transport failure after the request may have reached the server
// retries only when re-execution is provably harmless: reads (query,
// schema, status, health, traces), and publishes, which the deployment
// deduplicates by their publish ID — but not creates. Server-side errors
// other than "unavailable" (bad request, not found, timeout, internal)
// never retry — the server decided, re-asking won't change the answer.
type RetryPolicy struct {
	// MaxAttempts caps total attempts per call, first try included
	// (default 3; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it (default 25ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (default 1s).
	MaxBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction of its value,
	// decorrelating retry storms (default 0.2; negative disables).
	Jitter float64
}

// normalized fills policy defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = max(time.Second, p.BaseBackoff)
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	return p
}

// backoff computes the delay before retry number n (0-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseBackoff << n
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		f := 1 + p.Jitter*(2*mrand.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Counters are the client's cumulative failover statistics. Snapshot
// with Client.Counters; useful for load tools and tests asserting that
// fault tolerance actually engaged.
type Counters struct {
	// Attempts counts individual call attempts (retries included).
	Attempts uint64 `json:"attempts"`
	// Retries counts attempts beyond the first.
	Retries uint64 `json:"retries"`
	// Failovers counts retries that switched to a different endpoint.
	Failovers uint64 `json:"failovers"`
	// DialErrors counts failed connection attempts.
	DialErrors uint64 `json:"dial_errors"`
	// Refreshes counts membership refreshes that completed.
	Refreshes uint64 `json:"membership_refreshes"`
}

type counters struct {
	attempts   atomic.Uint64
	retries    atomic.Uint64
	failovers  atomic.Uint64
	dialErrors atomic.Uint64
	refreshes  atomic.Uint64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Attempts:   c.attempts.Load(),
		Retries:    c.retries.Load(),
		Failovers:  c.failovers.Load(),
		DialErrors: c.dialErrors.Load(),
		Refreshes:  c.refreshes.Load(),
	}
}

// Endpoint cooldown after a failure: doubles per consecutive failure.
const (
	epDownBase = 200 * time.Millisecond
	epDownMax  = 5 * time.Second
)

// endpoint is one cluster member: its address, its idle-connection
// pool, and its health bookkeeping.
type endpoint struct {
	addr string

	mu        sync.Mutex
	idle      []*wireConn
	fails     int       // consecutive failures
	downUntil time.Time // cooled down until then after failures
}

func (e *endpoint) isDown(now time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return now.Before(e.downUntil)
}

// markDown records a failure: the endpoint is skipped by selection for
// a cooldown that doubles with consecutive failures, and its idle
// connections (sharing the likely-broken path) are dropped.
func (e *endpoint) markDown() {
	e.mu.Lock()
	d := epDownBase << min(e.fails, 10)
	if d <= 0 || d > epDownMax {
		d = epDownMax
	}
	e.fails++
	e.downUntil = time.Now().Add(d)
	idle := e.idle
	e.idle = nil
	e.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
}

// markUp clears failure state after a successful exchange.
func (e *endpoint) markUp() {
	e.mu.Lock()
	e.fails = 0
	e.downUntil = time.Time{}
	e.mu.Unlock()
}

func (e *endpoint) drop() {
	e.mu.Lock()
	idle := e.idle
	e.idle = nil
	e.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
}

// pickEndpoint selects the endpoint for the next attempt, rotating
// round-robin across members and skipping cooled-down ones and (when
// possible) the endpoint the previous attempt failed on. When every
// candidate is down the first down one in rotation is tried anyway —
// with the whole cluster unreachable, cooldowns must not turn into
// instant failures.
func (c *Client) pickEndpoint(avoid string) *endpoint {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.eps)
	if n == 0 {
		return nil
	}
	start := int(c.rr.Add(1)-1) % n
	var down, avoided *endpoint
	for i := 0; i < n; i++ {
		e := c.eps[(start+i)%n]
		if e.addr == avoid {
			avoided = e
			continue
		}
		if e.isDown(now) {
			if down == nil {
				down = e
			}
			continue
		}
		return e
	}
	if down != nil {
		return down
	}
	return avoided
}

// acquire returns a connection to a healthy endpoint, failing over
// across members on dial errors. avoid is the endpoint the previous
// attempt failed on ("" for none).
func (c *Client) acquire(avoid string) (*wireConn, error) {
	c.maybeRefresh()
	var lastErr error
	tried := make(map[string]bool)
	for {
		ep := c.pickEndpoint(avoid)
		if ep == nil || tried[ep.addr] {
			break
		}
		tried[ep.addr] = true
		conn, err := c.acquireOn(ep)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		avoid = "" // widen: any untried endpoint beats failing the call
	}
	if lastErr == nil {
		lastErr = errors.New("orchestra client: no endpoints")
	}
	return nil, lastErr
}

// acquireOn checks a connection out of ep's pool, dialing when the pool
// is empty. Dial failures cool the endpoint down and trigger a
// membership refresh.
func (c *Client) acquireOn(ep *endpoint) (*wireConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("orchestra client: closed")
	}
	c.mu.Unlock()
	ep.mu.Lock()
	if n := len(ep.idle); n > 0 {
		conn := ep.idle[n-1]
		ep.idle = ep.idle[:n-1]
		ep.mu.Unlock()
		return conn, nil
	}
	ep.mu.Unlock()
	conn, err := c.dial(ep)
	if err != nil {
		c.ctr.dialErrors.Add(1)
		ep.markDown()
		c.refreshAsync()
		return nil, err
	}
	return conn, nil
}

// release returns a clean connection to its endpoint's pool.
func (c *Client) release(conn *wireConn) {
	ep := conn.ep
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	ep.mu.Lock()
	if !closed && len(ep.idle) < c.opts.PoolSize {
		ep.idle = append(ep.idle, conn)
		ep.mu.Unlock()
		return
	}
	ep.mu.Unlock()
	conn.Close()
}

// discard closes a connection that must not be reused (frames in
// flight, failed exchange).
func (c *Client) discard(conn *wireConn) {
	conn.Close()
}

// Members returns the client's current view of the cluster's client
// endpoints (the seed addresses plus whatever membership refreshes
// discovered).
func (c *Client) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.eps))
	for i, e := range c.eps {
		out[i] = e.addr
	}
	return out
}

// Counters returns a snapshot of the client's failover statistics.
func (c *Client) Counters() Counters { return c.ctr.snapshot() }

// maybeRefresh starts a background membership refresh when the last one
// is older than Options.RefreshInterval.
func (c *Client) maybeRefresh() {
	if c.opts.RefreshInterval < 0 {
		return
	}
	c.mu.Lock()
	stale := time.Since(c.lastRefresh) >= c.opts.RefreshInterval
	c.mu.Unlock()
	if stale {
		c.refreshAsync()
	}
}

// refreshAsync refreshes the member list in the background, at most one
// refresh in flight.
func (c *Client) refreshAsync() {
	if c.opts.RefreshInterval < 0 {
		return
	}
	if !c.refreshing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.refreshing.Store(false)
		c.refreshMembers()
	}()
}

// refreshMembers asks one reachable endpoint for the cluster's member
// list (the health op) and adopts the answer.
func (c *Client) refreshMembers() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.lastRefresh = time.Now()
	eps := append([]*endpoint(nil), c.eps...)
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.DialTimeout)
	defer cancel()
	for _, ep := range eps {
		if ep.isDown(time.Now()) {
			continue
		}
		peers, err := c.peersOf(ctx, ep)
		if err != nil {
			continue
		}
		if c.adoptPeers(peers) {
			c.ctr.refreshes.Add(1)
		}
		return
	}
}

// peersOf performs one health round trip against ep and returns the
// advertised member list.
func (c *Client) peersOf(ctx context.Context, ep *endpoint) ([]string, error) {
	conn, err := c.acquireOn(ep)
	if err != nil {
		return nil, err
	}
	resp, _, err := c.roundTripOn(ctx, conn, &wire.Request{Op: wire.OpHealth})
	if err != nil {
		return nil, err
	}
	if resp.Health == nil {
		return nil, nil
	}
	return resp.Health.Peers, nil
}

// adoptPeers reconciles the member list with an advertised one: new
// endpoints join, endpoints gone from the advertisement leave (their
// pools close), seeds always stay. An empty advertisement is a no-op —
// a backend that doesn't know its peers must not shrink the list.
func (c *Client) adoptPeers(peers []string) bool {
	if len(peers) == 0 {
		return false
	}
	want := make(map[string]bool, len(peers)+len(c.seeds))
	for _, a := range peers {
		want[a] = true
	}
	for _, a := range c.seeds {
		want[a] = true
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	var dropped []*endpoint
	kept := c.eps[:0]
	for _, e := range c.eps {
		if want[e.addr] {
			kept = append(kept, e)
			delete(want, e.addr)
		} else {
			dropped = append(dropped, e)
		}
	}
	c.eps = kept
	for addr := range want {
		c.eps = append(c.eps, &endpoint{addr: addr})
	}
	c.mu.Unlock()
	for _, e := range dropped {
		e.drop()
	}
	return true
}

// HealthResponse is one endpoint's health snapshot.
type HealthResponse = wire.HealthResponse

// Health fetches one endpoint's health snapshot (status "ok" or
// "draining", load, and the advertised member list).
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	resp, _, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpHealth})
	if err != nil {
		return nil, err
	}
	if resp.Health == nil {
		return nil, fmt.Errorf("orchestra client: malformed response (no health payload)")
	}
	return resp.Health, nil
}

// retryable classifies a failed attempt. proofOfNonExecution reports a
// CodeUnavailable refusal (safe for any op); transport reports an I/O
// failure where the request may have executed (safe for idempotent ops
// only); anything else is terminal.
func classifyFailure(err error) (proofOfNonExecution, transport bool) {
	var we *Error
	if errors.As(err, &we) {
		return we.Code == wire.CodeUnavailable, false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, false
	}
	if errors.Is(err, ErrFrameTooLarge) {
		return false, false // deterministic; a retry hits the same wall
	}
	return false, true
}

// callMeta reports how a retried call played out, for surfacing in
// results.
type callMeta struct {
	attempts  int
	failovers int
	endpoint  string
}

// withRetry runs fn under the retry policy. fn receives a freshly
// acquired connection and owns it (release or discard through the
// usual paths). idempotent permits retry after transport failures.
func (c *Client) withRetry(ctx context.Context, idempotent bool, fn func(conn *wireConn) error) (callMeta, error) {
	pol := c.retry
	var meta callMeta
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.ctr.retries.Add(1)
			select {
			case <-time.After(pol.backoff(attempt - 1)):
			case <-ctx.Done():
				return meta, lastErr
			}
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("orchestra client: %w", err)
			}
			return meta, lastErr
		}
		conn, err := c.acquire(meta.endpoint)
		if err != nil {
			// Nothing reached any server: always safe to continue.
			meta.attempts++
			c.ctr.attempts.Add(1)
			lastErr = err
			continue
		}
		meta.attempts++
		c.ctr.attempts.Add(1)
		prev := meta.endpoint
		meta.endpoint = conn.ep.addr
		if attempt > 0 && prev != "" && prev != meta.endpoint {
			meta.failovers++
			c.ctr.failovers.Add(1)
		}
		err = fn(conn)
		if err == nil {
			conn.ep.markUp()
			return meta, nil
		}
		lastErr = err
		nonExec, transport := classifyFailure(err)
		switch {
		case nonExec:
			// Refused before execution (draining endpoint): cool it down
			// and re-route; every op is safe.
			conn.ep.markDown()
			c.refreshAsync()
		case transport:
			conn.ep.markDown()
			c.refreshAsync()
			if !idempotent {
				return meta, lastErr
			}
		default:
			// The server answered: retrying cannot change the outcome.
			return meta, lastErr
		}
	}
	return meta, lastErr
}
