// Package netfault is a fault-injecting TCP proxy for wire-level
// robustness tests. A Proxy fronts one backend address and forwards
// byte streams in both directions while injecting faults on command:
// connection resets, blackholes (connections stay open, bytes stop
// moving), fixed or jittered per-chunk delay, byte-truncation mid-frame
// (the connection dies partway through a length-prefixed frame), and
// listener flap (the proxy stops accepting, then comes back on the same
// address).
//
// Faults apply to live connections, not just new ones — flipping
// Blackhole on stalls transfers already in flight, which is what a real
// partition does to a real connection.
package netfault

import (
	"errors"
	"io"
	mrand "math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is one fault configuration; the zero value forwards cleanly.
type Faults struct {
	// Delay pauses each forwarded chunk (both directions) — fixed
	// latency injection.
	Delay time.Duration
	// Jitter adds a uniform random 0..Jitter on top of Delay.
	Jitter time.Duration
	// Blackhole swallows all bytes in both directions: connections stay
	// open and writable, nothing arrives. The classic partition.
	Blackhole bool
	// TruncateAfter, when > 0, hard-closes a connection (RST, no
	// graceful FIN) after it forwards that many more bytes — cutting a
	// wire frame in half. Counted per connection from the moment the
	// config is applied to it.
	TruncateAfter int64
}

// Stats are the proxy's cumulative counters.
type Stats struct {
	// Accepted counts client connections accepted.
	Accepted int64
	// Forwarded counts bytes forwarded (both directions summed).
	Forwarded int64
	// Resets counts connections severed by ResetAll or TruncateAfter.
	Resets int64
}

// Proxy is one fault-injecting TCP forwarder. Safe for concurrent use.
type Proxy struct {
	backend string
	faults  atomic.Pointer[Faults]

	accepted  atomic.Int64
	forwarded atomic.Int64
	resets    atomic.Int64

	mu     sync.Mutex
	addr   string // bound address, stable across Pause/Resume
	ln     net.Listener
	conns  map[*proxyConn]struct{}
	closed bool
}

// proxyConn is one proxied client connection pair.
type proxyConn struct {
	p        *Proxy
	client   net.Conn
	upstream net.Conn
	// budget is the remaining byte budget under TruncateAfter;
	// negative = unlimited. Shared by both directions.
	budget atomic.Int64
	once   sync.Once
}

// New starts a proxy listening on addr (":0" picks a port) and
// forwarding to backend. The backend is dialed per client connection,
// so it may come and go.
func New(addr, backend string) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		backend: backend,
		addr:    ln.Addr().String(),
		ln:      ln,
		conns:   make(map[*proxyConn]struct{}),
	}
	p.faults.Store(&Faults{})
	go p.acceptLoop(ln)
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial. It stays
// valid across Pause/Resume.
func (p *Proxy) Addr() string { return p.addr }

// Backend returns the address the proxy forwards to.
func (p *Proxy) Backend() string { return p.backend }

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:  p.accepted.Load(),
		Forwarded: p.forwarded.Load(),
		Resets:    p.resets.Load(),
	}
}

// SetFaults swaps the fault configuration. Delay/Blackhole apply to
// in-flight connections immediately; TruncateAfter re-arms every live
// connection's byte budget.
func (p *Proxy) SetFaults(f Faults) {
	cp := f
	p.faults.Store(&cp)
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.arm(&cp)
	}
}

// ResetAll severs every live proxied connection with an RST — the
// abrupt remote-reset failure mode. The listener keeps accepting.
func (p *Proxy) ResetAll() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.reset()
	}
}

// Pause flaps the listener down: new dials are refused. Live
// connections are untouched.
func (p *Proxy) Pause() {
	p.mu.Lock()
	ln := p.ln
	p.ln = nil
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// Resume flaps the listener back up on the same address.
func (p *Proxy) Resume() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("netfault: proxy closed")
	}
	if p.ln != nil {
		p.mu.Unlock()
		return nil
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.ln = ln
	p.mu.Unlock()
	go p.acceptLoop(ln)
	return nil
}

// Close stops the proxy and severs all connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	p.ln = nil
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.reset()
	}
	return nil
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	for {
		client, err := ln.Accept()
		if err != nil {
			return // listener closed (Pause or Close)
		}
		p.accepted.Add(1)
		go p.serve(client)
	}
}

func (p *Proxy) serve(client net.Conn) {
	upstream, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		client.Close()
		return
	}
	c := &proxyConn{p: p, client: client, upstream: upstream}
	c.arm(p.faults.Load())
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.reset()
		return
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.pump(client, upstream) }()
	go func() { defer wg.Done(); c.pump(upstream, client) }()
	wg.Wait()
	c.teardown()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// arm re-arms the connection's truncation budget for a new config.
func (c *proxyConn) arm(f *Faults) {
	if f.TruncateAfter > 0 {
		c.budget.Store(f.TruncateAfter)
	} else {
		c.budget.Store(-1)
	}
}

// reset severs both sides abruptly (RST where the OS allows it).
func (c *proxyConn) reset() {
	c.once.Do(func() { c.p.resets.Add(1) })
	abort(c.client)
	abort(c.upstream)
}

func (c *proxyConn) teardown() {
	c.client.Close()
	c.upstream.Close()
}

// abort closes a conn with linger 0 so the peer sees a reset, not a
// clean EOF — a crashed process, not a polite goodbye.
func abort(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// pump forwards src→dst, consulting the live fault config per chunk.
func (c *proxyConn) pump(src, dst net.Conn) {
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			f := c.p.faults.Load()
			if d := f.Delay; d > 0 || f.Jitter > 0 {
				if f.Jitter > 0 {
					d += time.Duration(mrand.Int64N(int64(f.Jitter) + 1))
				}
				time.Sleep(d)
			}
			// Re-load: faults may have flipped during the sleep.
			f = c.p.faults.Load()
			if f.Blackhole {
				continue // swallow; connection stays open
			}
			w := n
			truncate := false
			if budget := c.budget.Load(); budget >= 0 {
				if int64(w) >= budget {
					w = int(budget)
					truncate = true
				}
				c.budget.Add(int64(-w))
			}
			if w > 0 {
				if _, werr := dst.Write(buf[:w]); werr != nil {
					c.teardown()
					return
				}
				c.p.forwarded.Add(int64(w))
			}
			if truncate {
				c.reset() // mid-frame cut: peers see an abrupt reset
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				// One side died abruptly (reset, kill). Propagate: a
				// half-dead pair must not leave the surviving side
				// looking healthy — a real crashed peer resets its
				// connections, it does not silently blackhole them.
				c.teardown()
				return
			}
			// Half-close: propagate the FIN, keep the other direction.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}
