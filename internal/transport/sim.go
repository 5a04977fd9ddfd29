package transport

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"orchestra/internal/ring"
)

// Config controls the simulated network's behaviour. The zero value is an
// ideal network: no latency, unlimited bandwidth.
type Config struct {
	// Latency is the one-way delivery delay applied to every inter-node
	// message (the NetEm substitute of §VI-C).
	Latency time.Duration
	// BandwidthBps caps each node's outbound bytes/second (the HTB
	// substitute of §VI-C). 0 means unlimited.
	BandwidthBps int64
}

// Network is a simulated message fabric connecting endpoints in-process: the
// carrier under every endpoint it joins. Messages are really encoded by the
// layers above and accounted at their TCP frame size, so the byte counters
// reflect genuine wire sizes.
type Network struct {
	cfg Config

	mu    sync.Mutex
	nodes map[ring.NodeID]*simPort
	links map[linkKey]*link

	statsMu sync.Mutex
	stats   Stats
}

type linkKey struct{ from, to ring.NodeID }

// NewNetwork creates a simulated network.
func NewNetwork(cfg Config) *Network {
	n := &Network{
		cfg:   cfg,
		nodes: make(map[ring.NodeID]*simPort),
		links: make(map[linkKey]*link),
	}
	n.ResetStats()
	return n
}

// Join attaches a new endpoint with the given identity. A killed node's
// identity may be reused — the restart path of a crashed replica — which
// replaces its dead endpoint.
func (n *Network) Join(id ring.NodeID) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, exists := n.nodes[id]; exists && !old.ep.isClosed() {
		return nil, fmt.Errorf("transport: node %q already joined", id)
	}
	p := &simPort{net: n}
	p.ep = newEndpoint(id, p)
	n.nodes[id] = p
	return p.ep, nil
}

func (n *Network) port(id ring.NodeID) *simPort {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodes[id]
}

// Kill abruptly fails a node: its endpoint stops, messages in flight to and
// from it are dropped, and every other endpoint is told its link to the node
// is lost — the moral equivalent of all its TCP connections dropping (§V-A).
func (n *Network) Kill(id ring.NodeID) {
	p := n.port(id)
	if p == nil {
		return
	}
	p.ep.shutdown()
	n.mu.Lock()
	for key, l := range n.links {
		if key.from == id || key.to == id {
			delete(n.links, key)
			l.close()
		}
	}
	var peers []*simPort
	for pid, q := range n.nodes {
		if pid != id {
			peers = append(peers, q)
		}
	}
	n.mu.Unlock()
	for _, q := range peers {
		q.ep.peerDown(id)
	}
}

// Hang simulates a machine that stops making progress without dropping its
// connections: sends to it still succeed, but nothing is processed and no
// pings are answered. Only the background ping mechanism detects this state.
func (n *Network) Hang(id ring.NodeID) {
	if p := n.port(id); p != nil {
		p.ep.pause(true)
	}
}

// Unhang resumes a hung node.
func (n *Network) Unhang(id ring.NodeID) {
	if p := n.port(id); p != nil {
		p.ep.pause(false)
	}
}

// Alive reports whether the node is attached and not killed.
func (n *Network) Alive(id ring.NodeID) bool {
	p := n.port(id)
	return p != nil && !p.ep.isClosed()
}

// Stats is a snapshot of traffic counters. Self-addressed (local) messages
// are not counted: they never cross the network.
type Stats struct {
	TotalBytes int64
	TotalMsgs  int64
	SentBytes  map[ring.NodeID]int64
	RecvBytes  map[ring.NodeID]int64
}

// Stats returns a snapshot of the accumulated traffic counters.
func (n *Network) Stats() Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	s := n.stats
	s.SentBytes, s.RecvBytes = maps.Clone(s.SentBytes), maps.Clone(s.RecvBytes)
	return s
}

// ResetStats zeroes the traffic counters.
func (n *Network) ResetStats() {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	n.stats = Stats{SentBytes: make(map[ring.NodeID]int64), RecvBytes: make(map[ring.NodeID]int64)}
}

func (n *Network) account(from, to ring.NodeID, size int) {
	n.statsMu.Lock()
	n.stats.TotalBytes += int64(size)
	n.stats.TotalMsgs++
	n.stats.SentBytes[from] += int64(size)
	n.stats.RecvBytes[to] += int64(size)
	n.statsMu.Unlock()
}

// Shutdown stops all endpoints and link goroutines. The network must not be
// used afterwards.
func (n *Network) Shutdown() {
	n.mu.Lock()
	ports, links := n.nodes, n.links
	n.nodes = map[ring.NodeID]*simPort{}
	n.links = map[linkKey]*link{}
	n.mu.Unlock()
	for _, p := range ports {
		p.ep.shutdown()
	}
	for _, l := range links {
		l.close()
	}
}

// link preserves FIFO order per (from,to) pair while applying latency.
type link struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []timedFrame
	dst    *endpoint
	closed bool
}

type timedFrame struct {
	f         frame
	deliverAt time.Time
}

// linkTo returns the link from one node to a live endpoint. A link still
// bound to an earlier endpoint of the same identity (one that has closed
// since) is replaced: it would drop everything meant for the newcomer.
func (n *Network) linkTo(from ring.NodeID, dst *endpoint) *link {
	key := linkKey{from, dst.id}
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[key]
	if ok && l.dst == dst {
		return l
	}
	if ok {
		l.close()
	}
	l = &link{dst: dst}
	l.cond = sync.NewCond(&l.mu)
	n.links[key] = l
	go l.run()
	return l
}

func (l *link) push(f frame, deliverAt time.Time) {
	l.mu.Lock()
	l.queue = append(l.queue, timedFrame{f, deliverAt})
	l.mu.Unlock()
	l.cond.Signal()
}

func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Signal()
}

func (l *link) run() {
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		tf := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()
		if d := time.Until(tf.deliverAt); d > 0 {
			time.Sleep(d)
		}
		l.dst.receive(tf.f)
	}
}

// simPort is one node's attachment to the Network: the carrier under its
// endpoint, holding the node's outbound shaping state.
type simPort struct {
	net *Network
	ep  *endpoint

	shapeMu  sync.Mutex
	nextFree time.Time
}

// shape applies outbound bandwidth limiting: the caller sleeps until the
// virtual NIC has capacity, which is exactly the back-pressure a full TCP
// send buffer provides (§V-A "automatically provides flow control").
func (p *simPort) shape(size int) {
	bw := p.net.cfg.BandwidthBps
	if bw <= 0 {
		return
	}
	cost := time.Duration(float64(size) / float64(bw) * float64(time.Second))
	p.shapeMu.Lock()
	now := time.Now()
	if p.nextFree.Before(now) {
		p.nextFree = now
	}
	wait := p.nextFree.Sub(now)
	p.nextFree = p.nextFree.Add(cost)
	p.shapeMu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

func (p *simPort) send(to ring.NodeID, f frame) error {
	if p.ep.isClosed() {
		return ErrClosed
	}
	dst := p.net.port(to)
	if dst == nil || dst.ep.isClosed() {
		return fmt.Errorf("%w: %s", ErrPeerDown, to)
	}
	size := f.wireSize()
	p.shape(size)
	p.net.account(f.from, to, size)
	p.net.linkTo(f.from, dst.ep).push(f, time.Now().Add(p.net.cfg.Latency))
	return nil
}

// close is a departure, not a failure: the node leaves the network and no
// peer is notified. Messages it sent before leaving are still delivered.
func (p *simPort) close() error {
	p.net.mu.Lock()
	if p.net.nodes[p.ep.id] == p {
		delete(p.net.nodes, p.ep.id)
	}
	p.net.mu.Unlock()
	return nil
}
