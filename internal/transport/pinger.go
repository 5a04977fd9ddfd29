package transport

import (
	"context"
	"sync"
	"time"

	"orchestra/internal/ring"
)

// Pinger implements background failure detection for "hung" machines
// (paper §V-C): connection drops are detected immediately by the carrier,
// but a machine that stops making progress while keeping its connections
// alive is only caught by periodic application-level pings. It keeps no
// verdicts of its own: a missed pong is reported through the endpoint's
// peerDown, exactly like a dropped connection, and the endpoint decides
// whether that is news.
type Pinger struct {
	ep       Endpoint
	interval time.Duration
	timeout  time.Duration

	mu       sync.Mutex
	peers    []ring.NodeID
	stop     chan struct{}
	stopOnce sync.Once
}

// NewPinger creates a pinger on ep that probes each watched peer every
// interval and reports it down through ep (OnPeerDown) when a ping gets no
// reply within timeout. Call SetPeers to choose the peers and Start to begin
// probing.
func NewPinger(ep Endpoint, interval, timeout time.Duration) *Pinger {
	return &Pinger{ep: ep, interval: interval, timeout: timeout, stop: make(chan struct{})}
}

// SetPeers replaces the probe set; the pinger's own endpoint is skipped.
func (p *Pinger) SetPeers(ids []ring.NodeID) {
	peers := make([]ring.NodeID, 0, len(ids))
	for _, id := range ids {
		if id != p.ep.ID() {
			peers = append(peers, id)
		}
	}
	p.mu.Lock()
	p.peers = peers
	p.mu.Unlock()
}

// Start launches the probe loop.
func (p *Pinger) Start() { go p.loop() }

// Stop terminates the probe loop.
func (p *Pinger) Stop() { p.stopOnce.Do(func() { close(p.stop) }) }

func (p *Pinger) loop() {
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.probeAll()
		}
	}
}

// probeAll pings every watched peer, down or not: a peer already reported
// keeps failing the requests made to it since, and its pong, when it comes
// back, is what re-arms the report.
func (p *Pinger) probeAll() {
	p.mu.Lock()
	targets := p.peers
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, id := range targets {
		wg.Add(1)
		go func(id ring.NodeID) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
			defer cancel()
			p.ep.ping(ctx, id)
		}(id)
	}
	wg.Wait()
}
