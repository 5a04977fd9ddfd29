// Package gossip maintains the CDSS's current epoch — the logical timestamp
// that advances after each batch of updates is published by a peer. Per
// paper §IV, "the current epoch can be determined through a simple 'gossip'
// protocol and does not require a single point of failure": each node keeps
// its highest-seen epoch and periodically pushes it to a few random peers;
// receiving a higher epoch adopts it.
package gossip

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"orchestra/internal/codec"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
)

// MsgEpoch is the transport message type used by the gossiper.
const MsgEpoch transport.MsgType = 0x00F0

// Fanout is how many random peers receive each gossip push.
const Fanout = 3

// Gossiper tracks and disseminates the current epoch on one node. Each
// message also piggybacks the sender's WAL-shipping sequence position,
// giving every node a cheap, eventually-fresh view of its peers'
// mutation counts for replication-lag accounting (see SeqFn/PeerSeqs).
type Gossiper struct {
	ep transport.Endpoint

	mu        sync.Mutex
	current   tuple.Epoch
	peers     []ring.NodeID
	peerSeqs  map[ring.NodeID]uint64
	rng       *rand.Rand
	stop      chan struct{}
	stopped   bool
	onAdvance func(tuple.Epoch)
	seqFn     func() uint64
}

// New creates a gossiper bound to the endpoint and registers its message
// handler. Call SetPeers and Start to begin anti-entropy.
func New(ep transport.Endpoint, seed int64) *Gossiper {
	g := &Gossiper{
		ep:       ep,
		peerSeqs: make(map[ring.NodeID]uint64),
		rng:      rand.New(rand.NewSource(seed)),
		stop:     make(chan struct{}),
	}
	ep.Handle(MsgEpoch, func(from ring.NodeID, payload []byte) ([]byte, error) {
		if err := g.receive(from, payload); err != nil {
			return nil, err
		}
		// Reply with our (possibly newer) epoch so pulls work too.
		return g.encodeCurrent(), nil
	})
	return g
}

// receive adopts a peer's gossip message: the 16-byte payload epoch | seq
// (see encodeCurrent). Anything else is refused whole.
func (g *Gossiper) receive(from ring.NodeID, payload []byte) error {
	r := codec.NewReader(payload)
	epoch, seq := r.U64(), r.U64()
	if r.Done("gossip: payload") != nil {
		return fmt.Errorf("gossip: payload of %d bytes from %s, want 16 (epoch | seq)", len(payload), from)
	}
	g.merge(tuple.Epoch(epoch))
	g.noteSeq(from, seq)
	return nil
}

// SeqFn installs the source of this node's shipping sequence, included
// in every gossip message. Nil (the default) advertises 0.
func (g *Gossiper) SeqFn(fn func() uint64) {
	g.mu.Lock()
	g.seqFn = fn
	g.mu.Unlock()
}

// PeerSeqs returns the most recent sequence position gossiped by each
// peer. The view is eventually consistent — a peer's real position is
// at least the reported one.
func (g *Gossiper) PeerSeqs() map[ring.NodeID]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[ring.NodeID]uint64, len(g.peerSeqs))
	for id, s := range g.peerSeqs {
		out[id] = s
	}
	return out
}

func (g *Gossiper) noteSeq(id ring.NodeID, seq uint64) {
	g.mu.Lock()
	if seq > g.peerSeqs[id] {
		g.peerSeqs[id] = seq
	}
	g.mu.Unlock()
}

// Current returns the highest epoch this node has seen.
func (g *Gossiper) Current() tuple.Epoch {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.current
}

// OnAdvance registers a callback fired (outside the gossiper's lock)
// whenever the local epoch rises — however it was learned: a local
// publish, a gossip push from a peer, or a pull. The node uses it to
// persist the epoch in its durable store.
func (g *Gossiper) OnAdvance(fn func(tuple.Epoch)) {
	g.mu.Lock()
	g.onAdvance = fn
	g.mu.Unlock()
}

// SetPeers replaces the peer set used for pushes.
func (g *Gossiper) SetPeers(peers []ring.NodeID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.peers = nil
	for _, p := range peers {
		if p != g.ep.ID() {
			g.peers = append(g.peers, p)
		}
	}
}

// Advance raises the local epoch to at least e and pushes it to Fanout
// random peers immediately. It returns the (possibly higher) local epoch.
func (g *Gossiper) Advance(e tuple.Epoch) tuple.Epoch {
	g.merge(e)
	g.push()
	return g.Current()
}

// Next claims the next epoch above both everything this node has seen
// and after: the publish path of §IV ("a logical timestamp (epoch) that
// advances after each batch of updates is published by a peer"). A
// publisher passes its relation's latest epoch, which it has just read
// from the catalog, so the claim rises above it even when gossip has not
// yet brought that epoch here.
func (g *Gossiper) Next(after tuple.Epoch) tuple.Epoch {
	g.mu.Lock()
	g.current = max(g.current, after) + 1
	e := g.current
	fn := g.onAdvance
	g.mu.Unlock()
	if fn != nil {
		fn(e)
	}
	g.push()
	return e
}

func (g *Gossiper) merge(e tuple.Epoch) {
	g.mu.Lock()
	raised := e > g.current
	if raised {
		g.current = e
	}
	fn := g.onAdvance
	g.mu.Unlock()
	if raised && fn != nil {
		fn(e)
	}
}

func (g *Gossiper) encodeCurrent() []byte {
	g.mu.Lock()
	cur := g.current
	seqFn := g.seqFn
	g.mu.Unlock()
	var seq uint64
	if seqFn != nil {
		seq = seqFn()
	}
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, uint64(cur))
	binary.BigEndian.PutUint64(b[8:], seq)
	return b
}

// push sends the current epoch to up to Fanout random peers.
func (g *Gossiper) push() {
	g.mu.Lock()
	n := len(g.peers)
	var targets []ring.NodeID
	if n > 0 {
		perm := g.rng.Perm(n)
		for i := 0; i < n && i < Fanout; i++ {
			targets = append(targets, g.peers[perm[i]])
		}
	}
	g.mu.Unlock()
	payload := g.encodeCurrent()
	for _, t := range targets {
		// Best effort: unreachable peers learn the epoch later.
		_ = g.ep.Send(t, MsgEpoch, payload)
	}
}

// Sync pulls the current epoch from the given peers, adopting the highest
// seen. Joining nodes use this to catch up immediately instead of waiting
// for the next anti-entropy round.
func (g *Gossiper) Sync(ctx context.Context, peers []ring.NodeID) tuple.Epoch {
	for _, p := range peers {
		if p == g.ep.ID() {
			continue
		}
		// Best effort: an unreachable or garbled peer is skipped.
		if resp, err := g.ep.Request(ctx, p, MsgEpoch, g.encodeCurrent()); err == nil {
			_ = g.receive(p, resp)
		}
	}
	return g.Current()
}

// Start launches periodic anti-entropy pushes at the given interval.
func (g *Gossiper) Start(interval time.Duration) {
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-ticker.C:
				g.push()
			}
		}
	}()
}

// Stop halts anti-entropy.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	if !g.stopped {
		g.stopped = true
		close(g.stop)
	}
	g.mu.Unlock()
}
