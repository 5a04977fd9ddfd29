package orchestra

import (
	"context"
	"time"

	"orchestra/internal/engine"
	"orchestra/internal/obs"
)

// ReplStats is a node's replica-repair health snapshot: WAL-shipping
// catch-up counters, anti-entropy rounds and repairs, and per-peer
// shipping lag. Serving endpoints expose it through the status op and
// /metrics.
type ReplStats = obs.ReplStats

// WithAntiEntropy starts a low-priority background repair loop on every
// node: at each interval a node exchanges per-relation summaries with
// one replica peer, pulls any missed log suffix (WAL shipping), and
// reconciles divergence it finds. Rejoining nodes converge without an
// explicit repair call; the loop idles cheaply when replicas agree.
func WithAntiEntropy(interval time.Duration) Option {
	return func(c *config) { c.repairInterval = interval }
}

// ReplStats reports node i's replica-repair counters and catch-up lag.
func (c *Cluster) ReplStats(i int) ReplStats {
	b, err := c.backend(i)
	if err != nil {
		return ReplStats{}
	}
	st, _ := b.ReplStats()
	return st
}

// RepairNode runs one synchronous repair pass at node i against every
// replica peer: WAL-shipping catch-up where markers exist, digest
// comparison, and state transfer where histories diverged.
func (c *Cluster) RepairNode(i int) error {
	b, err := c.backend(i)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return b.Node().Repair(ctx)
}

// RestartNode brings a killed node back under the same identity: its
// store is reopened (durable stores recover from WAL and snapshot;
// volatile ones come back empty), it rejoins the network, and it
// catches up from its replica peers — via WAL shipping when their logs
// still cover its position, else by state transfer. The routing table
// is untouched: a restart is repair, not a membership change; it then
// settles what the node and its peers hold for each other from a change
// it was down through (cluster.Local.Restart). Node i's
// backend is re-pointed at the reopened node under its own lock, so an
// endpoint served off it keeps answering after the restart.
func (c *Cluster) RestartNode(i int) error {
	b, err := c.backend(i)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	node, err := c.local.Restart(ctx, b.Node().ID())
	if node != nil {
		b.Rebind(node, engine.New(node))
		c.mu.Lock()
		interval := c.repairInterval
		c.mu.Unlock()
		if interval > 0 {
			node.StartRepair(interval)
		}
	}
	return err
}
