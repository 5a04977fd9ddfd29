package orchestra

import (
	"fmt"
	"path/filepath"

	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
)

// SyncMode selects when a durable cluster fsyncs its write-ahead logs.
type SyncMode = kvstore.SyncMode

// Sync policies for WithSyncMode.
const (
	// SyncAlways fsyncs before acknowledging every write; concurrent
	// publishers share syncs via group commit. Acknowledged publishes
	// survive a crash (kill -9, power loss).
	SyncAlways = kvstore.SyncAlways
	// SyncInterval fsyncs on a short timer; a crash can lose the last
	// interval's acknowledged writes but never corrupts the store.
	SyncInterval = kvstore.SyncInterval
	// SyncNever leaves syncing to the OS page cache: durable across
	// process crashes, not across power loss.
	SyncNever = kvstore.SyncNever
)

// WithDataDir makes every node's local store durable: each node keeps a
// write-ahead log and periodic snapshots under dir/<node-id>/, and
// NewCluster recovers catalogs (schemas and row counts with them), pages,
// tuples, and the published epoch from disk when the directory already
// holds state. Without this option
// stores are volatile in-memory structures (the default, used by the
// simulated experiments).
func WithDataDir(dir string) Option { return func(c *config) { c.dataDir = dir } }

// WithSyncMode sets the fsync policy for durable stores (default
// SyncAlways). Only meaningful together with WithDataDir.
func WithSyncMode(m SyncMode) Option { return func(c *config) { c.syncMode = m } }

// openStoreFunc builds the cluster.Config.OpenStore hook for a durable
// cluster: one kvstore directory and one metrics registry per node.
func (c *Cluster) openStoreFunc(cfg *config) func(id ring.NodeID) (*kvstore.Store, error) {
	return func(id ring.NodeID) (*kvstore.Store, error) {
		reg := obs.NewRegistry()
		s, err := kvstore.Open(filepath.Join(cfg.dataDir, string(id)), kvstore.Options{
			Sync:     cfg.syncMode,
			Registry: reg,
		})
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.registries[string(id)] = reg
		c.mu.Unlock()
		return s, nil
	}
}

// Checkpoint snapshots every node's store and truncates its WAL. It is a
// no-op on volatile clusters. Use it to bound restart (replay) time at a
// quiet moment instead of waiting for the size-triggered checkpoint.
func (c *Cluster) Checkpoint() error {
	for i, n := range c.local.Nodes() {
		if err := n.Store().Checkpoint(); err != nil {
			return fmt.Errorf("orchestra: checkpoint node %d: %w", i, err)
		}
	}
	return nil
}

// DurabilityStats reports node i's recovery/WAL/fsync counters. ok is
// false when the node's store is volatile (no WithDataDir).
func (c *Cluster) DurabilityStats(i int) (obs.DurabilityStats, bool) {
	b, err := c.backend(i)
	if err != nil {
		return obs.DurabilityStats{}, false
	}
	return b.DurabilityStats()
}

// nodeRegistry returns node i's metrics registry (nil for volatile
// clusters); served endpoints export it at /metrics.
func (c *Cluster) nodeRegistry(i int) *obs.Registry {
	id := c.NodeID(i)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registries[id]
}
