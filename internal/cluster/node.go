// Package cluster binds the substrate together into running ORCHESTRA
// storage nodes: each Node couples a transport endpoint, the shared routing
// table, a local ordered store, and the epoch gossiper, and implements the
// distributed versioned storage protocol of paper §III-IV — replicated
// record writes, replica-fallback reads, the publish (copy-on-write) path,
// the resolved index pages and key predicates that the query engine's
// distributed scan (Algorithm 1, engine.scanLeaf) reads through, and
// membership changes, which move ranges by the replica-repair pull.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"orchestra/internal/gossip"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// Message types used by the storage layer (engine types live in 0x0200+).
const (
	msgPutBatch  transport.MsgType = 0x0101
	msgGetRecord transport.MsgType = 0x0102
	msgNewTable  transport.MsgType = 0x0106
	msgRelLease  transport.MsgType = 0x0108
)

// Errors surfaced by storage operations.
var (
	// ErrNotFound indicates no live replica holds the requested record.
	ErrNotFound = errors.New("cluster: record not found")
	// ErrNoSuchRelation indicates the relation has no catalog.
	ErrNoSuchRelation = errors.New("cluster: no such relation")
	// ErrRelationExists indicates a CreateRelation for an existing name.
	ErrRelationExists = errors.New("cluster: relation already exists")
	// ErrUnavailable indicates all replicas for a record are unreachable.
	ErrUnavailable = errors.New("cluster: no replica reachable")
)

// Config tunes a node.
type Config struct {
	// Replication is the total copy count r (default 3).
	Replication int
	// MaxPageEntries bounds index page size (default vstore's).
	MaxPageEntries int
	// RequestTimeout bounds individual storage RPCs (default 10s).
	RequestTimeout time.Duration
	// OpenStore provides each node's local store — the durability seam.
	// nil means volatile in-memory stores. Stores opened through this
	// are owned (and closed) by the Local cluster.
	OpenStore func(id ring.NodeID) (*kvstore.Store, error)
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.MaxPageEntries <= 0 {
		c.MaxPageEntries = 512
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// Node is one ORCHESTRA storage/query node.
type Node struct {
	id    ring.NodeID
	ep    transport.Endpoint
	store *kvstore.Store
	gsp   *gossip.Gossiper
	cfg   Config

	mu       sync.RWMutex
	table    *ring.Table
	pinger   *transport.Pinger // watches the table's members; nil until StartPinger
	closeFns []func()          // OnClose subscribers; run once, by Close

	pubMu   sync.Mutex
	pubRels map[string]*sync.Mutex

	// pages resolves stored page versions into index pages for every
	// reader on this node: engine scans and publish-time compaction.
	pages *vstore.PageCache
	// Publish-path counters, in the registry the node's store reports to.
	pubFull, pubDelta, pubPageBytes, pubResolved *obs.Counter

	// leases is this node's publish-lease arbiter state (see lease.go).
	leases leaseTable

	// repair holds the replica-repair counters and anti-entropy loop
	// (see repair.go).
	repair repairState
}

// NewNode constructs a node on an endpoint with a local store and the
// initial routing table, and registers all storage message handlers.
func NewNode(ep transport.Endpoint, store *kvstore.Store, table *ring.Table, cfg Config) *Node {
	n := &Node{
		id:      ep.ID(),
		ep:      ep,
		store:   store,
		cfg:     cfg.withDefaults(),
		table:   table,
		pubRels: make(map[string]*sync.Mutex),
		pages:   vstore.NewPageCache(vstore.DefaultPageCachePages),
	}
	reg := store.Registry()
	n.pubFull = reg.Counter(`orchestra_publish_pages_total{kind="full"}`)
	n.pubDelta = reg.Counter(`orchestra_publish_pages_total{kind="delta"}`)
	n.pubPageBytes = reg.Counter("orchestra_publish_page_bytes_total")
	n.pubResolved = reg.Counter("orchestra_publish_pages_resolved_total")
	n.gsp = gossip.New(ep, int64(ep.ID().Hash().Uint64()))
	n.gsp.SetPeers(table.Members())
	// Epochs learned through gossip are persisted so a restart resumes
	// at (at least) the last epoch this node ever saw; a durable store
	// that recovered an epoch seeds the gossiper with it.
	n.gsp.OnAdvance(func(e tuple.Epoch) { _ = store.SetEpoch(uint64(e)) })
	if e := store.Epoch(); e > 0 {
		n.gsp.Advance(tuple.Epoch(e))
	}
	// Gossip piggybacks our shipping position so peers can account lag.
	n.gsp.SeqFn(store.Seq)
	n.registerHandlers()
	return n
}

func (n *Node) registerHandlers() {
	n.registerRecordHandlers()
	n.registerLeaseHandler()
	n.registerRepairHandlers()
}

// ID returns the node's identity.
func (n *Node) ID() ring.NodeID { return n.id }

// Endpoint exposes the transport endpoint (the query engine shares it).
func (n *Node) Endpoint() transport.Endpoint { return n.ep }

// Store exposes the local ordered store (the engine's leaf scans read it).
func (n *Node) Store() *kvstore.Store { return n.store }

// Gossip exposes the epoch gossiper.
func (n *Node) Gossip() *gossip.Gossiper { return n.gsp }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// Table returns the node's current routing table.
func (n *Node) Table() *ring.Table {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.table
}

// adoptTable installs a newer routing table (no-op for stale versions).
func (n *Node) adoptTable(t *ring.Table) {
	n.mu.Lock()
	if t.Version() > n.table.Version() {
		n.table = t
		n.gsp.SetPeers(t.Members())
		if n.pinger != nil {
			n.pinger.SetPeers(t.Members())
		}
	}
	n.mu.Unlock()
}

// OnPeerDown registers a callback for peer failure notifications. The
// endpoint is the one fan-out: a dropped connection and a hung machine's
// missed pong both arrive through it, once per failure.
func (n *Node) OnPeerDown(fn func(ring.NodeID)) { n.ep.OnPeerDown(fn) }

// StartPinger begins background hung-machine detection (§V-C) against the
// table's members, following the table as it changes.
func (n *Node) StartPinger(interval, timeout time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pinger != nil {
		n.pinger.Stop()
	}
	n.pinger = transport.NewPinger(n.ep, interval, timeout)
	n.pinger.SetPeers(n.table.Members())
	n.pinger.Start()
}

// OnClose registers fn to run when the node closes. A closing node hears
// from no peer again, so work that waits on one (a query fragment parked on
// ship credit) must be told here.
func (n *Node) OnClose(fn func()) {
	n.mu.Lock()
	n.closeFns = append(n.closeFns, fn)
	n.mu.Unlock()
}

// Close stops background activity. The local store remains usable.
func (n *Node) Close() {
	n.mu.Lock()
	if n.pinger != nil {
		n.pinger.Stop()
	}
	fns := n.closeFns
	n.closeFns = nil
	n.mu.Unlock()
	n.StopRepair()
	n.gsp.Stop()
	_ = n.ep.Close()
	for _, fn := range fns {
		fn()
	}
}

func (n *Node) String() string {
	return fmt.Sprintf("node(%s)", n.id)
}
