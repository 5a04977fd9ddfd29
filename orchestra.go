// Package orchestra is the public face of this repository: a reliable,
// replicated, versioned storage and distributed query processing system
// for collaborative data sharing, reproducing Taylor & Ives, "Reliable
// Storage and Querying for Collaborative Data Sharing Systems" (ICDE 2010).
//
// A Cluster is a set of storage/query nodes connected by a simulated
// message network (real byte-level encoding, optional latency and
// bandwidth shaping, failure injection). Relations are horizontally
// partitioned by key hash, replicated, and fully versioned: every Publish
// advances a global epoch, and queries run against a consistent snapshot
// of any epoch. SQL queries are optimized into distributed plans and
// executed with exactly-once semantics even when nodes fail mid-query
// (restart or incremental recomputation).
//
// Quickstart:
//
//	c, _ := orchestra.NewCluster(4)
//	defer c.Shutdown()
//	c.CreateRelation(orchestra.NewSchema("inv", "item:string", "qty:int").Key("item"))
//	c.Publish("inv", orchestra.Rows{{"bolt", 90}, {"nut", 120}})
//	res, _ := c.Query("SELECT item, qty FROM inv WHERE qty > 100")
package orchestra

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/server"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
	"orchestra/internal/wire"
)

// Epoch is the global logical timestamp; it advances after each Publish.
type Epoch = tuple.Epoch

// Row is one relational tuple as Go values (int64/int, float64, string).
type Row []any

// Rows is a batch of tuples.
type Rows []Row

// Option configures a Cluster.
type Option func(*config)

type config struct {
	replication    int
	latency        time.Duration
	bandwidth      int64
	capacities     []float64
	nodeCfg        cluster.Config
	dataDir        string
	syncMode       kvstore.SyncMode
	repairInterval time.Duration
}

// WithReplication sets the total copy count r kept of each data item
// (default 3, as in the paper's Pastry-style replica placement).
func WithReplication(r int) Option { return func(c *config) { c.replication = r } }

// WithLatency injects a one-way delivery delay on every inter-node message
// (the paper's NetEm substitute, §VI-C).
func WithLatency(d time.Duration) Option { return func(c *config) { c.latency = d } }

// WithBandwidth caps each node's outbound bytes/second (the paper's HTB
// substitute, §VI-C). 0 means unlimited.
func WithBandwidth(bps int64) Option { return func(c *config) { c.bandwidth = bps } }

// WithCapacities sizes each node's key-space share proportionally to its
// capacity — the automatic load-balancing extension of the paper's future
// work (§VIII). The slice length determines the cluster size and overrides
// the n argument of NewCluster.
func WithCapacities(capacities ...float64) Option {
	return func(c *config) { c.capacities = capacities }
}

// Cluster is a local ORCHESTRA deployment: n storage/query nodes over a
// simulated network, each pairing a versioned store with a query engine.
// It is a composition, not a second implementation: every create, publish,
// query, catalog and stats call is its node's server.NodeBackend — the
// code an orchestra-node process serves with — and what the Cluster adds
// is the local transport, the node lifecycle, and one view cache shared
// by all its backends. Schemas and row counts live only in the replicated
// catalogs.
type Cluster struct {
	local *cluster.Local

	mu         sync.Mutex
	backends   []*server.NodeBackend    // one per member, by node index: local.Nodes()' order
	views      *server.ViewCache        // nil unless EnableQueryCache was called
	registries map[string]*obs.Registry // per-node durability metrics, by node ID
	served     map[*Server]string       // live served endpoints, by advertised address

	// repairInterval is the anti-entropy period (0 = off); restarted
	// nodes resume the loop with it.
	repairInterval time.Duration
}

// NewCluster starts n nodes with balanced range allocation and replication
// factor 3 (override via options).
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	cfg := config{replication: 3}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Cluster{registries: make(map[string]*obs.Registry)}
	nodeCfg := cluster.Config{Replication: cfg.replication}
	if cfg.dataDir != "" {
		nodeCfg.OpenStore = c.openStoreFunc(&cfg)
	}
	var local *cluster.Local
	var err error
	netCfg := transport.Config{Latency: cfg.latency, BandwidthBps: cfg.bandwidth}
	if len(cfg.capacities) > 0 {
		local, err = cluster.NewLocalWeighted(cfg.capacities, nodeCfg, netCfg)
	} else {
		local, err = cluster.NewLocal(n, nodeCfg, netCfg)
	}
	if err != nil {
		return nil, err
	}
	c.local = local
	for _, node := range local.Nodes() {
		c.backends = append(c.backends, server.NewNodeBackend(node, engine.New(node)))
	}
	if cfg.repairInterval > 0 {
		c.repairInterval = cfg.repairInterval
		for _, node := range local.Nodes() {
			node.StartRepair(cfg.repairInterval)
		}
	}
	return c, nil
}

// Size returns the number of member nodes (including killed ones). Node
// indexes run from 0 to Size()-1; RemoveNode(i) shifts the later ones
// down by one.
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.backends)
}

// backend returns node i's backend.
func (c *Cluster) backend(i int) (*server.NodeBackend, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.backends) {
		return nil, fmt.Errorf("orchestra: no node %d", i)
	}
	return c.backends[i], nil
}

// node returns node i, as every index-taking method resolves it; it
// panics on an index out of range, as a slice does.
func (c *Cluster) node(i int) *cluster.Node {
	b, err := c.backend(i)
	if err != nil {
		panic(err)
	}
	return b.Node()
}

// NodeID returns the i-th node's identity.
func (c *Cluster) NodeID(i int) string { return string(c.node(i).ID()) }

// Shutdown stops all nodes and the network.
func (c *Cluster) Shutdown() { c.local.Shutdown() }

// Kill abruptly severs a node (crash-stop), as in the paper's failure
// experiments. In-flight queries recover per their QueryOptions.
func (c *Cluster) Kill(i int) { c.local.Kill(c.node(i).ID()) }

// Hang makes a node stop responding while keeping connections open — the
// "hung machine" case detected by background pings (§V-C).
func (c *Cluster) Hang(i int) { c.local.Hang(c.node(i).ID()) }

// OnNodeDown registers a callback at node i invoked when that node detects
// a peer failure — via connection drop (crash) or ping timeout (hang).
func (c *Cluster) OnNodeDown(i int, fn func(peer string)) {
	c.node(i).OnPeerDown(func(id ring.NodeID) { fn(string(id)) })
}

// StartPingers enables background hung-machine detection on all nodes.
func (c *Cluster) StartPingers(interval, timeout time.Duration) {
	c.local.StartPingers(interval, timeout)
}

// AddNode joins a fresh node: every member pulls the records it now
// replicates, then drops those it no longer does. The node participates in
// queries whose snapshot is taken after the join (§V-C).
func (c *Cluster) AddNode() (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	node, err := c.local.AddNode(ctx)
	if err != nil {
		return 0, err
	}
	b := server.NewNodeBackend(node, engine.New(node))
	c.mu.Lock()
	defer c.mu.Unlock()
	b.ShareViews(c.views)
	c.backends = append(c.backends, b)
	return len(c.backends) - 1, nil
}

// RemoveNode gracefully retires node i once the remaining members have
// pulled the records it held; the nodes after it move down one index. It
// refuses while node i holds the only live copies of records whose new
// replicas are all down.
func (c *Cluster) RemoveNode(i int) error {
	b, err := c.backend(i)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.local.RemoveNode(ctx, b.Node().ID()); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backends = slices.DeleteFunc(c.backends, func(x *server.NodeBackend) bool { return x == b })
	return nil
}

// NetworkStats reports accumulated traffic counters (bytes and messages
// are genuine wire sizes — all payloads are really encoded).
func (c *Cluster) NetworkStats() transport.Stats { return c.local.Net.Stats() }

// ResetNetworkStats zeroes the traffic counters (used between experiment
// phases to isolate a query's traffic).
func (c *Cluster) ResetNetworkStats() { c.local.Net.ResetStats() }

// CurrentEpoch returns the node-0 view of the global epoch.
func (c *Cluster) CurrentEpoch() Epoch {
	return c.node(0).Gossip().Current()
}

// --- schema DDL ---

// SchemaDef builds a relation schema fluently; see NewSchema. It is the
// wire's create request, filled in by method calls.
type SchemaDef struct{ req wire.CreateRequest }

// NewSchema starts a schema definition. Columns are "name:type" with type
// one of int, float, string.
func NewSchema(relation string, columns ...string) *SchemaDef {
	return &SchemaDef{wire.CreateRequest{Relation: relation, Columns: columns}}
}

// Key declares the key columns (data is partitioned by their hash); the
// default is the first column.
func (d *SchemaDef) Key(columns ...string) *SchemaDef {
	d.req.Keys = columns
	return d
}

// CreateRelation registers a relation across the cluster.
func (c *Cluster) CreateRelation(def *SchemaDef) error {
	b, err := c.backend(0)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = b.Create(ctx, &def.req)
	return err
}

// CreateRelationSchema registers a pre-built tuple schema across the
// cluster (used by workload loaders that generate typed rows directly).
func (c *Cluster) CreateRelationSchema(s *tuple.Schema) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b, err := c.backend(0)
	if err != nil {
		return err
	}
	return b.CreateSchema(ctx, s)
}

// liveNode returns the first node still on the network (node 0 when none
// is). Catalog records are replicated, so any live node resolves them.
func (c *Cluster) liveNode() *cluster.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.backends {
		if node := b.Node(); c.local.Net.Alive(node.ID()) {
			return node
		}
	}
	return c.backends[0].Node()
}

// relationCatalog fetches a relation's replicated catalog record: the
// schema, and the row count every publish writes atomically with its epoch.
func (c *Cluster) relationCatalog(relation string) (*vstore.Catalog, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return c.liveNode().GetCatalog(ctx, relation)
}

// Schema returns a relation's schema.
func (c *Cluster) Schema(relation string) (*tuple.Schema, bool) {
	cat, err := c.relationCatalog(relation)
	if err != nil {
		return nil, false
	}
	return cat.Schema, true
}

// Relations lists the relation names any node's backend knows, sorted.
func (c *Cluster) Relations() []string {
	c.mu.Lock()
	backends := append([]*server.NodeBackend(nil), c.backends...)
	c.mu.Unlock()
	seen := make(map[string]struct{})
	for _, b := range backends {
		for _, name := range b.Relations() {
			seen[name] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RowCount returns a relation's row count — the statistic the optimizer
// and the served schema op see.
func (c *Cluster) RowCount(relation string) int64 {
	cat, err := c.relationCatalog(relation)
	if err != nil {
		return 0
	}
	return cat.Rows
}

// --- publish / import ---

// typedRow types a Row's Go values; the backend's publish then fits them
// onto the relation's column types, as it does for rows off the wire.
func typedRow(r Row) (tuple.Row, error) {
	out := make(tuple.Row, len(r))
	for i, v := range r {
		switch x := v.(type) {
		case int:
			out[i] = tuple.I(int64(x))
		case int64:
			out[i] = tuple.I(x)
		case Epoch:
			out[i] = tuple.I(int64(x))
		case float64:
			out[i] = tuple.F(x)
		case string:
			out[i] = tuple.S(x)
		default:
			return nil, fmt.Errorf("orchestra: unsupported value type %T", v)
		}
	}
	return out, nil
}

// Publish inserts a batch of rows as one published update log, advancing
// the global epoch (§IV). It returns the new epoch.
func (c *Cluster) Publish(relation string, rows Rows) (Epoch, error) {
	return c.publishRows(0, relation, vstore.OpInsert, rows)
}

// publishRows types rows' Go values and publishes them as one update log
// of the given kind.
func (c *Cluster) publishRows(node int, relation string, op vstore.Op, rows Rows) (Epoch, error) {
	typed := make([]tuple.Row, len(rows))
	for i, r := range rows {
		var err error
		if typed[i], err = typedRow(r); err != nil {
			return 0, err
		}
	}
	return c.publishTyped(node, relation, op, typed, 0)
}

// PublishTyped publishes pre-converted rows (used by workload generators
// that already produce tuple.Rows).
func (c *Cluster) PublishTyped(node int, relation string, rows []tuple.Row) (Epoch, error) {
	return c.publishTyped(node, relation, vstore.OpInsert, rows, 0)
}

// Update publishes value changes for existing keys (copy-on-write: prior
// versions remain queryable at their epochs).
func (c *Cluster) Update(relation string, rows Rows) (Epoch, error) {
	return c.publishRows(0, relation, vstore.OpUpdate, rows)
}

// Delete publishes deletions (key columns of each row are consulted).
func (c *Cluster) Delete(relation string, rows Rows) (Epoch, error) {
	return c.publishRows(0, relation, vstore.OpDelete, rows)
}

// publishTyped publishes rows as one update log of kind op at node's
// backend, which fits them onto the relation's column types.
func (c *Cluster) publishTyped(node int, relation string, op vstore.Op, rows []tuple.Row, pubID uint64) (Epoch, error) {
	b, err := c.backend(node)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	return b.PublishRows(ctx, relation, op, rows, pubID)
}
