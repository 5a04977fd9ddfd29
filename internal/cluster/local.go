package cluster

import (
	"context"
	"fmt"
	"slices"
	"time"

	"orchestra/internal/kvstore"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
)

// Local is an in-process ORCHESTRA cluster over the simulated network: the
// deployment used by tests, examples, and the experiment harness. All
// messages are genuinely encoded, shaped, and accounted by the transport;
// only the processes are colocated.
type Local struct {
	Net   *transport.Network
	cfg   Config
	nodes []*Node
	byID  map[ring.NodeID]*Node
	// named counts the names given out: a node started later is named
	// NodeName(named), never a name a member has or a removed node had.
	named int
}

// NodeName returns the canonical name of the i'th local node started.
func NodeName(i int) ring.NodeID {
	return ring.NodeID(fmt.Sprintf("orch-%03d", i))
}

// NewLocalWeighted builds a cluster whose range allocation is proportional
// to per-node capacity weights — the load-balancing extension of paper
// §VIII (future work): nodes with more capacity own more key space.
func NewLocalWeighted(capacities []float64, cfg Config, netCfg transport.Config) (*Local, error) {
	cfg = cfg.withDefaults()
	weights := make([]ring.Weight, len(capacities))
	for i, c := range capacities {
		weights[i] = ring.Weight{ID: NodeName(i), Capacity: c}
	}
	table, err := ring.NewWeighted(weights, cfg.Replication)
	if err != nil {
		return nil, err
	}
	l := &Local{
		Net:  transport.NewNetwork(netCfg),
		cfg:  cfg,
		byID: make(map[ring.NodeID]*Node, len(capacities)),
	}
	for _, w := range weights {
		node, err := l.join(w.ID, table)
		if err != nil {
			l.Shutdown()
			return nil, err
		}
		l.nodes = append(l.nodes, node)
		l.byID[w.ID] = node
		l.named++
	}
	return l, nil
}

// NewLocal builds an n-node cluster with balanced range allocation.
func NewLocal(n int, cfg Config, netCfg transport.Config) (*Local, error) {
	cfg = cfg.withDefaults()
	ids := make([]ring.NodeID, n)
	for i := range ids {
		ids[i] = NodeName(i)
	}
	table, err := ring.New(ids, ring.Balanced, cfg.Replication)
	if err != nil {
		return nil, err
	}
	l := &Local{
		Net:  transport.NewNetwork(netCfg),
		cfg:  cfg,
		byID: make(map[ring.NodeID]*Node, n),
	}
	for _, id := range ids {
		node, err := l.join(id, table)
		if err != nil {
			l.Shutdown()
			return nil, err
		}
		l.nodes = append(l.nodes, node)
		l.byID[id] = node
		l.named++
	}
	return l, nil
}

// join opens the node's store (durable when cfg.OpenStore is set),
// joins the network, and constructs the node.
func (l *Local) join(id ring.NodeID, table *ring.Table) (*Node, error) {
	store, err := l.openStore(id)
	if err != nil {
		return nil, err
	}
	ep, err := l.Net.Join(id)
	if err != nil {
		store.Close()
		return nil, err
	}
	return NewNode(ep, store, table, l.cfg), nil
}

func (l *Local) openStore(id ring.NodeID) (*kvstore.Store, error) {
	if l.cfg.OpenStore == nil {
		return kvstore.NewMemory(), nil
	}
	store, err := l.cfg.OpenStore(id)
	if err != nil {
		return nil, fmt.Errorf("cluster: open store for %s: %w", id, err)
	}
	return store, nil
}

// Nodes returns all nodes (including killed ones; check Alive).
func (l *Local) Nodes() []*Node { return l.nodes }

// Node returns the i'th node.
func (l *Local) Node(i int) *Node { return l.nodes[i] }

// Table returns the first live node's routing table.
func (l *Local) Table() *ring.Table {
	for _, n := range l.nodes {
		if l.Net.Alive(n.ID()) {
			return n.Table()
		}
	}
	return nil
}

// Kill abruptly fails a node (connection drops everywhere).
func (l *Local) Kill(id ring.NodeID) { l.Net.Kill(id) }

// Hang simulates a hung node (connections stay up; only pings detect it).
func (l *Local) Hang(id ring.NodeID) { l.Net.Hang(id) }

// Restart brings a killed node back under the same identity: its store
// is reopened (recovering from WAL/snapshot when durable), it rejoins
// the network fabric, and it repairs itself from its peers — WAL
// catch-up for the delta it missed, state transfer if the peers'
// logs have been truncated past its position. The node joins under a live
// node's table, so one that was down through a membership change adopts
// the new table here; settle then hands over what it and its peers hold
// for each other from that change.
func (l *Local) Restart(ctx context.Context, id ring.NodeID) (*Node, error) {
	old := l.byID[id]
	if old == nil {
		return nil, fmt.Errorf("cluster: unknown node %s", id)
	}
	if l.Net.Alive(id) {
		return nil, fmt.Errorf("cluster: node %s is still alive", id)
	}
	table := l.Table()
	if table == nil {
		return nil, fmt.Errorf("cluster: no live node to rejoin from")
	}
	// Release the dead instance's store so the same directory can be
	// reopened (the in-process analogue of the process having exited).
	old.Close()
	old.Store().Close()

	node, err := l.join(id, table)
	if err != nil {
		return nil, err
	}
	for i, n := range l.nodes {
		if n == old {
			l.nodes[i] = node
		}
	}
	l.byID[id] = node
	// Adopt the latest epoch, then pull everything missed while down.
	node.Gossip().Sync(ctx, table.Members())
	if err := node.Repair(ctx); err != nil {
		return node, err
	}
	return node, l.settle(ctx)
}

// AddNode joins a fresh node: it receives the next unused canonical name
// and the table with it as a member is installed by move. Per §V-C the new
// node participates only in queries whose snapshot is taken after the join.
// When the move fails the newcomer is closed, but the table naming it may
// already be installed.
func (l *Local) AddNode(ctx context.Context) (*Node, error) {
	id := NodeName(l.named)
	l.named++ // a failed join's name may be in an installed table: never reuse it
	oldTable := l.Table()
	newTable, err := oldTable.WithMembers(append(oldTable.Members(), id))
	if err != nil {
		return nil, err
	}
	node, err := l.join(id, oldTable)
	if err != nil {
		return nil, err
	}
	// Pull the current epoch from the existing members so queries initiated
	// at the newcomer immediately see the latest published state.
	node.Gossip().Sync(ctx, oldTable.Members())
	if err := l.move(ctx, newTable, append(slices.Clip(l.nodes), node)); err != nil {
		node.Close()
		node.Store().Close()
		return nil, err
	}
	l.nodes = append(l.nodes, node)
	l.byID[id] = node
	return node, nil
}

// RemoveNode gracefully retires a node: a table without it is installed by
// move, whose pulls read the leaver's records too, and the node closes.
// When the move fails the node stays open, but the table without it may
// already be installed.
func (l *Local) RemoveNode(ctx context.Context, id ring.NodeID) error {
	node := l.byID[id]
	if node == nil {
		return fmt.Errorf("cluster: unknown node %s", id)
	}
	oldTable := l.Table()
	var rest []ring.NodeID
	for _, m := range oldTable.Members() {
		if m != id {
			rest = append(rest, m)
		}
	}
	newTable, err := oldTable.WithMembers(rest)
	if err != nil {
		return err
	}
	if err := l.move(ctx, newTable, l.nodes); err != nil {
		return err
	}
	node.Close()
	node.Store().Close()
	delete(l.byID, id)
	for i, n := range l.nodes {
		if n == node {
			l.nodes = append(l.nodes[:i], l.nodes[i+1:]...)
			break
		}
	}
	return nil
}

// StartPingers begins hung-node detection on every node.
func (l *Local) StartPingers(interval, timeout time.Duration) {
	for _, n := range l.nodes {
		n.StartPinger(interval, timeout)
	}
}

// Shutdown stops every node, closes (flushes and syncs) every local
// store, and stops the network fabric.
func (l *Local) Shutdown() {
	for _, n := range l.nodes {
		n.Close()
	}
	for _, n := range l.nodes {
		n.Store().Close()
	}
	l.Net.Shutdown()
}
