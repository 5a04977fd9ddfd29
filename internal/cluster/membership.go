package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"orchestra/internal/keyspace"
	"orchestra/internal/kvstore"
	"orchestra/internal/ring"
	"orchestra/internal/vstore"
)

// BroadcastTable disseminates a new routing table to every member (and to
// any extra recipients, e.g. a node about to join). Nodes ignore stale
// versions, so repeated broadcasts are harmless.
func (n *Node) BroadcastTable(ctx context.Context, t *ring.Table, extra ...ring.NodeID) error {
	data, err := t.MarshalBinary()
	if err != nil {
		return err
	}
	targets := append(t.Members(), extra...)
	var lastErr error
	for _, m := range targets {
		if m == n.id {
			n.adoptTable(t)
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
		_, err := n.ep.Request(rctx, m, msgNewTable, data)
		cancel()
		if err != nil {
			lastErr = err
		}
	}
	n.adoptTable(t)
	return lastErr
}

// placementOf reconstructs the ring placement key of a locally stored
// record from its key (and, for pages, its value).
func placementOf(kvKey, value []byte) (keyspace.Key, bool) {
	if len(kvKey) < 2 {
		return keyspace.Key{}, false
	}
	switch {
	case kvKey[0] == 'c' && kvKey[1] == '/':
		return vstore.CatalogPlacement(string(kvKey[2:])), true
	case kvKey[0] == 'r' && kvKey[1] == '/':
		// r/<relation>\x00<epoch:8>
		rest := kvKey[2:]
		if len(rest) < 9 {
			return keyspace.Key{}, false
		}
		c, err := vstore.DecodeCoordinator(value)
		if err != nil || c.Relation != string(rest[:len(rest)-9]) {
			return keyspace.Key{}, false // not the record its key names
		}
		return vstore.CoordPlacement(c.Relation, c.Epoch), true
	case kvKey[0] == 'p' && kvKey[1] == '/':
		return vstore.PagePlacement(value)
	case kvKey[0] == 't' && kvKey[1] == '/':
		h, ok := vstore.TupleKeyHash(kvKey)
		return h, ok
	default:
		return keyspace.Key{}, false
	}
}

// planned is one pull of a membership change: to fetches want from from.
type planned struct {
	to, from *Node
	want     []ring.Range
}

// plan adds r to the pull of to from from.
func plan(ps []planned, to, from *Node, r ring.Range) []planned {
	i := slices.IndexFunc(ps, func(p planned) bool { return p.to == to && p.from == from })
	if i < 0 {
		return append(ps, planned{to, from, []ring.Range{r}})
	}
	ps[i].want = append(ps[i].want, r)
	return ps
}

// pullAll makes every planned pull and stops at the first that fails.
func pullAll(ctx context.Context, ps []planned) error {
	for _, p := range ps {
		if err := p.to.stateTransfer(ctx, p.from.ID(), false, p.want); err != nil {
			return fmt.Errorf("cluster: %s pulling from %s: %w", p.to.ID(), p.from.ID(), err)
		}
	}
	return nil
}

// dropWhere deletes, in one commit, every record this node holds whose
// placement gone reports: the last step of a membership change, run once
// every pull has landed. The delete is this node's own decision; a peer
// replaying this node's log never applies it (see applyShipped).
func (n *Node) dropWhere(gone func(keyspace.Key) bool) error {
	var drops []kvstore.ReplOp
	n.store.Scan(nil, nil, func(k, v []byte) bool {
		if placement, ok := placementOf(k, v); ok && gone(placement) {
			drops = append(drops, kvstore.ReplOp{Del: true, Key: append([]byte(nil), k...)})
		}
		return true
	})
	if len(drops) == 0 {
		return nil
	}
	return n.store.ApplyBatch(drops)
}

// liveOf returns the live ones of nodes, in order and by identity.
func (l *Local) liveOf(nodes []*Node) ([]*Node, map[ring.NodeID]*Node) {
	var up []*Node
	live := make(map[ring.NodeID]*Node, len(nodes))
	for _, n := range nodes {
		if l.Net.Alive(n.ID()) {
			up = append(up, n)
			live[n.ID()] = n
		}
	}
	return up, live
}

// move installs the table next over nodes, every node of the old table
// and the new: the one way records move on a membership change (§III-C).
// The table is broadcast; then each live new replica of a segment pulls it
// from the segment's live old holders that lose it, or from one that keeps
// it when none of those is live. Once every pull has landed, a member
// drops a record it no longer replicates only if every new replica gaining
// it is live, and so has pulled it. A failed pull drops nothing, though
// next stays installed. A node that is down misses the move, and Restart
// settles it. move refuses, before broadcasting, when a leaving node holds
// the only live copies of a segment whose new replicas are all down.
func (l *Local) move(ctx context.Context, next *ring.Table, nodes []*Node) error {
	old := l.Table()
	up, live := l.liveOf(nodes)
	if len(up) == 0 {
		return errors.New("cluster: no live node to change membership through")
	}
	var pulls []planned
	for _, s := range ring.Segments(old, next) {
		var gainers, keepers, losers []*Node // the live ones
		for _, id := range s.New {
			if n := live[id]; n != nil && slices.Contains(s.Old, id) {
				keepers = append(keepers, n)
			} else if n != nil {
				gainers = append(gainers, n)
			}
		}
		for _, id := range s.Old {
			if n := live[id]; n != nil && !slices.Contains(s.New, id) {
				losers = append(losers, n)
			}
		}
		stays := func(n *Node) bool { return next.Contains(n.ID()) }
		if len(gainers)+len(keepers) == 0 && len(losers) > 0 && !slices.ContainsFunc(losers, stays) {
			return fmt.Errorf("cluster: %s holds the only live copies of %v, whose new replicas are all down",
				losers[0].ID(), s.Range)
		}
		sources := losers
		if len(sources) == 0 && len(keepers) > 0 {
			sources = keepers[:1]
		}
		for _, to := range gainers {
			for _, from := range sources {
				pulls = plan(pulls, to, from, s.Range)
			}
		}
	}

	var leavers []ring.NodeID // told the table, though next omits them
	for _, n := range up {
		if !next.Contains(n.ID()) {
			leavers = append(leavers, n.ID())
		}
	}
	bcastErr := up[0].BroadcastTable(ctx, next, leavers...)
	for _, n := range up {
		if n.Table().Version() < next.Version() {
			return fmt.Errorf("cluster: %s missed table version %d: %w", n.ID(), next.Version(), bcastErr)
		}
	}
	if err := pullAll(ctx, pulls); err != nil {
		return err
	}
	for _, n := range up {
		if !next.Contains(n.ID()) {
			continue
		}
		id := n.ID()
		err := n.dropWhere(func(p keyspace.Key) bool {
			olds, nexts := old.Replicas(p), next.Replicas(p)
			if !slices.Contains(olds, id) || slices.Contains(nexts, id) {
				return false
			}
			// A gainer that is down has not pulled it.
			return !slices.ContainsFunc(nexts, func(r ring.NodeID) bool {
				return live[r] == nil && !slices.Contains(olds, r)
			})
		})
		if err != nil {
			return fmt.Errorf("cluster: %s dropping what it no longer replicates: %w", id, err)
		}
	}
	return nil
}

// settle hands over the records live nodes hold but do not replicate:
// ones a node kept through a move because a new replica was down, and ones
// a node held while it was itself down through a move. Every live replica
// of such a record pulls it from its holder, and the holder then drops the
// records whose replicas are all live, and so have pulled them.
func (l *Local) settle(ctx context.Context) error {
	table := l.Table()
	ranges := table.Ranges()
	up, live := l.liveOf(l.nodes)
	var pulls []planned
	for _, h := range up {
		held := make([]bool, len(ranges))
		h.store.Scan(nil, nil, func(k, v []byte) bool {
			if p, ok := placementOf(k, v); ok && !table.IsReplica(h.ID(), p) {
				for i, r := range ranges {
					if r.Range.Contains(p) {
						held[i] = true
						break
					}
				}
			}
			return true
		})
		for i, r := range ranges {
			for _, id := range table.Replicas(r.Range.Lo) {
				if to := live[id]; held[i] && to != nil {
					pulls = plan(pulls, to, h, r.Range)
				}
			}
		}
	}
	if err := pullAll(ctx, pulls); err != nil {
		return err
	}
	for _, h := range up {
		err := h.dropWhere(func(p keyspace.Key) bool {
			reps := table.Replicas(p)
			return !slices.Contains(reps, h.ID()) &&
				!slices.ContainsFunc(reps, func(id ring.NodeID) bool { return live[id] == nil })
		})
		if err != nil {
			return fmt.Errorf("cluster: %s dropping what it no longer replicates: %w", h.ID(), err)
		}
	}
	return nil
}
