package ring

import (
	"errors"
	"fmt"
	"sort"

	"orchestra/internal/keyspace"
)

// This file implements the load-balancing extension the paper lists as
// future work (§VIII): "implement automatic load-balancing by adjusting
// the routing table, to compensate for unequal network bandwidth or
// available machine resources". Instead of dividing the key space into
// equal ranges, NewWeighted divides it proportionally to per-node capacity
// weights, so a node with twice the capacity owns twice the key space —
// and therefore roughly twice the data and twice the query work under
// uniform hashing.

// Weight expresses a node's relative capacity (CPU, disk, or bandwidth —
// whatever resource the deployment is bound on).
type Weight struct {
	ID       NodeID
	Capacity float64
}

// ErrBadWeight is returned for non-positive capacities.
var ErrBadWeight = errors.New("ring: capacities must be positive")

// NewWeighted builds a routing table whose contiguous ranges are sized
// proportionally to each node's capacity. Nodes are still placed in hash
// order (so the assignment is deterministic and independent of the weight
// list's order), preserving the single-contiguous-range property that the
// storage layer's colocation optimization depends on (§III-A).
func NewWeighted(weights []Weight, replication int) (*Table, error) {
	if len(weights) == 0 {
		return nil, ErrNoMembers
	}
	if replication < 1 {
		replication = 1
	}
	total := 0.0
	seen := make(map[NodeID]bool, len(weights))
	for _, w := range weights {
		if w.Capacity <= 0 {
			return nil, fmt.Errorf("%w: %s has %v", ErrBadWeight, w.ID, w.Capacity)
		}
		if seen[w.ID] {
			return nil, fmt.Errorf("ring: duplicate node %q", w.ID)
		}
		seen[w.ID] = true
		total += w.Capacity
	}

	members := make([]Member, len(weights))
	capOf := make(map[NodeID]float64, len(weights))
	for i, w := range weights {
		members[i] = Member{ID: w.ID, Hash: w.ID.Hash()}
		capOf[w.ID] = w.Capacity
	}
	sort.Slice(members, func(i, j int) bool {
		return members[i].Hash.Less(members[j].Hash)
	})

	t := &Table{
		version: 1,
		scheme:  Balanced, // weighted allocation is a balanced-scheme variant
		repl:    replication,
		members: members,
		byID:    make(map[NodeID]int, len(members)),
	}
	for i, m := range members {
		t.byID[m.ID] = i
	}

	// Walk the ring assigning each node (in hash order) a contiguous range
	// sized by its share of the total capacity. Range starts are computed
	// as cumulative fractions of the key space scaled into the top 64 bits
	// (ample resolution for dozens-to-hundreds of nodes).
	start := keyspace.Zero
	cum := 0.0
	for i, m := range members {
		t.entries = append(t.entries, entry{start: start, owner: i})
		cum += capOf[m.ID] / total
		if i < len(members)-1 {
			start = keyspace.FromFraction(cum)
		}
	}
	return t, nil
}
