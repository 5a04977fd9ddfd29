package ring

// What follows is used only by this package's tests.

// CapacityShares reports each member's owned fraction of the key space —
// used by tests and the load-balancing ablation to verify proportionality.
func (t *Table) CapacityShares() map[NodeID]float64 {
	shares := make(map[NodeID]float64, len(t.members))
	for i, e := range t.entries {
		next := t.entries[(i+1)%len(t.entries)].start
		sz := Range{Lo: e.start, Hi: next}.Size()
		shares[t.members[e.owner].ID] += float64(sz.Top64()) / float64(^uint64(0))
	}
	return shares
}
