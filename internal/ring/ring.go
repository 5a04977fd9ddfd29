// Package ring implements the hashing-based data partitioning substrate of
// paper §III: node membership, range allocation over the 160-bit key space,
// complete (single-hop) routing tables with immutable snapshots, and replica
// placement.
//
// Two allocation schemes are provided. Pastry-style allocation places each
// node at the SHA-1 hash of its address and assigns every key to the node
// with the nearest hash (Fig 2a); with dozens of nodes this yields highly
// non-uniform ranges. Balanced allocation — the scheme used for all of the
// paper's experiments — divides the key space into evenly sized sequential
// ranges, one per node, assigned in order of node hash ID (Fig 2b).
//
// Tables are immutable: distributed computations operate on a snapshot of the
// routing table taken by the query initiator, so nodes that join mid-query
// never participate in it, and node failures are handled by deriving an
// explicit recovery table (WithoutNodes) rather than by silent rerouting
// (§III-C, §V-C).
package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
)

// NodeID identifies a node: an opaque address string (e.g. "host:port" for
// the TCP transport or "node3" for the simulated transport). A node's
// position on the ring is the SHA-1 hash of its NodeID.
type NodeID string

// Hash returns the ring position of the node.
func (id NodeID) Hash() keyspace.Key {
	return keyspace.Hash([]byte(id))
}

// Scheme selects the range allocation policy.
type Scheme int

const (
	// Balanced divides the key space into equal sequential ranges assigned
	// to nodes in hash order (the paper's experimental configuration).
	Balanced Scheme = iota
	// PastryStyle assigns each key to the node with the nearest hash ID.
	PastryStyle
)

func (s Scheme) String() string {
	switch s {
	case Balanced:
		return "balanced"
	case PastryStyle:
		return "pastry"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Member is a node together with its ring position.
type Member struct {
	ID   NodeID
	Hash keyspace.Key
}

// Range is a half-open clockwise interval [Lo, Hi) of the key space.
// Lo == Hi denotes the full ring.
type Range struct {
	Lo, Hi keyspace.Key
}

// Contains reports whether k lies within the range.
func (r Range) Contains(k keyspace.Key) bool {
	return k.InRange(r.Lo, r.Hi)
}

// Size returns the clockwise extent of the range. A full ring reports the
// maximum key (2^160-1) as an approximation, since 2^160 is not
// representable.
func (r Range) Size() keyspace.Key {
	if r.Lo == r.Hi {
		return keyspace.Max
	}
	return r.Hi.Sub(r.Lo)
}

func (r Range) String() string {
	return fmt.Sprintf("[%s,%s)", r.Lo.Short(), r.Hi.Short())
}

// entry maps the range starting at start to the member with index owner.
type entry struct {
	start keyspace.Key
	owner int
}

// Table is an immutable routing table: the complete membership (recent
// peer-to-peer research shows a complete table gives superior performance up
// to thousands of nodes, §III-B) plus the assignment of key ranges to nodes.
type Table struct {
	version uint64
	scheme  Scheme
	repl    int
	members []Member // sorted by Hash
	byID    map[NodeID]int
	entries []entry // sorted by start key
}

// ErrNoMembers is returned when constructing a table with no nodes.
var ErrNoMembers = errors.New("ring: table requires at least one member")

// ErrUnknownNode is returned when an operation references a node that is not
// a member of the table.
var ErrUnknownNode = errors.New("ring: unknown node")

// New builds a routing table over the given nodes using the scheme.
// replication is the total number of copies (r) kept of each data item;
// it is capped at the member count.
func New(ids []NodeID, scheme Scheme, replication int) (*Table, error) {
	return newVersion(ids, scheme, replication, 1)
}

func newVersion(ids []NodeID, scheme Scheme, replication int, version uint64) (*Table, error) {
	if len(ids) == 0 {
		return nil, ErrNoMembers
	}
	if replication < 1 {
		replication = 1
	}
	seen := make(map[NodeID]bool, len(ids))
	members := make([]Member, 0, len(ids))
	for _, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("ring: duplicate node %q", id)
		}
		seen[id] = true
		members = append(members, Member{ID: id, Hash: id.Hash()})
	}
	sort.Slice(members, func(i, j int) bool {
		return members[i].Hash.Less(members[j].Hash)
	})
	t := &Table{
		version: version,
		scheme:  scheme,
		repl:    replication,
		members: members,
		byID:    make(map[NodeID]int, len(members)),
	}
	for i, m := range members {
		t.byID[m.ID] = i
	}
	switch scheme {
	case Balanced:
		starts, err := keyspace.DivideEvenly(len(members))
		if err != nil {
			return nil, err
		}
		for i, s := range starts {
			t.entries = append(t.entries, entry{start: s, owner: i})
		}
	case PastryStyle:
		n := len(members)
		for i := 0; i < n; i++ {
			prev := members[(i-1+n)%n]
			// Start of node i's range: the clockwise midpoint between the
			// previous node's hash and this node's hash.
			var start keyspace.Key
			if n == 1 {
				start = keyspace.Zero
			} else {
				arc := members[i].Hash.Sub(prev.Hash)
				start = prev.Hash.Add(arc.Half())
			}
			t.entries = append(t.entries, entry{start: start, owner: i})
		}
		sort.Slice(t.entries, func(i, j int) bool {
			return t.entries[i].start.Less(t.entries[j].start)
		})
	default:
		return nil, fmt.Errorf("ring: unknown scheme %v", scheme)
	}
	return t, nil
}

// Version returns the table's version number; derived tables (WithMembers,
// WithoutNodes) always carry a larger version.
func (t *Table) Version() uint64 { return t.version }

// Scheme returns the allocation scheme.
func (t *Table) Scheme() Scheme { return t.scheme }

// Size returns the number of member nodes.
func (t *Table) Size() int { return len(t.members) }

// Members returns the node IDs in hash order. The slice is fresh and may be
// modified by the caller.
func (t *Table) Members() []NodeID {
	out := make([]NodeID, len(t.members))
	for i, m := range t.members {
		out[i] = m.ID
	}
	return out
}

// Contains reports whether id is a member.
func (t *Table) Contains(id NodeID) bool {
	_, ok := t.byID[id]
	return ok
}

// MemberIndex returns the index of id in hash order.
func (t *Table) MemberIndex(id NodeID) (int, bool) {
	i, ok := t.byID[id]
	return i, ok
}

// ownerEntry returns the index into entries of the range containing k.
func (t *Table) ownerEntry(k keyspace.Key) int {
	// Find the last entry with start <= k; if none, the table wraps and the
	// key belongs to the final entry.
	i := sort.Search(len(t.entries), func(i int) bool {
		return k.Less(t.entries[i].start)
	})
	// entries[i-1].start <= k < entries[i].start
	if i == 0 {
		return len(t.entries) - 1 // wrapped
	}
	return i - 1
}

// Owner returns the node responsible for key k.
func (t *Table) Owner(k keyspace.Key) NodeID {
	return t.members[t.entries[t.ownerEntry(k)].owner].ID
}

// OwnerIndex returns the hash-order member index responsible for key k.
func (t *Table) OwnerIndex(k keyspace.Key) int {
	return t.entries[t.ownerEntry(k)].owner
}

// RangesOf returns the ranges owned by node id, in start-key order.
func (t *Table) RangesOf(id NodeID) []Range {
	idx, ok := t.byID[id]
	if !ok {
		return nil
	}
	var out []Range
	for i, e := range t.entries {
		if e.owner != idx {
			continue
		}
		next := t.entries[(i+1)%len(t.entries)].start
		out = append(out, Range{Lo: e.start, Hi: next})
	}
	return out
}

// Ranges returns every (range, owner) pair in start order.
func (t *Table) Ranges() []struct {
	Range Range
	Owner NodeID
} {
	out := make([]struct {
		Range Range
		Owner NodeID
	}, len(t.entries))
	for i, e := range t.entries {
		next := t.entries[(i+1)%len(t.entries)].start
		out[i].Range = Range{Lo: e.start, Hi: next}
		out[i].Owner = t.members[e.owner].ID
	}
	return out
}

// Replicas returns the nodes holding copies of the data for key k: the owner
// plus ⌊r/2⌋ members clockwise and ⌊r/2⌋ counterclockwise from it in ring
// order (paper §III-C, following Pastry's replica placement). The owner is
// always first. At most Size() distinct nodes are returned.
func (t *Table) Replicas(k keyspace.Key) []NodeID {
	owner := t.OwnerIndex(k)
	return t.replicaIndices(owner)
}

func (t *Table) replicaIndices(owner int) []NodeID {
	n := len(t.members)
	half := t.repl / 2
	out := []NodeID{t.members[owner].ID}
	seen := map[int]bool{owner: true}
	for i := 1; i <= half && len(out) < n && len(out) < t.repl+half; i++ {
		cw := (owner + i) % n
		if !seen[cw] {
			seen[cw] = true
			out = append(out, t.members[cw].ID)
		}
		ccw := (owner - i + n*i) % n // n*i keeps the operand positive
		if !seen[ccw] {
			seen[ccw] = true
			out = append(out, t.members[ccw].ID)
		}
	}
	// Cap at r total copies (or n if fewer members than r).
	if len(out) > t.repl {
		out = out[:t.repl]
	}
	return out
}

// IsReplica reports whether node id holds a copy of key k.
func (t *Table) IsReplica(id NodeID, k keyspace.Key) bool {
	for _, r := range t.Replicas(k) {
		if r == id {
			return true
		}
	}
	return false
}

// WithMembers builds a fresh table (next version) over a new node set,
// re-allocating ranges with the same scheme. This is the membership-change
// path for node arrival: a new node only participates once a fresh snapshot
// is taken (§V-C).
func (t *Table) WithMembers(ids []NodeID) (*Table, error) {
	return newVersion(ids, t.scheme, t.repl, t.version+1)
}

// WithoutNodes derives the recovery table used for incremental
// recomputation after the given nodes fail (§V-D): surviving nodes keep
// their ranges, and each failed node's ranges are split evenly among its
// surviving replicas, which hold copies of the failed node's base data.
func (t *Table) WithoutNodes(failed []NodeID) (*Table, error) {
	failedSet := make(map[int]bool, len(failed))
	for _, id := range failed {
		idx, ok := t.byID[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
		}
		failedSet[idx] = true
	}
	if len(failedSet) >= len(t.members) {
		return nil, errors.New("ring: all nodes failed")
	}
	if len(failedSet) == 0 {
		return t, nil
	}

	// Survivor member list.
	var surviveIDs []NodeID
	for _, m := range t.members {
		if !failedSet[t.byID[m.ID]] {
			surviveIDs = append(surviveIDs, m.ID)
		}
	}
	nt := &Table{
		version: t.version + 1,
		scheme:  t.scheme,
		repl:    t.repl,
		byID:    make(map[NodeID]int, len(surviveIDs)),
	}
	for _, id := range surviveIDs {
		nt.members = append(nt.members, Member{ID: id, Hash: id.Hash()})
	}
	sort.Slice(nt.members, func(i, j int) bool {
		return nt.members[i].Hash.Less(nt.members[j].Hash)
	})
	for i, m := range nt.members {
		nt.byID[m.ID] = i
	}

	for i, e := range t.entries {
		next := t.entries[(i+1)%len(t.entries)].start
		rng := Range{Lo: e.start, Hi: next}
		if !failedSet[e.owner] {
			nt.entries = append(nt.entries, entry{start: rng.Lo, owner: nt.byID[t.members[e.owner].ID]})
			continue
		}
		// Failed owner: split the range evenly among surviving replicas of
		// this key range under the ORIGINAL table, which are exactly the
		// nodes guaranteed to hold its base data.
		var heirs []int
		for _, rid := range t.replicaIndices(e.owner) {
			idx := t.byID[rid]
			if !failedSet[idx] {
				heirs = append(heirs, nt.byID[rid])
			}
		}
		if len(heirs) == 0 {
			// Data is lost with r=1 or all replicas failed; fall back to an
			// arbitrary survivor so that queries terminate (they will
			// observe missing base data, which the versioned store reports
			// explicitly).
			heirs = []int{0}
		}
		size := rng.Size()
		step := size.Div(uint64(len(heirs)))
		lo := rng.Lo
		for h := 0; h < len(heirs); h++ {
			nt.entries = append(nt.entries, entry{start: lo, owner: heirs[h]})
			lo = lo.Add(step)
		}
	}
	sort.Slice(nt.entries, func(i, j int) bool {
		return nt.entries[i].start.Less(nt.entries[j].start)
	})
	// Merge adjacent entries with the same owner to keep the table small.
	merged := nt.entries[:0]
	for _, e := range nt.entries {
		if len(merged) > 0 && merged[len(merged)-1].owner == e.owner {
			continue
		}
		merged = append(merged, e)
	}
	nt.entries = merged
	return nt, nil
}

// Segment is a stretch of the key space to which two tables each assign
// one replica set, owner first.
type Segment struct {
	Range
	Old, New []NodeID
}

// Segments cuts the ring at every range boundary of old and of next and
// returns each stretch with its replica sets under both. A membership
// change moves records by segment; a query initiator restarts the leaf
// work of the segments it newly owns after a failure (§V-A).
func Segments(old, next *Table) []Segment {
	var cuts []keyspace.Key
	for _, t := range []*Table{old, next} {
		for _, e := range t.entries {
			cuts = append(cuts, e.start)
		}
	}
	slices.SortFunc(cuts, keyspace.Key.Cmp)
	cuts = slices.Compact(cuts)
	out := make([]Segment, len(cuts))
	for i, lo := range cuts {
		out[i] = Segment{Range{Lo: lo, Hi: cuts[(i+1)%len(cuts)]}, old.Replicas(lo), next.Replicas(lo)}
	}
	return out
}

// Balance returns the ratio of the largest owned key-space share to the
// smallest across members (1.0 is perfectly uniform). This quantifies the
// skew illustrated in Fig 2: Pastry-style allocation can leave one node with
// a large multiple of another's share, while balanced allocation is uniform.
func (t *Table) Balance() float64 {
	sizes := make(map[int]float64)
	for i, e := range t.entries {
		next := t.entries[(i+1)%len(t.entries)].start
		sz := Range{Lo: e.start, Hi: next}.Size()
		// Use the top 64 bits as a float approximation of the share.
		sizes[e.owner] += float64(sz.Top64())
	}
	minSz, maxSz := -1.0, 0.0
	for i := range t.members {
		s := sizes[i]
		if minSz < 0 || s < minSz {
			minSz = s
		}
		if s > maxSz {
			maxSz = s
		}
	}
	if minSz <= 0 {
		return float64(len(t.members)) * maxSz // effectively unbounded skew
	}
	return maxSz / minSz
}

func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ring v%d %s r=%d {", t.version, t.scheme, t.repl)
	for i, e := range t.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s→%s", e.start.Short(), t.members[e.owner].ID)
	}
	b.WriteString("}")
	return b.String()
}

// MarshalBinary encodes the table for dissemination with query plans.
func (t *Table) MarshalBinary() ([]byte, error) {
	var buf []byte
	var tmp [8]byte
	putU64 := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	putU64(t.version)
	putU64(uint64(t.scheme))
	putU64(uint64(t.repl))
	putU64(uint64(len(t.members)))
	for _, m := range t.members {
		putU64(uint64(len(m.ID)))
		buf = append(buf, m.ID...)
	}
	putU64(uint64(len(t.entries)))
	for _, e := range t.entries {
		buf = append(buf, e.start[:]...)
		putU64(uint64(e.owner))
	}
	return buf, nil
}

var errOwner = errors.New("entry owner out of range")

// UnmarshalTable decodes a table encoded with MarshalBinary. Tables arrive
// from peers (table pushes, query prepares, recovery directives): member and
// entry counts are believed only as far as the payload can back them.
func UnmarshalTable(data []byte) (*Table, error) {
	r := codec.NewReader(data)
	version, scheme, repl := r.U64(), r.U64(), r.U64()
	nMembers := r.Bound(r.U64(), 8) // at least its id's length word each
	members := make([]Member, 0, nMembers)
	for i := 0; i < nMembers && r.Err() == nil; i++ {
		id := NodeID(r.Fixed(r.Bound(r.U64(), 1)))
		members = append(members, Member{ID: id, Hash: id.Hash()})
	}
	nEntries := r.Bound(r.U64(), keyspace.Size+8)
	entries := make([]entry, 0, nEntries)
	for i := 0; i < nEntries && r.Err() == nil; i++ {
		var e entry
		copy(e.start[:], r.Fixed(keyspace.Size))
		owner := r.U64()
		if owner >= uint64(nMembers) {
			r.Fail(errOwner)
		}
		e.owner = int(owner)
		entries = append(entries, e)
	}
	if err := r.Done("ring: table"); err != nil {
		return nil, err
	}
	if nMembers == 0 || nEntries == 0 {
		return nil, errors.New("ring: table without members or entries")
	}
	t := &Table{version: version, scheme: Scheme(scheme), repl: int(repl), members: members, entries: entries}
	t.byID = make(map[NodeID]int, nMembers)
	for i, m := range members {
		t.byID[m.ID] = i
	}
	return t, nil
}
