// Package kvstore is an embedded ordered key-value store: an in-memory
// B+tree over byte-string keys with optional write-ahead-log persistence.
// It plays the role BerkeleyDB Java Edition played in the paper's prototype
// (§VI: "uses BerkeleyDB Java Edition 3.3.69 for persistent storage of
// data") — each ORCHESTRA node keeps its share of tuples, index pages, and
// coordinator records in one of these stores.
//
// Memory layout. A write copies its record once, into the payload the WAL
// and the shipping ring already carry, and the tree keeps the key and value
// as sub-slices of that payload. Each leaf keeps its records' bytes in one
// slab, in key order, so a scan walks memory the way the paper's data pass
// walks the disk ("the tuples from each index page are stored nearby on
// disk", §V-B): once the writes since its last pack exceed 1/packShare of
// its entries, the leaf copies all its live records into one new exact-size
// slab (pack), so at most that share of its entries lie outside the slab. Stored bytes are never rewritten — a pack allocates a new
// slab and moves only the leaf's slice headers — so a slice handed out by
// Get, GetRetained, Scan or Iter stays valid and unchanged for as long as
// its holder keeps it.
package kvstore

import (
	"bytes"
	"unsafe"
)

// branching is the maximum number of keys per B+tree node. 64 keeps nodes
// within a couple of cache lines of key headers while keeping the tree
// shallow for millions of entries.
const branching = 64

// packShare sets the pack rule: a leaf packs once more than 1/packShare of
// its entries were written (inserted, replaced or deleted) since its last
// pack. Each pack copies at most packShare times the writes that caused
// it, so a write costs an amortized constant number of copies.
const packShare = 4

// entry is one record of a leaf.
type entry struct {
	key, val []byte
}

type node struct {
	leaf     bool
	keys     [][]byte // internal only: separators, each its own copy
	children []*node  // internal only; len(children) == len(keys)+1
	ents     []entry  // leaves only, in key order
	// slab holds the bytes of the leaf's packed entries, in key order; it
	// is written once, by pack, and never appended to or rewritten. stale
	// counts the writes since the last pack — an upper bound on the
	// entries whose bytes lie outside the slab.
	slab  []byte
	stale int
	next  *node // leaf chain for range scans
}

// newLeaf and newInternal allocate a node together with arrays of the
// largest size it reaches before it splits: one object per node, and no
// append ever reallocates them.
func newLeaf() *node {
	l := new(struct {
		node
		ents [branching + 1]entry
	})
	l.leaf, l.node.ents = true, l.ents[:0]
	return &l.node
}

func newInternal() *node {
	in := new(struct {
		node
		keys     [branching + 1][]byte
		children [branching + 2]*node
	})
	in.node.keys, in.node.children = in.keys[:0], in.children[:0]
	return &in.node
}

// child returns the index of the child of internal node n that covers key;
// keys equal to a separator live in its right child.
func (n *node) child(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.keys[m], key) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// search returns the index of the first entry of leaf n with key >= key.
func (n *node) search(key []byte) int {
	lo, hi := 0, len(n.ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.ents[m].key, key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// holds reports whether b's bytes lie in the leaf's slab (an empty slice
// holds no bytes, so it is always held).
func (n *node) holds(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	if len(n.slab) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(n.slab)))
	return p >= lo && p < lo+uintptr(len(n.slab))
}

// packed reports whether all of e's bytes lie in the leaf's slab.
func (n *node) packed(e entry) bool { return n.holds(e.key) && n.holds(e.val) }

// loose counts the leaf's entries with bytes outside its slab.
func (n *node) loose() int {
	c := 0
	for _, e := range n.ents {
		if !n.packed(e) {
			c++
		}
	}
	return c
}

// maybePack packs the leaf once its writes since the last pack pass the
// pack rule.
func (n *node) maybePack() {
	if n.stale*packShare > len(n.ents) {
		n.pack()
	}
}

// pack copies the leaf's live records into one new exact-size slab, in key
// order, and points the entries at it. The old slab and payloads are left
// as they are for any reader still holding slices of them.
func (n *node) pack() {
	size := 0
	for _, e := range n.ents {
		size += len(e.key) + len(e.val)
	}
	var slab []byte
	if size > 0 {
		slab = make([]byte, 0, size)
	}
	for i := range n.ents {
		e := &n.ents[i]
		e.key, slab = carve(slab, e.key)
		e.val, slab = carve(slab, e.val)
	}
	n.slab, n.stale = slab, 0
}

// carve appends b to slab and returns the copy, capped at its own end so
// that no holder can append into the bytes after it.
func carve(slab, b []byte) ([]byte, []byte) {
	if len(b) == 0 {
		return nil, slab
	}
	at := len(slab)
	slab = append(slab, b...)
	return slab[at:len(slab):len(slab)], slab
}

// btree is the core in-memory structure; it is not safe for concurrent use
// (Store adds locking).
type btree struct {
	root *node
	size int
}

func newBtree() *btree {
	return &btree{root: newLeaf()}
}

// get returns the value and whether the key exists.
func (t *btree) get(key []byte) ([]byte, bool) {
	n := t.leafFor(key)
	i := n.search(key)
	if i < len(n.ents) && bytes.Equal(n.ents[i].key, key) {
		return n.ents[i].val, true
	}
	return nil, false
}

// put inserts or replaces; returns true if the key was new. The tree keeps
// key and val as given — the caller hands over slices whose bytes nobody
// rewrites — until the leaf's next pack copies them into its slab.
func (t *btree) put(key, val []byte) bool {
	if len(key) == 0 {
		key = nil
	}
	if len(val) == 0 {
		val = nil
	}
	inserted, splitKey, splitNode := t.insert(t.root, key, val)
	if splitNode != nil {
		root := newInternal()
		root.keys = append(root.keys, splitKey)
		root.children = append(root.children, t.root, splitNode)
		t.root = root
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert descends into n; on child split, the new right sibling and its
// separator key bubble up.
func (t *btree) insert(n *node, key, val []byte) (inserted bool, upKey []byte, upNode *node) {
	if n.leaf {
		i := n.search(key)
		if i < len(n.ents) && bytes.Equal(n.ents[i].key, key) {
			// Replace both halves, so the old record's buffer is released.
			if n.packed(n.ents[i]) {
				n.stale++
			}
			n.ents[i] = entry{key, val}
			n.maybePack()
			return false, nil, nil
		}
		n.ents = append(n.ents, entry{})
		copy(n.ents[i+1:], n.ents[i:])
		n.ents[i] = entry{key, val}
		n.stale++
		if len(n.ents) > branching {
			upKey, upNode = t.splitLeaf(n)
		} else {
			n.maybePack()
		}
		return true, upKey, upNode
	}

	i := n.child(key)
	inserted, childKey, childNode := t.insert(n.children[i], key, val)
	if childNode != nil {
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = childKey
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = childNode
		if len(n.keys) > branching {
			upKey, upNode = t.splitInternal(n)
		}
	}
	return inserted, upKey, upNode
}

// splitLeaf moves the upper half of n into a new right sibling. Both halves
// keep reading the shared slab (neither ever writes it), each counts its
// own loose entries, and either packs if that passes the rule. The
// separator is its own copy, so an interior node never pins a slab.
func (t *btree) splitLeaf(n *node) ([]byte, *node) {
	mid := len(n.ents) / 2
	right := newLeaf()
	right.ents = append(right.ents, n.ents[mid:]...)
	right.slab, right.next = n.slab, n.next
	clear(n.ents[mid:])
	n.ents = n.ents[:mid]
	n.next = right
	for _, h := range [2]*node{n, right} {
		h.stale = h.loose()
		h.maybePack()
	}
	return bytes.Clone(right.ents[0].key), right
}

func (t *btree) splitInternal(n *node) ([]byte, *node) {
	mid := len(n.keys) / 2
	upKey := n.keys[mid]
	right := newInternal()
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	clear(n.keys[mid:])
	clear(n.children[mid+1:])
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return upKey, right
}

// delete removes a key; returns whether it existed. Deletion is lazy: leaves
// may underflow but remain valid, which suits ORCHESTRA's log-structured,
// insert-dominated workload (§IV: instead of replacing a tuple we record a
// new version; deletions are rare). A deleted packed record counts as a
// write, so the leaf's next pack reclaims its slab space.
func (t *btree) delete(key []byte) bool {
	n := t.leafFor(key)
	i := n.search(key)
	if i >= len(n.ents) || !bytes.Equal(n.ents[i].key, key) {
		return false
	}
	if n.packed(n.ents[i]) {
		n.stale++
	} else {
		n.stale--
	}
	copy(n.ents[i:], n.ents[i+1:])
	n.ents[len(n.ents)-1] = entry{}
	n.ents = n.ents[:len(n.ents)-1]
	n.maybePack()
	t.size--
	return true
}

// packAll packs every leaf with a write since its last pack, so no leaf
// holds bytes outside its slab (Open calls it after replay, which leaves
// entries aliasing the recovery buffers).
func (t *btree) packAll() {
	for n := t.first(); n != nil; n = n.next {
		if n.stale > 0 {
			n.pack()
		}
	}
}

// first returns the leftmost leaf.
func (t *btree) first() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// leafFor returns the leaf that would contain key, for scan starts.
func (t *btree) leafFor(key []byte) *node {
	n := t.root
	for !n.leaf {
		n = n.children[n.child(key)]
	}
	return n
}

// scan calls fn for each pair with lo <= key < hi in key order; nil lo means
// from the start, nil hi means to the end. fn returning false stops the scan.
func (t *btree) scan(lo, hi []byte, fn func(k, v []byte) bool) {
	it := t.iter()
	for it.Seek(lo); it.Valid(); it.Next() {
		e := &it.n.ents[it.i]
		if hi != nil && bytes.Compare(e.key, hi) >= 0 {
			return
		}
		if !fn(e.key, e.val) {
			return
		}
	}
}

// Iterator is a forward cursor over the tree's pairs in key order, with
// O(depth) repositioning via Seek — the primitive sparse merge walks use to
// skip whole subtrees between wanted keys instead of visiting every pair.
// An Iterator is only valid while the tree is unmodified (Store.Iter holds
// the read lock for the callback's duration).
type Iterator struct {
	t *btree
	n *node
	i int
}

// Valid reports whether the iterator is positioned on a pair.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current pair's key. The slice is the store's own: its
// bytes are never rewritten and may be retained read-only (see Store.Scan's
// contract).
func (it *Iterator) Key() []byte { return it.n.ents[it.i].key }

// Value returns the current pair's value, under the same contract as Key.
func (it *Iterator) Value() []byte { return it.n.ents[it.i].val }

// Next advances to the next pair in key order.
func (it *Iterator) Next() {
	it.i++
	it.skipExhausted()
}

// skipExhausted walks the leaf chain past empty or exhausted leaves (lazy
// deletion can leave empty leaves in the chain).
func (it *Iterator) skipExhausted() {
	for it.n != nil && it.i >= len(it.n.ents) {
		it.n = it.n.next
		it.i = 0
	}
}

// Seek positions the iterator at the first pair with key >= key,
// descending from the root (O(depth), independent of the current
// position). Seeking backwards is legal; nil seeks to the first pair.
func (it *Iterator) Seek(key []byte) {
	if key == nil {
		it.n, it.i = it.t.first(), 0
	} else {
		it.n = it.t.leafFor(key)
		it.i = it.n.search(key)
	}
	it.skipExhausted()
}

// iter returns an unpositioned iterator; call Seek before use.
func (t *btree) iter() Iterator { return Iterator{t: t} }

// depth returns the tree height (for tests and stats).
func (t *btree) depth() int {
	d := 1
	n := t.root
	for !n.leaf {
		d++
		n = n.children[0]
	}
	return d
}
