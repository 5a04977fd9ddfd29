// Package engine implements ORCHESTRA's reliable distributed query
// processor (paper §V): a dataflow ("push") engine whose operators run on
// every node of a routing-table snapshot, exchanging destination-batched,
// compressed tuple blocks; every tuple carries the set of nodes that
// processed it (provenance), enabling incremental recomputation after node
// failures with correct, complete, duplicate-free results.
package engine

import "math/bits"

// Prov is a provenance set: the set of snapshot-member indices whose nodes
// processed this tuple or any tuple used to derive it (§V-D). With dozens
// to hundreds of nodes, a small bitset suffices; the empty set is nil.
type Prov []uint64

// NewProv returns a set sized for n members with no bits set.
func NewProv(n int) Prov {
	return make(Prov, (n+63)/64)
}

// ProvOf returns a set with exactly the given member bits.
func ProvOf(n int, members ...int) Prov {
	p := NewProv(n)
	for _, m := range members {
		p.Set(m)
	}
	return p
}

// Set marks member i as having processed the tuple.
func (p Prov) Set(i int) {
	p[i/64] |= 1 << (i % 64)
}

// Has reports whether member i is in the set.
func (p Prov) Has(i int) bool {
	w := i / 64
	return w < len(p) && p[w]&(1<<(i%64)) != 0
}

// Union returns a new set containing both inputs' members.
func (p Prov) Union(o Prov) Prov {
	a, b := p, o
	if len(b) > len(a) {
		a, b = b, a
	}
	out := make(Prov, len(a))
	copy(out, a)
	for i := range b {
		out[i] |= b[i]
	}
	return out
}

// Intersects reports whether the sets share any member — the "tainted"
// test: a tuple is tainted if its provenance intersects the failed set.
func (p Prov) Intersects(o Prov) bool {
	n := len(p)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if p[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of members in the set.
func (p Prov) Count() int {
	c := 0
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (p Prov) Clone() Prov {
	out := make(Prov, len(p))
	copy(out, p)
	return out
}

// Key returns a map key identifying the exact set: aggregate operators
// partition each group into sub-groups per contributing provenance set, so
// that sub-groups touching failed nodes can be dropped without losing the
// rest (§V-D). The number of distinct keys is bounded by node-set
// combinations, not input size.
func (p Prov) Key() string {
	// Trim trailing zero words so equal sets encode equally regardless of
	// allocation width.
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	buf := make([]byte, n*8)
	for i := 0; i < n; i++ {
		w := p[i]
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(w >> (8 * j))
		}
	}
	return string(buf)
}

// ProvFromKey reconstructs a set from Key().
func ProvFromKey(k string) Prov {
	n := (len(k) + 7) / 8
	p := make(Prov, n)
	for i := 0; i < len(k); i++ {
		p[i/8] |= uint64(k[i]) << (8 * (i % 8))
	}
	return p
}

// Bitset is a plain selection bitset: the batch predicate evaluators mark
// the rows of a column-major batch that pass a filter, and the batch is
// compacted in one pass over the set bits. Distinct from Prov only in
// intent — Prov encodes node sets with set-algebra semantics, Bitset is a
// transient per-batch row mask.
type Bitset []uint64

// NewBitset returns a zeroed bitset with capacity for n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set marks bit i.
func (s Bitset) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (s Bitset) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetFirst sets bits [0, n).
func (s Bitset) SetFirst(n int) {
	for i := 0; i < n>>6; i++ {
		s[i] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		s[n>>6] |= (1 << rem) - 1
	}
}

// Count returns the number of set bits.
func (s Bitset) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndWith intersects s with o in place.
func (s Bitset) AndWith(o Bitset) {
	for i := range s {
		s[i] &= o[i]
	}
}

// OrWith unions o into s in place.
func (s Bitset) OrWith(o Bitset) {
	for i := range s {
		s[i] |= o[i]
	}
}

// FlipFirst complements bits [0, n).
func (s Bitset) FlipFirst(n int) {
	for i := 0; i < n>>6; i++ {
		s[i] = ^s[i]
	}
	if rem := uint(n) & 63; rem != 0 {
		s[n>>6] ^= (1 << rem) - 1
	}
}
