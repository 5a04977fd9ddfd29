package engine

// Hash-keyed operator state, held in columns. A keyIndex numbers the
// distinct key tuples it is shown, reading them straight off key column
// vectors; a groupTable adds one aggregate state per number, in typed
// vectors. Between them they are the state of every stateful operator: the
// aggregate's sub-groups, their merge at emission, the initiator's merge of
// shipped partials, and the join's build index.

import (
	"fmt"
	"hash/maphash"
	"math"

	"orchestra/internal/tuple"
)

// keyIndex assigns dense ids (0, 1, 2, … in order of first appearance) to
// distinct key tuples: a hash over the key vectors, an open-addressing
// table, and the key columns of every id kept as a batch for the equality
// test — no encoded key and no allocation per key. Two keys are equal when
// their columns have the same types and bits, which is what equality of
// their tuple.EncodeKey encodings means (-0 and +0 differ, a NaN equals
// itself, an integer never equals a float).
type keyIndex struct {
	keys   tuple.Batch // row id: the key tuple numbered id
	hashes []uint64    // hash of each id's key
	table  []int32     // id+1 at the key's probe position, 0 = empty; a power of two long
	ids    []int32     // scratch: lookup's answer
	hbuf   []uint64    // scratch: hashes of the rows being looked up
}

var keySeed = maphash.MakeSeed()

// keyVecs lists the key columns of b.
func keyVecs(b *tuple.Batch, cols []int) []*tuple.ColVec {
	vecs := make([]*tuple.ColVec, len(cols))
	for i, c := range cols {
		vecs[i] = &b.Cols[c]
	}
	return vecs
}

// vecsOf lists the given columns as key vectors.
func vecsOf(cols []tuple.ColVec) []*tuple.ColVec {
	vecs := make([]*tuple.ColVec, len(cols))
	for i := range cols {
		vecs[i] = &cols[i]
	}
	return vecs
}

// hashKeys writes the hash of each of the n key tuples into dst (reused
// when large enough), one pass per key column.
func hashKeys(dst []uint64, vecs []*tuple.ColVec, n int) []uint64 {
	dst = append(dst[:0], make([]uint64, n)...)
	mix := func(h, x uint64) uint64 {
		h = (h ^ x) * 0x9E3779B97F4A7C15
		return h ^ h>>32
	}
	for _, v := range vecs {
		switch v.T {
		case tuple.Int64:
			for i, x := range v.I64[:n] {
				dst[i] = mix(dst[i], uint64(x))
			}
		case tuple.Float64:
			for i, x := range v.F64[:n] {
				dst[i] = mix(dst[i], math.Float64bits(x))
			}
		case tuple.String:
			for i, x := range v.Str[:n] {
				dst[i] = mix(dst[i], maphash.String(keySeed, x))
			}
		}
	}
	return dst
}

// lookup returns the id of each of the n key tuples, in a slice valid until
// the index's next lookup. With add, a key not seen before gets the next
// id; without, -1 — and no error. Key columns whose types differ from the
// indexed keys' match nothing, and cannot be added.
func (x *keyIndex) lookup(vecs []*tuple.ColVec, n int, add bool) ([]int32, error) {
	x.ids = append(x.ids[:0], make([]int32, n)...)
	ids := x.ids
	if add && x.len() == 0 {
		types := make([]tuple.Type, len(vecs))
		for c, v := range vecs {
			types[c] = v.T
		}
		x.keys.ResetTypes(types)
	}
	same := len(vecs) == len(x.keys.Cols)
	for c := 0; same && c < len(vecs); c++ {
		same = vecs[c].T == x.keys.Cols[c].T
	}
	if !same || len(x.table) == 0 && !add {
		if add {
			return nil, fmt.Errorf("engine: key columns changed type: have %v", x.keys.Types())
		}
		for i := range ids {
			ids[i] = -1
		}
		return ids, nil
	}
	x.hbuf = hashKeys(x.hbuf, vecs, n)
	for i, h := range x.hbuf {
		if add && 2*(len(x.hashes)+1) > len(x.table) {
			x.rehash(max(16, 2*len(x.table)))
		}
		mask := len(x.table) - 1
		p := int(h) & mask
		for ; x.table[p] != 0; p = (p + 1) & mask {
			if id := x.table[p] - 1; x.hashes[id] == h && x.equal(int(id), vecs, i) {
				break
			}
		}
		if x.table[p] == 0 && add {
			x.hashes = append(x.hashes, h)
			x.table[p] = int32(len(x.hashes))
			x.appendKey(vecs, i)
		}
		ids[i] = x.table[p] - 1
	}
	return ids, nil
}

// len is the number of distinct keys.
func (x *keyIndex) len() int { return len(x.hashes) }

func (x *keyIndex) equal(id int, vecs []*tuple.ColVec, i int) bool {
	for c, v := range vecs {
		w := &x.keys.Cols[c]
		switch v.T {
		case tuple.Int64:
			if w.I64[id] != v.I64[i] {
				return false
			}
		case tuple.Float64:
			if math.Float64bits(w.F64[id]) != math.Float64bits(v.F64[i]) {
				return false
			}
		case tuple.String:
			if w.Str[id] != v.Str[i] {
				return false
			}
		}
	}
	return true
}

func (x *keyIndex) appendKey(vecs []*tuple.ColVec, i int) {
	for c, v := range vecs {
		w := &x.keys.Cols[c]
		switch v.T {
		case tuple.Int64:
			w.I64 = append(w.I64, v.I64[i])
		case tuple.Float64:
			w.F64 = append(w.F64, v.F64[i])
		case tuple.String:
			w.Str = append(w.Str, v.Str[i])
		}
	}
	x.keys.N++
}

// rehash rebuilds the table at the given size (a power of two), placing
// every id by its stored hash.
func (x *keyIndex) rehash(size int) {
	x.table = make([]int32, size)
	mask := size - 1
	for id, h := range x.hashes {
		p := int(h) & mask
		for x.table[p] != 0 {
			p = (p + 1) & mask
		}
		x.table[p] = int32(id + 1)
	}
}

// reset forgets every key, keeping the key column types and the capacity.
func (x *keyIndex) reset() {
	x.keys.Truncate(0)
	x.hashes = x.hashes[:0]
	clear(x.table)
}

// compact keeps exactly the ids whose bit is set in keep, renumbering them
// densely in order.
func (x *keyIndex) compact(keep Bitset) {
	x.keys.CompactWords(keep)
	x.hashes = compactVec(x.hashes, keep)
	x.keys.N = len(x.hashes)
	x.rehash(len(x.table))
}

func compactVec[T any](xs []T, keep Bitset) []T {
	w := 0
	for i, x := range xs {
		if keep.Has(i) {
			xs[w] = x
			w++
		}
	}
	return xs[:w]
}

// groupTable is hash-aggregation state: one slot per distinct key, each
// spec's running state in typed vectors indexed by slot. It folds raw input
// rows and — with each spec's merge form (COUNT: sum of counts; SUM, MIN,
// MAX: themselves; AVG: sum of sums and of counts) — partial-layout rows,
// so the same table is the aggregate operator's sub-groups, their merge at
// emission and the initiator's FinalAgg.
type groupTable struct {
	keyIndex
	specs []AggSpec
	cols  []aggCol
}

// aggCol is one spec's state across the slots.
type aggCol struct {
	n    []int64      // inputs folded: COUNT's value, AVG's divisor
	isum []int64      // SUM: running sum while every input was integral
	fsum []float64    // SUM, AVG: running sum
	best tuple.ColVec // MIN, MAX: the candidate
	// allInt: every SUM input so far was integral. A column has one type,
	// so this is per spec, not per slot.
	allInt bool
}

func newGroupTable(specs []AggSpec) *groupTable {
	t := &groupTable{specs: specs, cols: make([]aggCol, len(specs))}
	for i := range t.cols {
		t.cols[i].allInt = true
	}
	return t
}

// grown extends xs with zeros to n values.
func grown[T any](xs []T, n int) []T {
	if n <= len(xs) {
		return xs
	}
	return append(xs, make([]T, n-len(xs))...)
}

// fold adds b's rows to the slots their key vectors name, creating slots
// for new keys, and returns each row's slot (valid until the next fold). In
// input form (partial < 0) spec i reads column specs[i].Col; in merge form
// the specs' partial states are read in order from column partial on — one
// column per spec, (sum, count) for AVG. A column the fold cannot read as
// that — missing, or of a type the state does not hold — is an error.
func (t *groupTable) fold(vecs []*tuple.ColVec, b *tuple.Batch, partial int) ([]int32, error) {
	ids, err := t.lookup(vecs, b.N, true)
	if err != nil {
		return nil, err
	}
	slots := t.len()
	col := func(c int, want ...tuple.Type) (*tuple.ColVec, error) {
		if c < 0 || c >= len(b.Cols) {
			return nil, fmt.Errorf("engine: aggregate input has no column %d", c)
		}
		for _, w := range want {
			if b.Cols[c].T == w {
				return &b.Cols[c], nil
			}
		}
		return nil, fmt.Errorf("engine: aggregate input column %d is %v, want %v", c, b.Cols[c].T, want)
	}
	next := partial
	for j, spec := range t.specs {
		st := &t.cols[j]
		st.n = grown(st.n, slots)
		c := spec.Col
		if partial >= 0 {
			c = next
			next++
		}
		counts := []int64(nil) // added to n row by row; nil: one each
		var v *tuple.ColVec
		switch spec.Func {
		case AggCount:
			if partial >= 0 {
				if v, err = col(c, tuple.Int64); err != nil {
					return nil, err
				}
				counts = v.I64
			}
		case AggSum, AggAvg:
			if v, err = col(c, tuple.Int64, tuple.Float64, tuple.String); err != nil {
				return nil, err
			}
			st.isum, st.fsum = grown(st.isum, slots), grown(st.fsum, slots)
			switch v.T {
			case tuple.Int64:
				for i, g := range ids {
					st.isum[g] += v.I64[i]
					st.fsum[g] += float64(v.I64[i])
				}
			case tuple.Float64:
				st.allInt = false
				for i, g := range ids {
					st.fsum[g] += v.F64[i]
				}
			default:
				st.allInt = false // a string sums as zero (Value.AsFloat)
			}
			if partial >= 0 && spec.Func == AggAvg {
				if v, err = col(next, tuple.Int64); err != nil {
					return nil, err
				}
				counts = v.I64
				next++
			}
		case AggMin, AggMax:
			if v, err = col(c, tuple.Int64, tuple.Float64, tuple.String); err != nil {
				return nil, err
			}
			if st.best.T == 0 {
				st.best.T = v.T
			} else if v, err = col(c, st.best.T); err != nil {
				return nil, err
			}
			min := spec.Func == AggMin
			switch v.T {
			case tuple.Int64:
				st.best.I64 = grown(st.best.I64, slots)
				foldBest(st.best.I64, st.n, ids, v.I64, min)
			case tuple.Float64:
				st.best.F64 = grown(st.best.F64, slots)
				foldBest(st.best.F64, st.n, ids, v.F64, min)
			case tuple.String:
				st.best.Str = grown(st.best.Str, slots)
				foldBest(st.best.Str, st.n, ids, v.Str, min)
			}
			continue // foldBest counted
		default:
			return nil, fmt.Errorf("engine: unknown aggregate %v", spec.Func)
		}
		if counts == nil {
			for _, g := range ids {
				st.n[g]++
			}
		} else {
			for i, g := range ids {
				st.n[g] += counts[i]
			}
		}
	}
	return ids, nil
}

// foldBest keeps the smaller (or larger) of each slot's candidate and the
// row's value, ordered as Value.Cmp orders them: a NaN never replaces and is
// never replaced.
func foldBest[T int64 | float64 | string](best []T, seen []int64, ids []int32, xs []T, min bool) {
	for i, g := range ids {
		if x := xs[i]; seen[g] == 0 || (min && x < best[g]) || (!min && x > best[g]) {
			best[g] = x
		}
		seen[g]++
	}
}

// render returns the table's rows: the key columns, then one value per spec
// when final, or its partial state (two columns for AVG) otherwise. This is
// the one place an aggregate state becomes output. The batch aliases the
// table's vectors: the table must not be folded into again while it is used.
func (t *groupTable) render(final bool) *tuple.Batch {
	out := &tuple.Batch{N: t.len(), Cols: append([]tuple.ColVec(nil), t.keys.Cols...)}
	if out.N == 0 {
		return &tuple.Batch{}
	}
	ints := func(xs []int64) tuple.ColVec { return tuple.ColVec{T: tuple.Int64, I64: xs} }
	floats := func(xs []float64) tuple.ColVec { return tuple.ColVec{T: tuple.Float64, F64: xs} }
	for j, spec := range t.specs {
		st := &t.cols[j]
		switch spec.Func {
		case AggCount:
			out.Cols = append(out.Cols, ints(st.n))
		case AggSum:
			if st.allInt {
				out.Cols = append(out.Cols, ints(st.isum))
			} else {
				out.Cols = append(out.Cols, floats(st.fsum))
			}
		case AggMin, AggMax:
			out.Cols = append(out.Cols, st.best)
		case AggAvg:
			if !final {
				out.Cols = append(out.Cols, floats(st.fsum), ints(st.n))
				continue
			}
			avg := make([]float64, len(st.n))
			for i, n := range st.n {
				if n != 0 {
					avg[i] = st.fsum[i] / float64(n)
				}
			}
			out.Cols = append(out.Cols, floats(avg))
		}
	}
	return out
}

// compact keeps exactly the slots whose bit is set in keep, renumbering
// them densely in order.
func (t *groupTable) compact(keep Bitset) {
	t.keyIndex.compact(keep)
	for j := range t.cols {
		st := &t.cols[j]
		st.n, st.isum, st.fsum = compactVec(st.n, keep), compactVec(st.isum, keep), compactVec(st.fsum, keep)
		st.best.I64, st.best.F64, st.best.Str = compactVec(st.best.I64, keep), compactVec(st.best.F64, keep), compactVec(st.best.Str, keep)
	}
}
