package engine

// Column-major batch flow through the operator pipeline. A colBatch is the
// only thing that crosses an operator edge, and column vectors are the only
// thing an operator evaluates over or keeps: the scan leaf decodes tuple
// records straight into tuple.Batch column vectors, select evaluates its
// compiled predicate into a selection Bitset and compacts the batch in
// place, project rearranges column headers in O(arity), compute evaluates
// one vector per expression, aggregate folds the typed vectors into its
// group table's state vectors, join appends the rows it must retain to one
// build batch per side and gathers its matches into a batch, the rehash
// partitions rows into one pending batch per destination, and the ship
// operator hands batches to the initiator — so no query boxes a row between
// the store and the client (a covering scan decodes key values out of the
// tuple IDs, its one row-shaped step).
//
// With provenance on, a batch carries a provenance vector beside its
// columns, one set per row. Rows usually share a handful of sets (one per
// index node that requested them, one per stamping node), and the vector
// shares them too: a set reachable from a batch is immutable — clone before
// mutating — which is what keeps recovery support at a slice header per
// row instead of an allocation per row (§V-D's ≤2 % overhead).

import (
	"sync"

	"orchestra/internal/tuple"
)

// colBatch is a columnar batch with the engine metadata of its rows: the
// execution phase they all belong to and, in provenance mode, the set of
// nodes that processed each. It is the one batch type of a fragment, from
// the scan's decode to the initiator's sealed answer.
type colBatch struct {
	cols  *tuple.Batch
	phase uint32
	// prov is nil iff provenance is off; otherwise prov[i] is row i's set.
	// Equal sets may share one Prov — never mutate one in place.
	prov []Prov
}

// newColBatch returns an empty batch of the given phase; its first append
// fixes its column types.
func newColBatch(phase uint32) *colBatch {
	return &colBatch{cols: &tuple.Batch{}, phase: phase}
}

// compactRows keeps exactly the rows of cb whose bit is set in sel, in the
// columns and in the provenance vector beside them.
func compactRows(cb *colBatch, sel Bitset) {
	kept := cb.prov[:0]
	for i, p := range cb.prov {
		if sel.Has(i) {
			kept = append(kept, p)
		}
	}
	cb.prov = kept
	cb.cols.CompactWords(sel)
}

// dropTainted compacts cb to the rows whose provenance avoids failed. It
// returns the rows it kept when it dropped any (nil otherwise), for a
// caller that holds more per row than the batch does.
func dropTainted(cb *colBatch, failed Prov) Bitset {
	keep := NewBitset(len(cb.prov))
	clean := 0
	for i, p := range cb.prov {
		if !p.Intersects(failed) {
			keep.Set(i)
			clean++
		}
	}
	if clean == len(cb.prov) {
		return nil
	}
	compactRows(cb, keep)
	return keep
}

// appendBatch appends all of src's rows (and their provenance) onto cb,
// which owns its vectors; an empty cb adopts src's column types.
func (cb *colBatch) appendBatch(src *colBatch) error {
	if err := cb.cols.AppendBatchInto(src.cols); err != nil {
		return err
	}
	cb.prov = append(cb.prov, src.prov...)
	return nil
}

// appendRows appends the rows of src listed in sel (and their provenance)
// onto cb, which owns its vectors.
func (cb *colBatch) appendRows(src *colBatch, sel []int) error {
	if err := cb.cols.AppendRowsFrom(src.cols, sel); err != nil {
		return err
	}
	if src.prov != nil {
		for _, i := range sel {
			cb.prov = append(cb.prov, src.prov[i])
		}
	}
	return nil
}

// sameProv reports whether a and b are one shared set (not merely equal
// ones): the cheap test that lets per-set work — stamping, dictionary
// coding, sub-group lookup — run once per run of rows instead of per row.
func sameProv(a, b Prov) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// appendBatchKey appends the order-preserving key encoding of row i's cols
// — tuple.EncodeKey, read straight off the column vectors.
func appendBatchKey(dst []byte, b *tuple.Batch, i int, cols []int) []byte {
	for _, c := range cols {
		dst = tuple.AppendKeyValue(dst, b.Cols[c].Value(i))
	}
	return dst
}

// resultBatchPool recycles the columnar slabs that back query answers:
// each query's Result.Batch returns here (RecycleResultBatch) once its
// wire frames are flushed or its rows copied out, so steady state reuses
// the same vector arenas instead of re-growing (and collecting) them per
// query.
var resultBatchPool = sync.Pool{New: func() any { return &tuple.Batch{} }}

// maxPooledBatchRows bounds what returns to the pool: one freak result
// must not pin its slabs in the pool forever.
const maxPooledBatchRows = 1 << 20

// getResultBatch takes an empty, untyped batch from the pool. Its first
// AppendBatchInto/DecodeBatchInto adopts the incoming column types while
// reusing whatever vector capacity the previous life left behind.
func getResultBatch() *tuple.Batch {
	b := resultBatchPool.Get().(*tuple.Batch)
	b.ResetTypes(nil)
	return b
}

// RecycleResultBatch returns a query answer's columnar slab to the arena
// pool. Callers must be completely done with the batch — including every
// Slice view and every string still aliasing its vectors' backing. A batch
// that something keeps (a view-cache entry) is never recycled: the next
// query would overwrite it under its readers.
func RecycleResultBatch(b *tuple.Batch) {
	if b == nil || b.N > maxPooledBatchRows {
		return
	}
	b.Truncate(0)
	b.ClearStrings() // a parked batch must not pin its result's strings
	resultBatchPool.Put(b)
}
