package engine

// Column-major batch flow through the operator pipeline. The scan leaf
// decodes tuple records straight into tuple.Batch column vectors; the
// stateless row-shaping operators (select, project, compute's input edge)
// process whole batches — compiled predicates evaluate into a selection
// Bitset and the batch compacts in place, projection rearranges column
// headers in O(arity) — and the ship operator forwards batches to the
// initiator's collection accumulator, so a plain scan query never
// materializes rows anywhere. The first sink that is not batch-aware
// receives the rows materialized from one backing slab. Stateful
// operators (join, aggregate, exchange) keep their per-row form: their
// semantics (provenance unions, sub-group bookkeeping, destination
// batching) are row-granular by design; what they emit becomes a batch
// again at the ship operator, the one place rows are appended into one.
//
// Batches flow only in no-provenance mode wholesale: with provenance on,
// each scanned tuple carries its own mutable Prov bitset (origin node plus
// the requesting index node), so the scan uses the row path there.

import (
	"sync"

	"orchestra/internal/tuple"
)

// colBatch is a columnar batch annotated with the engine metadata every
// row of the batch shares.
type colBatch struct {
	cols  tuple.Batch
	phase uint32
}

// batchSink is implemented by operators that can consume columnar batches
// directly. pushCols transfers no ownership: the callee must either fully
// process the batch (and may mutate it in place) before returning, or
// materialize — it must not retain the batch or its vectors.
type batchSink interface {
	sink
	pushCols(cb *colBatch)
}

// materialize converts the batch into engine tuples: all rows are carved
// from a single backing slab (tuple.Batch.Rows), so the per-row cost is a
// value copy, not an allocation.
func (cb *colBatch) materialize() []Tup {
	rows := cb.cols.Rows()
	ts := make([]Tup, len(rows))
	for i, row := range rows {
		ts[i] = Tup{Row: row, Phase: cb.phase}
	}
	return ts
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

// asBatchSink resolves the batch-aware view of a sink once, at plan build
// time, so the per-batch hand-off is a nil check instead of a type assert.
func asBatchSink(out sink) batchSink {
	bs, _ := out.(batchSink)
	return bs
}

// forwardBatch hands a batch to out: columnar when out is batch-aware
// (outB non-nil), materialized otherwise. Empty batches are dropped — the
// phase gates run on eos, not on data.
func forwardBatch(out sink, outB batchSink, cb *colBatch) {
	if cb.cols.N == 0 {
		return
	}
	if outB != nil {
		outB.pushCols(cb)
		return
	}
	out.push(cb.materialize())
}
