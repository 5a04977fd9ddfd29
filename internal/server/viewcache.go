package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"orchestra/internal/obs"
	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// ViewCache implements the materialized-view extension the paper lists as
// future work (§VIII): "make use of materialized views, perhaps arising
// from the cached results of previous queries". Because storage is fully
// versioned and a query executes against an immutable epoch snapshot, a
// result cached under (query text, epoch) can never go stale — the
// "cost of freshening" the paper worries about reduces to comparing the
// current epoch, and any publish naturally invalidates by advancing it.
//
// The cache is epoch-keyed, so one instance may be shared by the backends
// of several nodes (NodeBackend.ShareViews): a query pinned to an epoch
// answers identically from every initiator, and any node's endpoint may
// both hit and fill it.
//
// An entry keeps its answer as the batch the miss produced and, once a
// frame writer has sent it, as the batch frames that writer encoded. Every
// frame writer cuts and compresses alike (the cut is a constant of the
// stream writer), so a served hit writes those bytes as they are, the
// bytes its own encode would have sent; the embedded collecting sink reads
// the batch.
type ViewCache struct {
	mu  sync.Mutex
	max int
	lru *list.List // front = most recent; values are *viewEntry
	m   map[viewKey]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

type viewKey struct {
	sql   string
	epoch tuple.Epoch
}

// viewEntry is one cached answer. The batch is the one the miss produced;
// the cache owns it from then on (it never goes back to the engine's arena
// pool) and every reader only reads it. Its string values live in a slab
// of their own (Batch.Own): a scanned string aliases a store leaf's slab,
// and a cached answer must pin its own bytes, not every leaf it read.
// Beside the batch the entry memoizes the answer as the first frame writer
// cut and encoded it (emit), so a served hit writes those bytes and
// encodes nothing.
type viewEntry struct {
	key   viewKey
	batch *tuple.Batch
	cols  []string
	plan  string
	memo  atomic.Pointer[viewFrames] // nil until the first recording publishes
}

// viewFrames is an entry's answer as batch frame bodies. Immutable once
// published.
type viewFrames struct {
	frames []viewFrame
}

// viewFrame is one FrameBatch body (after the request ID) and its rows.
type viewFrame struct {
	body []byte
	rows int
}

// NewViewCache returns a cache keeping up to max (query, epoch) answers.
func NewViewCache(max int) *ViewCache {
	return &ViewCache{max: max, lru: list.New(), m: make(map[viewKey]*list.Element)}
}

func (v *ViewCache) get(k viewKey) (*viewEntry, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	el, ok := v.m[k]
	if !ok {
		v.misses++
		return nil, false
	}
	v.hits++
	v.lru.MoveToFront(el)
	return el.Value.(*viewEntry), true
}

// put keeps e, first moving its string values into a slab of their own.
// It runs before the entry is published, so no reader sees the swap.
func (v *ViewCache) put(e *viewEntry) {
	e.batch.Own()
	v.mu.Lock()
	defer v.mu.Unlock()
	if el, ok := v.m[e.key]; ok {
		v.lru.MoveToFront(el)
		el.Value = e
		return
	}
	v.m[e.key] = v.lru.PushFront(e)
	for v.lru.Len() > v.max {
		old := v.lru.Back()
		v.lru.Remove(old)
		delete(v.m, old.Value.(*viewEntry).key)
		v.evictions++
	}
}

func (v *ViewCache) stats() obs.CacheStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return obs.CacheStats{Hits: v.hits, Misses: v.misses, Evictions: v.evictions, Size: v.lru.Len(), Max: v.max}
}

// emit sends the entry's answer through out. A frame writer that has
// sent nothing yet writes the memo. With no memo, it encodes the batch
// while recording what it sends, and publishes that as the memo — the
// first to publish wins, and a failed emission publishes nothing. Every
// other sink, the embedded collecting sink, reads the batch.
func (e *viewEntry) emit(out ResultStream) error {
	w, ok := out.(*streamWriter)
	if !ok || w.RowsStaged() > 0 {
		return out.StreamCols(e.batch)
	}
	if m := e.memo.Load(); m != nil {
		return w.writeFrames(m)
	}
	rec := &viewFrames{}
	w.rec = rec
	err := w.StreamCols(e.batch)
	if err == nil {
		err = w.flushCols()
	}
	w.rec = nil
	if err == nil {
		e.memo.CompareAndSwap(nil, rec)
	}
	return err
}

// viewHit answers a query from a cache entry: one emit, never an
// execution.
func viewHit(e *viewEntry, tr *obs.Trace, out ResultStream) (*wire.QueryTail, error) {
	out.Columns(e.cols)
	if err := e.emit(out); err != nil {
		return nil, err
	}
	tail := &wire.QueryTail{Epoch: uint64(e.key.epoch), Cached: true, Phases: 1, Plan: e.plan}
	if tr != nil {
		// A hit never reaches the engine; its whole trace is the cache
		// lookup (and, when served, the hand-off to the wire).
		root := tr.Root()
		root.CacheHits = 1
		root.Rows = int64(e.batch.N)
		tr.Finish()
		tail.TraceID = tr.ID.String()
		tail.Trace = root
	}
	return tail, nil
}
