package orchestra

import (
	"container/list"
	"sync"

	"orchestra/internal/engine"
	"orchestra/internal/obs"
	"orchestra/internal/server"
	"orchestra/internal/tuple"
)

// viewCache implements the materialized-view extension the paper lists as
// future work (§VIII): "make use of materialized views, perhaps arising
// from the cached results of previous queries". Because storage is fully
// versioned and a query executes against an immutable epoch snapshot, a
// result cached under (query text, epoch) can never go stale — the
// "cost of freshening" the paper worries about reduces to comparing the
// current epoch, and any publish naturally invalidates by advancing it.
type viewCache struct {
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
	epoch Epoch
}

// viewEntry is one cached answer. The batch is the one the miss produced;
// the cache owns it from then on (it never goes back to the engine's arena
// pool) and every hit only reads it.
type viewEntry struct {
	key   viewKey
	batch *tuple.Batch
	cols  []string
	plan  string
}

func newViewCache(max int) *viewCache {
	return &viewCache{max: max, lru: list.New(), m: make(map[viewKey]*list.Element)}
}

func (v *viewCache) get(k viewKey) (*viewEntry, bool) {
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

func (v *viewCache) put(e *viewEntry) {
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

func (v *viewCache) stats() engine.CacheStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return engine.CacheStats{Hits: v.hits, Misses: v.misses, Evictions: v.evictions, Size: v.lru.Len(), Max: v.max}
}

// CacheStats snapshots the cluster's cache counters by name: "views"
// (the shared materialized-view cache, when enabled) and "pages" (the
// node's decoded-index-page LRU).
func (c *Cluster) CacheStats(node int) map[string]CacheStats {
	out := make(map[string]CacheStats, 2)
	c.mu.Lock()
	views := c.views
	c.mu.Unlock()
	if views != nil {
		out["views"] = views.stats()
	}
	if node >= 0 && node < len(c.engines) {
		out["pages"] = c.engines[node].PageCacheStats()
	}
	return out
}

// EnableQueryCache turns on materialized-view caching of query results,
// keeping up to maxEntries (query, epoch) result sets. Hits are reported
// via Result.Cached. Safe to call once, before issuing queries.
func (c *Cluster) EnableQueryCache(maxEntries int) {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	c.mu.Lock()
	c.views = newViewCache(maxEntries)
	c.mu.Unlock()
}

// viewHit answers a query from a cache entry: one StreamCols of the
// borrowed batch on the serving path, the caller's own rows otherwise.
func viewHit(e *viewEntry, tr *obs.Trace, sink server.ResultStream) (*Result, error) {
	res := &Result{
		Columns: e.cols,
		Epoch:   e.key.epoch,
		Phases:  1,
		Plan:    e.plan,
		Cached:  true,
		PerNode: map[string]engine.NodeStats{},
	}
	if sink != nil {
		sink.Columns(e.cols)
		if err := sink.StreamCols(e.batch); err != nil {
			return nil, err
		}
	} else {
		res.Rows = e.batch.Rows()
	}
	if tr != nil {
		// A hit never reaches the engine; its whole trace is the cache
		// lookup (and, when served, the hand-off to the wire).
		root := tr.Root()
		root.CacheHits = 1
		root.Rows = int64(e.batch.N)
		tr.Finish()
		res.TraceID = tr.ID.String()
		res.Trace = root
	}
	return res, nil
}
