package engine

import "orchestra/internal/vstore"

// CacheStats are a cache's cumulative hit/miss/eviction counts plus its
// current and maximum sizes.
type CacheStats = vstore.CacheStats

// PageCacheStats snapshots the counters of the node's resolved-index-page
// cache (cluster.Node.ResolvePage), which this engine's scans read through.
func (e *Engine) PageCacheStats() CacheStats { return e.node.PageCacheStats() }
