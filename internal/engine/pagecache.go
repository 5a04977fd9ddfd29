package engine

import "orchestra/internal/obs"

// PageCacheStats snapshots the counters of the node's resolved-index-page
// cache (cluster.Node.ResolvePage), which this engine's scans read through.
func (e *Engine) PageCacheStats() obs.CacheStats { return e.node.PageCacheStats() }
