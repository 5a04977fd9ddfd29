package orchestra

import (
	"context"
	"time"

	"orchestra/internal/engine"
	"orchestra/internal/obs"
	"orchestra/internal/optimizer"
	"orchestra/internal/server"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
)

// TraceSpan is one timed stage of a traced query execution — the nodes
// of Result.Trace's span tree (plan, per-fragment scans, ship
// encode/decode, the final pipeline). Remote spans carry start offsets
// relative to their own fragment's clock.
type TraceSpan = obs.Span

// CacheStats are a cache's cumulative hit/miss/eviction counters (see
// Cluster.CacheStats).
type CacheStats = obs.CacheStats

// RecoveryMode selects the reaction to node failure during a query.
type RecoveryMode = engine.RecoveryMode

// Recovery modes, re-exported from the engine.
const (
	// RecoverFail aborts the query and reports the failure.
	RecoverFail = engine.RecoverFail
	// RecoverRestart terminates and restarts over the remaining nodes.
	RecoverRestart = engine.RecoverRestart
	// RecoverIncremental recomputes only the state lost with the failed
	// node (§V-D), with provenance tracking enabled.
	RecoverIncremental = engine.RecoverIncremental
)

// QueryOptions tunes one query execution.
type QueryOptions struct {
	// Node is the initiator index (default 0).
	Node int
	// Epoch pins the snapshot epoch; 0 means current.
	Epoch Epoch
	// Recovery selects the failure reaction (default RecoverFail).
	Recovery RecoveryMode
	// Provenance forces provenance tracking even without incremental
	// recovery (to measure its overhead, §VI-E).
	Provenance bool
	// Timeout bounds the execution (default 5 minutes).
	Timeout time.Duration
	// Trace collects a span tree for the execution (Result.Trace):
	// planning, each fragment's scan passes, ship encode/decode, and the
	// final pipeline, with durations and row/byte counts.
	Trace bool
}

// Result is a completed query.
type Result struct {
	// Columns are the output column names (select aliases where given).
	Columns []string
	// Rows is the complete, duplicate-free answer set.
	Rows []tuple.Row
	// Epoch is the snapshot the query executed against.
	Epoch Epoch
	// Phases is 1 + the number of incremental recovery invocations.
	Phases uint32
	// Restarts counts full restarts performed.
	Restarts int
	// Stats aggregates per-node work counters.
	Stats engine.NodeStats
	// PerNode holds each node's counters keyed by node id.
	PerNode map[string]engine.NodeStats
	// Plan is the optimizer's explanation of the executed plan.
	Plan string
	// Cached reports that the result came from the materialized-view cache
	// (same query text at the same epoch; see Cluster.EnableQueryCache).
	Cached bool
	// TraceID and Trace carry the execution's span tree when
	// QueryOptions.Trace was set.
	TraceID string
	Trace   *TraceSpan
	// Streamed counts rows the plan emitted during execution, and
	// StreamPeak is the high-water mark of result rows buffered at the
	// initiator while it did. Both are 0 for collected executions — every
	// embedded one, see QueryOpts.
	Streamed   int64
	StreamPeak int
}

// Query parses, optimizes, and executes a single-block SQL query with
// default options.
func (c *Cluster) Query(src string) (*Result, error) {
	return c.QueryOpts(src, QueryOptions{})
}

// QueryOpts parses, optimizes, and executes a single-block SQL query by
// calling the query function the served endpoints call
// (server.NodeBackend.Query) with a sink that collects Rows. Unlike a
// served query it never streams during execution: the answer is emitted
// once it is complete, so a node failure can always be recovered by
// restarting (RecoverRestart), and Streamed and StreamPeak stay zero.
//
// With the view cache on (EnableQueryCache) and no provenance, the answer
// is looked up and stored under (query text, epoch). Provenance mode
// bypasses the cache.
func (c *Cluster) QueryOpts(src string, opts QueryOptions) (*Result, error) {
	b, err := c.backend(opts.Node)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()
	var got rowSink
	tail, exec, err := b.Query(ctx, src, engine.Options{
		Provenance: opts.Provenance,
		Recovery:   opts.Recovery,
		Epoch:      opts.Epoch,
	}, opts.Trace, &got)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Columns:  got.cols,
		Rows:     got.rows,
		Epoch:    Epoch(tail.Epoch),
		Phases:   tail.Phases,
		Restarts: tail.Restarts,
		Plan:     tail.Plan,
		Cached:   tail.Cached,
		TraceID:  tail.TraceID,
		Trace:    tail.Trace,
		Streamed: tail.Streamed,
		PerNode:  map[string]engine.NodeStats{},
	}
	if exec != nil { // nil when the view cache answered
		res.Stats = exec.TotalStats()
		res.StreamPeak = exec.StreamPeak
		for id, st := range exec.Stats {
			res.PerNode[string(id)] = st
		}
	}
	return res, nil
}

// rowSink collects an answer as rows the caller owns — the embedded API's
// one materialisation of it. It keeps a copy of each batch the engine lends
// it, owned (Batch.Own) before its rows are taken: a scanned string aliases
// a store leaf, which a held Result must not pin.
type rowSink struct {
	cols []string
	rows []tuple.Row
}

func (s *rowSink) Columns(cols []string) { s.cols = cols }

func (s *rowSink) StreamCols(b *tuple.Batch) error {
	var kept tuple.Batch
	if err := kept.AppendBatchInto(b); err != nil {
		return err
	}
	kept.Own()
	s.rows = append(s.rows, kept.Rows()...)
	return nil
}

// Optimize plans a parsed query against the replicated catalogs, as a
// query initiated at the first live node would be.
func (c *Cluster) Optimize(q *sql.Query) (*engine.Plan, *optimizer.Info, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := optimizer.PlanQuery(ctx, c.liveNode(), q)
	if err != nil {
		return nil, nil, err
	}
	return p.Plan, p.Info, nil
}

// CacheStats snapshots node's cache counters by name: "views" (the
// shared materialized-view cache, when enabled) and "pages" (the node's
// decoded-index-page LRU).
func (c *Cluster) CacheStats(node int) map[string]CacheStats {
	b, err := c.backend(node)
	if err != nil {
		return nil
	}
	return b.CacheStats()
}

// EnableQueryCache turns on materialized-view caching of query results,
// keeping up to maxEntries (query, epoch) result sets shared by every
// node's backend, so any endpoint may both hit and fill it. Hits are
// reported via Result.Cached. Safe to call once, before issuing queries.
func (c *Cluster) EnableQueryCache(maxEntries int) {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.views = server.NewViewCache(maxEntries)
	for _, b := range c.backends {
		b.ShareViews(c.views)
	}
}
