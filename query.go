package orchestra

import (
	"context"
	"fmt"
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
type CacheStats = engine.CacheStats

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
	// Recovery selects the failure reaction (default RecoverRestart).
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

	// sink, when set, receives the answer instead of Result.Rows — the
	// serving path's hand-off to the wire. Plans that stream emit into it
	// during execution (Result.Streamed); everything else arrives once
	// the complete, duplicate-free answer exists at the initiator.
	sink server.ResultStream
}

// Result is a completed query.
type Result struct {
	// Columns are the output column names (select aliases where given).
	Columns []string
	// Rows is the complete, duplicate-free answer set (nil on the serving
	// path, where the answer went to the wire instead).
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
	// Streamed counts rows the serving path emitted during execution;
	// when positive the answer never existed whole at the initiator.
	Streamed int64
	// StreamPeak is the high-water mark of result rows buffered at the
	// initiator while streaming (0 for collected executions).
	StreamPeak int
}

// Query parses, optimizes, and executes a single-block SQL query with
// default options.
func (c *Cluster) Query(src string) (*Result, error) {
	return c.QueryOpts(src, QueryOptions{})
}

// QueryOpts parses, optimizes, and executes a single-block SQL query —
// the one embedded query path, which the served endpoints share.
//
// With the view cache on (EnableQueryCache) and no provenance, the answer
// is looked up and stored under (query text, epoch): the cache holds
// whole answers, so such a query never streams during execution.
// Provenance mode bypasses the cache.
func (c *Cluster) QueryOpts(src string, opts QueryOptions) (*Result, error) {
	if opts.Node < 0 || opts.Node >= len(c.engines) {
		return nil, fmt.Errorf("orchestra: no node %d", opts.Node)
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Minute
	}
	var tr *obs.Trace
	if opts.Trace {
		tr = obs.NewTrace(obs.NewTraceID(), "query", c.NodeID(opts.Node))
	}
	c.mu.Lock()
	views := c.views
	c.mu.Unlock()
	if opts.Provenance {
		views = nil
	}
	var key viewKey
	if views != nil {
		// The cache is epoch-keyed and shared across serving nodes: a
		// query pinned to an epoch answers identically from every
		// initiator, so any node's endpoint may both hit and fill it. An
		// unpinned query resolves the epoch at its own serving node.
		if opts.Epoch == 0 {
			opts.Epoch = c.currentEpochAt(opts.Node)
		}
		key = viewKey{sql: src, epoch: opts.Epoch}
		if e, ok := views.get(key); ok {
			return viewHit(e, tr, opts.sink)
		}
	}
	planSpan := tr.Begin("plan")
	q, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, info, err := c.Optimize(q)
	if err != nil {
		return nil, err
	}
	tr.End(planSpan)
	tr.Attach(nil, planSpan)
	res := &Result{Columns: outputColumns(q, c), Plan: optimizer.Explain(plan, info)}

	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()
	eng := c.engines[opts.Node]
	eopts := engine.Options{Provenance: opts.Provenance, Recovery: opts.Recovery, Epoch: opts.Epoch, Trace: tr}
	var eres *engine.Result
	if opts.sink != nil {
		eres, err = server.RunQuery(ctx, eng, plan, eopts, res.Columns, views == nil, opts.sink)
	} else {
		eres, err = eng.Run(ctx, plan, eopts)
	}
	if err != nil {
		return nil, err
	}
	if opts.sink == nil {
		// The embedded API's one materialisation of the answer as rows.
		res.Rows = eres.Batch.Rows()
	}
	if views != nil {
		// Ownership: a batch that entered the cache is never returned to
		// the arena pool — hits borrow it, read-only, for as long as the
		// entry lives (and the frame writer may still be reading it after
		// an eviction); the garbage collector reclaims it.
		views.put(&viewEntry{key: key, batch: eres.Batch, cols: res.Columns, plan: res.Plan})
	} else {
		engine.RecycleResultBatch(eres.Batch)
	}
	res.Epoch = eres.Epoch
	res.Phases = eres.Phases
	res.Restarts = eres.Restarts
	res.Stats = eres.TotalStats()
	res.Streamed = eres.Streamed
	res.StreamPeak = eres.StreamPeak
	res.PerNode = make(map[string]engine.NodeStats, len(eres.Stats))
	for id, st := range eres.Stats {
		res.PerNode[string(id)] = st
	}
	if tr != nil {
		tr.Finish()
		res.TraceID = tr.ID.String()
		res.Trace = tr.Root()
	}
	return res, nil
}

// Optimize runs the Volcano-style optimizer against the cluster's catalog.
func (c *Cluster) Optimize(q *sql.Query) (*engine.Plan, *optimizer.Info, error) {
	env := optimizer.Environment{Nodes: c.liveNodes()}
	return optimizer.Build(q, c.catalog(), env)
}

// liveNodes counts nodes in the current routing table.
func (c *Cluster) liveNodes() int {
	return c.local.Node(0).Table().Size()
}

// outputColumns derives display names for the result columns.
func outputColumns(q *sql.Query, c *Cluster) []string {
	return q.OutputColumns(func(table string) ([]string, bool) {
		s, ok := c.Schema(table)
		if !ok {
			return nil, false
		}
		return columnNames(s), true
	})
}

// columnNames lists a schema's column names in order.
func columnNames(s *tuple.Schema) []string {
	names := make([]string, len(s.Columns))
	for i, col := range s.Columns {
		names[i] = col.Name
	}
	return names
}
