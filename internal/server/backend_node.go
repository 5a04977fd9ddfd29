package server

import (
	"context"
	"errors"
	"sort"
	"sync"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/obs"
	"orchestra/internal/optimizer"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
	"orchestra/internal/wire"
)

// NodeBackend is the work behind create / publish / query / catalog /
// stats at one cluster.Node and its engine — the same code whether the
// node is an orchestra-node process on real TCP or one of an embedded
// Cluster's nodes. Schemas and row counts are read from the cluster's
// replicated catalogs; nothing about a relation is kept in the process.
type NodeBackend struct {
	mu    sync.Mutex
	node  *cluster.Node
	eng   *engine.Engine
	views *ViewCache // nil unless ShareViews was called
	// rels is the set of relations this backend has seen — created,
	// published or queried through it, or found in the local store.
	// Catalogs are hash-placed across the ring, so no cheap global listing
	// exists; this is what the catalog op lists.
	rels map[string]struct{}
}

// NewNodeBackend wraps a node and its engine.
func NewNodeBackend(node *cluster.Node, eng *engine.Engine) *NodeBackend {
	return &NodeBackend{node: node, eng: eng, rels: make(map[string]struct{})}
}

// Rebind points the backend at a restarted node and its new engine, so an
// endpoint served off this backend keeps answering across the restart.
func (b *NodeBackend) Rebind(node *cluster.Node, eng *engine.Engine) {
	b.mu.Lock()
	b.node, b.eng = node, eng
	b.mu.Unlock()
}

// ShareViews makes v this backend's view cache. A Cluster hands one cache
// to all its nodes' backends so hits are shared across endpoints.
func (b *NodeBackend) ShareViews(v *ViewCache) {
	b.mu.Lock()
	b.views = v
	b.mu.Unlock()
}

// current snapshots the node, engine and view cache a request works with.
func (b *NodeBackend) current() (*cluster.Node, *engine.Engine, *ViewCache) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.node, b.eng, b.views
}

// Node returns the node the backend currently fronts.
func (b *NodeBackend) Node() *cluster.Node {
	node, _, _ := b.current()
	return node
}

func (b *NodeBackend) noteRelation(rel string) {
	b.mu.Lock()
	b.rels[rel] = struct{}{}
	b.mu.Unlock()
}

// Relations lists the relations this backend has seen, sorted. Every
// listing first folds in the catalog records in the node's own store, so a
// freshly reopened durable node lists what it holds before any request
// touched it.
func (b *NodeBackend) Relations() []string {
	prefix := vstore.CatalogKVKey("")
	var stored []string // scanned outside b.mu, which every request takes
	b.Node().Store().ScanPrefix(prefix, func(k, _ []byte) bool {
		stored = append(stored, string(k[len(prefix):]))
		return true
	})
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range stored {
		b.rels[r] = struct{}{}
	}
	names := make([]string, 0, len(b.rels))
	for r := range b.rels {
		names = append(names, r)
	}
	sort.Strings(names)
	return names
}

// Create implements Backend; with no keys given the first column is the
// key.
func (b *NodeBackend) Create(ctx context.Context, req *wire.CreateRequest) (tuple.Epoch, error) {
	cols, err := ParseColumns(req.Columns)
	if err != nil {
		return 0, err
	}
	if len(cols) == 0 {
		return 0, wire.Errorf(wire.CodeBadRequest, "relation %q has no columns", req.Relation)
	}
	keys := req.Keys
	if len(keys) == 0 {
		keys = []string{cols[0].Name}
	}
	s, err := tuple.NewSchema(req.Relation, cols, keys...)
	if err != nil {
		return 0, wire.Errorf(wire.CodeBadRequest, "%v", err)
	}
	if err := b.CreateSchema(ctx, s); err != nil {
		if errors.Is(err, cluster.ErrRelationExists) {
			return 0, wire.Errorf(wire.CodeBadRequest, "%v", err)
		}
		return 0, err
	}
	return b.Epoch(), nil
}

// CreateSchema registers a relation across the cluster.
func (b *NodeBackend) CreateSchema(ctx context.Context, s *tuple.Schema) error {
	if err := b.Node().CreateRelation(ctx, s); err != nil {
		return err
	}
	b.noteRelation(s.Relation)
	return nil
}

// Publish implements Backend: the rows as one batch of inserts.
func (b *NodeBackend) Publish(ctx context.Context, req *wire.PublishRequest) (tuple.Epoch, error) {
	return b.PublishRows(ctx, req.Relation, vstore.OpInsert, req.TypedRows, req.PublishID)
}

// PublishRows coerces rows onto the relation's column types
// (CoerceTypedRows) and applies them as one update log of kind op, one
// epoch. A nonzero pubID makes a retry safe: re-publishing it returns the
// original commit's epoch without applying the batch again.
func (b *NodeBackend) PublishRows(ctx context.Context, relation string, op vstore.Op, rows []tuple.Row, pubID uint64) (tuple.Epoch, error) {
	node := b.Node()
	cat, err := node.GetCatalog(ctx, relation)
	if errors.Is(err, cluster.ErrNoSuchRelation) {
		return 0, wire.Errorf(wire.CodeNotFound, "%v", err)
	}
	if err != nil {
		return 0, err
	}
	if err := CoerceTypedRows(cat.Schema, rows); err != nil {
		return 0, err
	}
	ups := make([]vstore.Update, len(rows))
	for i, row := range rows {
		ups[i] = vstore.Update{Op: op, Row: row}
	}
	e, err := node.PublishWith(ctx, relation, ups, cluster.PublishOptions{ID: pubID})
	if err != nil {
		return 0, err
	}
	b.noteRelation(relation)
	return e, nil
}

// planError marks a failure before execution began — parse, catalog
// lookup, bind or plan — for QueryStream's error map. It unwraps to the
// cause, so errors.As on the cause's type still works for embedded callers.
type planError struct{ error }

func (e planError) Unwrap() error { return e.error }

// Query is the one query function: the served endpoints call it with the
// frame writer as out, an embedded Cluster with a sink that collects rows.
// It consults the view cache, else parses, plans and runs src, and emits
// the answer through out once the complete, duplicate-free answer exists
// at the initiator — or, when the caller passes out as opts.Sink too and
// the plan streams, during execution. A caller does that only if it can
// live with engine.StreamAbortedError: once rows have left, a node failure
// can no longer be recovered by restarting, whatever opts.Recovery says.
// It returns the wire's tail (Plan always set) and, unless the view cache
// answered, the engine's result for its counters; that result's Batch is
// spent — already emitted, then owned by the view cache or recycled. With
// trace set the tail carries a span tree covering planning and execution;
// the engine attaches fragment spans under its root.
//
// With a view cache and no provenance, the answer is looked up and stored
// under (query text, epoch): the cache holds whole answers, so such a
// query never streams during execution. A hit costs no parse and no
// catalog read.
func (b *NodeBackend) Query(ctx context.Context, src string, opts engine.Options, trace bool, out ResultStream) (*wire.QueryTail, *engine.Result, error) {
	node, eng, views := b.current()
	if trace {
		opts.Trace = obs.NewTrace(obs.NewTraceID(), "query", string(node.ID()))
	}
	tr := opts.Trace
	if opts.Provenance {
		views = nil
	}
	var key viewKey
	if views != nil {
		// An unpinned query resolves the epoch at its own serving node.
		if opts.Epoch == 0 {
			opts.Epoch = node.Gossip().Current()
		}
		key = viewKey{sql: src, epoch: opts.Epoch}
		opts.Sink = nil
		if e, ok := views.get(key); ok {
			tail, err := viewHit(e, tr, out)
			return tail, nil, err
		}
	}
	planSpan := tr.Begin("plan")
	p, err := optimizer.PlanSQL(ctx, node, src)
	if err != nil {
		return nil, nil, planError{err}
	}
	tr.End(planSpan)
	tr.Attach(nil, planSpan)

	out.Columns(p.Columns)
	res, err := eng.Run(ctx, p.Plan, opts)
	if err != nil {
		// Frames may already be on the wire (mid-stream fault after
		// emission): the error End frame invalidates them for the client.
		return nil, nil, err
	}
	if views == nil {
		err = out.StreamCols(res.Batch)
		engine.RecycleResultBatch(res.Batch)
	} else {
		// The miss emits its entry the way a hit does, so a served miss
		// leaves the memo its first hit writes.
		e := &viewEntry{key: key, batch: res.Batch, cols: p.Columns, plan: p.Explain}
		if err = e.emit(out); err != nil {
			engine.RecycleResultBatch(res.Batch)
		} else {
			// Ownership: a batch that entered the cache is never returned
			// to the arena pool — hits borrow it, read-only, for as long as
			// the entry lives (and the frame writer may still be reading it
			// after an eviction); the garbage collector reclaims it.
			views.put(e)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	for _, ref := range p.Query.From {
		b.noteRelation(ref.Table)
	}
	tail := &wire.QueryTail{
		Epoch:    uint64(res.Epoch),
		Phases:   res.Phases,
		Restarts: res.Restarts,
		Plan:     p.Explain,
		Streamed: res.Streamed,
	}
	if tr != nil {
		tr.Finish()
		tail.TraceID = tr.ID.String()
		tail.Trace = tr.Root()
	}
	return tail, res, nil
}

// QueryStream implements Backend: Query, with its failures typed for the
// wire by typeQueryError.
func (b *NodeBackend) QueryStream(ctx context.Context, req *wire.QueryRequest, out ResultStream) (*wire.QueryTail, error) {
	rec, err := RecoveryMode(req.Recovery)
	if err != nil {
		return nil, err
	}
	tail, _, err := b.Query(ctx, req.SQL, engine.Options{
		Epoch:      tuple.Epoch(req.Epoch),
		Recovery:   rec,
		Provenance: req.Provenance,
		Sink:       out, // a client re-issues a query aborted mid-stream
	}, req.Trace, out)
	if err != nil {
		return nil, typeQueryError(ctx, err)
	}
	if !req.Explain {
		tail.Plan = ""
	}
	return tail, nil
}

// typeQueryError is the one error map of the one query function. A query
// that cannot be parsed, bound or planned is the client's fault; one
// naming an unknown relation is not_found; one whose catalogs no replica
// could supply was refused before any execution, so the client may retry
// it elsewhere. Execution failures, and a deadline that expired while
// planning, keep the server's defaults (timeout, internal).
func typeQueryError(ctx context.Context, err error) error {
	var unknown *optimizer.UnknownTableError
	switch {
	case !errors.As(err, new(planError)) || ctx.Err() != nil:
		return err
	case errors.As(err, &unknown):
		return wire.Errorf(wire.CodeNotFound, "%v", err)
	case errors.Is(err, cluster.ErrUnavailable):
		return wire.Errorf(wire.CodeUnavailable, "%v", err)
	}
	return wire.Errorf(wire.CodeBadRequest, "%v", err)
}

// Catalog implements Backend.
func (b *NodeBackend) Catalog(ctx context.Context, rel string) (*wire.SchemaResponse, error) {
	names := []string{rel}
	if rel == "" {
		names = b.Relations()
	}
	node := b.Node()
	out := &wire.SchemaResponse{}
	for _, name := range names {
		cat, err := node.GetCatalog(ctx, name)
		if err != nil {
			if rel != "" {
				return nil, wire.Errorf(wire.CodeNotFound, "relation %q: %v", name, err)
			}
			continue // dropped or unreachable; skip in listings
		}
		cols, keys := FormatColumns(cat.Schema)
		out.Relations = append(out.Relations, wire.RelationInfo{
			Relation: name,
			Columns:  cols,
			Keys:     keys,
			Rows:     cat.Rows,
		})
	}
	return out, nil
}

// Epoch implements Backend.
func (b *NodeBackend) Epoch() tuple.Epoch {
	return b.Node().Gossip().Current()
}

// Info implements Backend.
func (b *NodeBackend) Info() BackendInfo {
	node := b.Node()
	return BackendInfo{NodeID: string(node.ID()), Members: node.Table().Size()}
}

// CacheStats implements Backend: this node's decoded-page LRU, plus the
// view cache when one is shared with it.
func (b *NodeBackend) CacheStats() map[string]obs.CacheStats {
	_, eng, views := b.current()
	out := map[string]obs.CacheStats{"pages": eng.PageCacheStats()}
	if views != nil {
		out["views"] = views.stats()
	}
	return out
}

// DurabilityStats implements Backend from the node's local store.
func (b *NodeBackend) DurabilityStats() (obs.DurabilityStats, bool) {
	return b.Node().Store().DurabilityStats()
}

// ReplStats implements Backend: the node's replica-repair counters and
// per-peer catch-up lag.
func (b *NodeBackend) ReplStats() (obs.ReplStats, bool) {
	node := b.Node()
	return node.ReplStats(), node.Table().Size() > 1
}
