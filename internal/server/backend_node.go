package server

import (
	"context"
	"sort"
	"sync"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/optimizer"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// NodeBackend serves a real TCP cluster.Node (the orchestra-node binary).
// Schemas are resolved from the cluster's replicated catalogs; the
// relation list for the catalog op is the set of relations this server
// has seen (created, published, or queried through it) — catalogs are
// hash-placed across the ring, so no cheap global listing exists.
type NodeBackend struct {
	node *cluster.Node
	eng  *engine.Engine

	mu   sync.Mutex
	rels map[string]struct{}
}

// NewNodeBackend wraps a node and its engine.
func NewNodeBackend(node *cluster.Node, eng *engine.Engine) *NodeBackend {
	return &NodeBackend{node: node, eng: eng, rels: make(map[string]struct{})}
}

func (b *NodeBackend) noteRelation(rel string) {
	b.mu.Lock()
	b.rels[rel] = struct{}{}
	b.mu.Unlock()
}

// Create implements Backend.
func (b *NodeBackend) Create(ctx context.Context, req *CreateRequest) (tuple.Epoch, error) {
	cols, err := ParseColumns(req.Columns)
	if err != nil {
		return 0, err
	}
	if len(cols) == 0 {
		return 0, Errorf(CodeBadRequest, "relation %q has no columns", req.Relation)
	}
	keys := req.Keys
	if len(keys) == 0 {
		keys = []string{cols[0].Name}
	}
	s, err := tuple.NewSchema(req.Relation, cols, keys...)
	if err != nil {
		return 0, Errorf(CodeBadRequest, "%v", err)
	}
	if err := b.node.CreateRelation(ctx, s); err != nil {
		return 0, err
	}
	b.noteRelation(req.Relation)
	return b.node.Gossip().Current(), nil
}

// Publish implements Backend.
func (b *NodeBackend) Publish(ctx context.Context, req *PublishRequest) (tuple.Epoch, error) {
	cat, err := b.node.GetCatalog(ctx, req.Relation)
	if err != nil {
		return 0, Errorf(CodeNotFound, "relation %q: %v", req.Relation, err)
	}
	if err := CoerceTypedRows(cat.Schema, req.TypedRows); err != nil {
		return 0, err
	}
	ups := make([]vstore.Update, len(req.TypedRows))
	for i, row := range req.TypedRows {
		ups[i] = vstore.Update{Op: vstore.OpInsert, Row: row}
	}
	e, err := b.node.PublishWith(ctx, req.Relation, ups, cluster.PublishOptions{ID: req.PublishID})
	if err != nil {
		return 0, err
	}
	b.noteRelation(req.Relation)
	return e, nil
}

// QueryStream implements Backend: parse and plan against the ring-fetched
// catalogs, then RunQuery. When req.Trace is set, the tail's span tree
// covers planning and execution; the engine attaches fragment spans under
// its root.
func (b *NodeBackend) QueryStream(ctx context.Context, req *QueryRequest, out ResultStream) (*QueryTail, error) {
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace(obs.NewTraceID(), "query", string(b.node.ID()))
	}
	planSpan := tr.Begin("plan")
	q, err := sql.Parse(req.SQL)
	if err != nil {
		return nil, Errorf(CodeBadRequest, "%v", err)
	}
	rec, err := RecoveryMode(req.Recovery)
	if err != nil {
		return nil, err
	}
	cat := &nodeCatalog{ctx: ctx, node: b.node}
	plan, info, err := optimizer.Build(q, cat, optimizer.Environment{Nodes: b.node.Table().Size()})
	if err != nil {
		return nil, err
	}
	tr.End(planSpan)
	tr.Attach(nil, planSpan)
	cols := q.OutputColumns(func(table string) ([]string, bool) {
		s, err := cat.Schema(table)
		if err != nil {
			return nil, false
		}
		names := make([]string, len(s.Columns))
		for i, col := range s.Columns {
			names[i] = col.Name
		}
		return names, true
	})
	res, err := RunQuery(ctx, b.eng, plan, engine.Options{
		Epoch:      tuple.Epoch(req.Epoch),
		Recovery:   rec,
		Provenance: req.Provenance,
		Trace:      tr,
	}, cols, true, out)
	if err != nil {
		return nil, err
	}
	engine.RecycleResultBatch(res.Batch)
	for _, ref := range q.From {
		b.noteRelation(ref.Table)
	}
	tail := &QueryTail{
		Epoch:    uint64(res.Epoch),
		Phases:   res.Phases,
		Restarts: res.Restarts,
		Streamed: res.Streamed,
	}
	if req.Explain {
		tail.Plan = optimizer.Explain(plan, info)
	}
	if tr != nil {
		tr.Finish()
		tail.TraceID = tr.ID.String()
		tail.Trace = tr.Root()
	}
	return tail, nil
}

// Catalog implements Backend.
func (b *NodeBackend) Catalog(ctx context.Context, rel string) (*SchemaResponse, error) {
	var names []string
	if rel != "" {
		names = []string{rel}
	} else {
		b.mu.Lock()
		for r := range b.rels {
			names = append(names, r)
		}
		b.mu.Unlock()
		sort.Strings(names)
	}
	out := &SchemaResponse{}
	for _, name := range names {
		cat, err := b.node.GetCatalog(ctx, name)
		if err != nil {
			if rel != "" {
				return nil, Errorf(CodeNotFound, "relation %q: %v", name, err)
			}
			continue // dropped or unreachable; skip in listings
		}
		cols, keys := FormatColumns(cat.Schema)
		out.Relations = append(out.Relations, RelationInfo{
			Relation: name,
			Columns:  cols,
			Keys:     keys,
			Rows:     cat.Rows,
		})
	}
	return out, nil
}

// Epoch implements Backend.
func (b *NodeBackend) Epoch() tuple.Epoch { return b.node.Gossip().Current() }

// Info implements Backend.
func (b *NodeBackend) Info() BackendInfo {
	return BackendInfo{NodeID: string(b.node.ID()), Members: b.node.Table().Size()}
}

// CacheStats implements Backend: this node's decoded-page LRU (node
// backends keep no view cache).
func (b *NodeBackend) CacheStats() map[string]engine.CacheStats {
	return map[string]engine.CacheStats{"pages": b.eng.PageCacheStats()}
}

// DurabilityStats implements Backend from the node's local store.
func (b *NodeBackend) DurabilityStats() (kvstore.DurabilityStats, bool) {
	return b.node.Store().DurabilityStats()
}

// ReplStats implements Backend: the node's replica-repair counters and
// per-peer catch-up lag.
func (b *NodeBackend) ReplStats() (cluster.ReplStats, bool) {
	return b.node.ReplStats(), b.node.Table().Size() > 1
}

// nodeCatalog resolves schemas and row-count statistics from the
// replicated catalogs for the optimizer. The catalog record carries the
// relation's persisted row count, so node-side planning sees real
// statistics — across restarts too.
type nodeCatalog struct {
	ctx  context.Context
	node *cluster.Node

	mu    sync.Mutex
	cache map[string]*vstore.Catalog
}

func (c *nodeCatalog) get(table string) (*vstore.Catalog, error) {
	c.mu.Lock()
	if cat, ok := c.cache[table]; ok {
		c.mu.Unlock()
		return cat, nil
	}
	c.mu.Unlock()
	cat, err := c.node.GetCatalog(c.ctx, table)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.cache == nil {
		c.cache = make(map[string]*vstore.Catalog)
	}
	c.cache[table] = cat
	c.mu.Unlock()
	return cat, nil
}

func (c *nodeCatalog) Schema(table string) (*tuple.Schema, error) {
	cat, err := c.get(table)
	if err != nil {
		return nil, err
	}
	return cat.Schema, nil
}

func (c *nodeCatalog) Stats(table string) optimizer.TableStats {
	cat, err := c.get(table)
	if err != nil {
		return optimizer.TableStats{}
	}
	return optimizer.TableStats{Rows: cat.Rows}
}
