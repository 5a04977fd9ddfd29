package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"orchestra/internal/obs"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// GetCatalog fetches a relation's catalog.
func (n *Node) GetCatalog(ctx context.Context, relation string) (*vstore.Catalog, error) {
	data, err := n.GetRecord(ctx, vstore.CatalogPlacement(relation), vstore.CatalogKVKey(relation))
	if errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchRelation, relation)
	}
	if err != nil {
		return nil, err
	}
	return vstore.DecodeCatalog(data)
}

// GetCoordinator fetches the relation coordinator record for an exact
// modification epoch (callers resolve the effective epoch via the catalog).
func (n *Node) GetCoordinator(ctx context.Context, relation string, e tuple.Epoch) (*vstore.Coordinator, error) {
	data, err := n.GetRecord(ctx, vstore.CoordPlacement(relation, e), vstore.CoordKVKey(relation, e))
	if err != nil {
		return nil, err
	}
	return vstore.DecodeCoordinator(data)
}

// CreateRelation registers a new relation's schema in the CDSS. The relation
// becomes visible to publishes and queries immediately; it has no tuples
// until the first publish.
func (n *Node) CreateRelation(ctx context.Context, schema *tuple.Schema) error {
	if _, err := n.GetCatalog(ctx, schema.Relation); err == nil {
		return fmt.Errorf("%w: %s", ErrRelationExists, schema.Relation)
	} else if !errors.Is(err, ErrNoSuchRelation) {
		return err
	}
	cat := &vstore.Catalog{Schema: schema}
	return n.PutRecord(ctx, vstore.CatalogPlacement(schema.Relation),
		vstore.CatalogKVKey(schema.Relation), vstore.EncodeCatalog(cat))
}

// Publish applies a participant's update log to the versioned store as one
// batch at a fresh epoch (§IV): each index range the batch touches gains a
// new version — a small delta on its current one, or the rewritten page(s)
// when the compaction rule says so (vstore.Coordinator.Apply) — new tuple
// versions are bulk-loaded to their data nodes, a new coordinator record
// links changed and unchanged ranges, and the catalog gains the new epoch.
// It returns the publish epoch.
//
// Write ordering guarantees snapshot consistency for readers: tuples and
// page records (one replicated round: neither can be reached until the
// records after them land) before the coordinator, the coordinator before
// the catalog —
// so a reader that can see epoch e in the catalog can reach all of e's data.
//
// Publishes to the same relation are serialized: within this process by
// the per-relation mutex, and across processes by a short-lived lease on
// the relation acquired from the catalog's primary replica (lease.go) —
// the whole sequence is a distributed read-modify-write of the relation's
// catalog, and two concurrent publishes building on the same base epoch
// would each link only their own pages, so the last catalog write would
// win and silently drop the other's tuples.
func (n *Node) Publish(ctx context.Context, relation string, ups []vstore.Update) (tuple.Epoch, error) {
	return n.PublishWith(ctx, relation, ups, PublishOptions{})
}

// PublishOptions tunes one publish.
type PublishOptions struct {
	// ID is a caller-chosen idempotency token. When non-zero, a publish
	// whose ID matches a recently applied one (Catalog.RecentPubs) is not
	// re-applied: the previously committed epoch is returned instead. This
	// is what makes a publish safe to retry after a lost acknowledgement.
	ID uint64
}

// PublishWith is Publish with per-call options.
func (n *Node) PublishWith(ctx context.Context, relation string, ups []vstore.Update, opts PublishOptions) (tuple.Epoch, error) {
	mu := n.relationLock(relation)
	mu.Lock()
	defer mu.Unlock()
	releaseLease, err := n.acquireRelLease(ctx, relation)
	if err != nil {
		return 0, fmt.Errorf("cluster: publish %s: %w", relation, err)
	}
	defer releaseLease()
	cat, err := n.GetCatalog(ctx, relation)
	if err != nil {
		return 0, err
	}
	if e, ok := cat.FindPub(opts.ID); ok {
		return e, nil // duplicate of an already-applied publish
	}
	epoch := n.gsp.Next()

	prev := &vstore.Coordinator{Relation: relation} // no data yet
	if latest, ok := cat.LatestEpoch(); ok {
		if prev, err = n.GetCoordinator(ctx, relation, latest); err != nil {
			return 0, fmt.Errorf("cluster: fetch coordinator %s@%d: %w", relation, latest, err)
		}
	}
	coord, versions, writes, err := prev.Apply(cat.Schema, epoch, ups, n.cfg.MaxPageEntries,
		func(ref vstore.PageRef) (*vstore.Page, error) {
			n.pubResolved.Inc()
			p, _, err := n.ResolvePage(ctx, ref)
			return p, err
		})
	if err != nil {
		return 0, err
	}

	// 1. Tuple versions and the page records that index them, bulk, one
	// batch per destination.
	puts := make([]RecordPut, 0, len(writes)+len(versions))
	for _, w := range writes {
		val, err := vstore.EncodeTupleRecord(cat.Schema, vstore.TupleRecord{ID: w.ID, Row: w.Row})
		if err != nil {
			return 0, err
		}
		puts = append(puts, RecordPut{Placement: w.Hash, KVKey: w.KVKey(), Value: val})
	}
	for _, v := range versions {
		ref, val := v.Ref(), v.Encode()
		puts = append(puts, RecordPut{Placement: ref.Placement(), KVKey: vstore.PageKVKey(ref.ID), Value: val})
		if v.Delta != nil {
			n.pubDelta.Inc()
		} else {
			n.pubFull.Inc()
		}
		n.pubPageBytes.Add(uint64(len(val)))
	}
	if err := n.PutRecords(ctx, puts); err != nil {
		return 0, fmt.Errorf("cluster: publish tuples and pages: %w", err)
	}

	// 2. Coordinator record for (relation, epoch).
	if err := n.PutRecord(ctx, vstore.CoordPlacement(relation, epoch),
		vstore.CoordKVKey(relation, epoch), vstore.EncodeCoordinator(coord)); err != nil {
		return 0, fmt.Errorf("cluster: publish coordinator: %w", err)
	}

	// 3. Catalog update makes the epoch visible — and, atomically with
	// it, the publish mark (idempotent-retry dedup) and the refreshed
	// row-count statistic.
	cat2 := cat.WithEpoch(epoch)
	for _, u := range ups {
		switch u.Op {
		case vstore.OpInsert:
			cat2.Rows++
		case vstore.OpDelete:
			if cat2.Rows > 0 {
				cat2.Rows--
			}
		}
	}
	cat2.MarkPub(opts.ID, epoch)
	if err := n.PutRecord(ctx, vstore.CatalogPlacement(relation),
		vstore.CatalogKVKey(relation), vstore.EncodeCatalog(cat2)); err != nil {
		return 0, fmt.Errorf("cluster: publish catalog: %w", err)
	}
	n.gsp.Advance(epoch)
	// The epoch advance is part of the publish's acknowledgement: on a
	// durable store it must survive a crash, or a restarted node would
	// gossip an old epoch while the catalog already names this one. The
	// gossip OnAdvance hook persisted it best-effort; this is the
	// error-checked barrier (idempotent if the hook already succeeded).
	if err := n.store.SetEpoch(uint64(epoch)); err != nil {
		return 0, fmt.Errorf("cluster: persist publish epoch %d: %w", epoch, err)
	}
	return epoch, nil
}

// relationLock returns the per-relation publish lock.
func (n *Node) relationLock(relation string) *sync.Mutex {
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	mu, ok := n.pubRels[relation]
	if !ok {
		mu = new(sync.Mutex)
		n.pubRels[relation] = mu
	}
	return mu
}

// ResolvePage returns the index page that ref names, through the node's
// resolved-page cache (hit reports a cached tip). Records come from the
// local store when this node replicates the page's placement — a delta
// chain shares one — and from the other replicas otherwise (§IV:
// "proactively try to retrieve the missing state from other nearby
// nodes").
func (n *Node) ResolvePage(ctx context.Context, ref vstore.PageRef) (p *vstore.Page, hit bool, err error) {
	placement := ref.Placement()
	return n.pages.Resolve(ref.ID, func(id vstore.PageID) ([]byte, error) {
		kv := vstore.PageKVKey(id)
		// GetRetained: page decoding copies what it keeps, so the store's
		// no-copy read suffices.
		if data, ok := n.store.GetRetained(kv); ok {
			return data, nil
		}
		return n.GetRecord(ctx, placement, kv)
	})
}

// PageCacheStats snapshots the resolved-page cache's counters.
func (n *Node) PageCacheStats() obs.CacheStats { return n.pages.Stats() }

// ResolveEpoch maps "relation R as of global epoch e" to the exact
// modification epoch whose coordinator should be read. ok is false when the
// relation had no published state at e.
func (n *Node) ResolveEpoch(ctx context.Context, relation string, e tuple.Epoch) (tuple.Epoch, *vstore.Catalog, bool, error) {
	cat, err := n.GetCatalog(ctx, relation)
	if err != nil {
		return 0, nil, false, err
	}
	eff, ok := cat.EffectiveEpoch(e)
	return eff, cat, ok, nil
}
