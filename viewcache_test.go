package orchestra

import (
	"fmt"
	"testing"
)

// TestQueryCacheLRURecency: a cache hit refreshes an entry's recency, so
// at capacity the least-recently-*used* entry is evicted, not merely the
// least-recently-inserted one.
func TestQueryCacheLRURecency(t *testing.T) {
	c := newTestCluster(t, 2)
	setupInventory(t, c)
	c.EnableQueryCache(2)

	qA := "SELECT item FROM inv"
	qB := "SELECT qty FROM inv"
	qC := "SELECT price FROM inv"
	mustQuery(t, c, qA)
	mustQuery(t, c, qB)
	// Touch A: it becomes most recent, so B is now the eviction victim.
	if !mustQuery(t, c, qA).Cached {
		t.Fatal("A should hit before eviction")
	}
	mustQuery(t, c, qC) // evicts B, not A
	if !mustQuery(t, c, qA).Cached {
		t.Fatal("recently used entry was evicted")
	}
	if mustQuery(t, c, qB).Cached {
		t.Fatal("least recently used entry survived eviction")
	}
}

// TestQueryCacheEvictionAtCapacity fills the cache past capacity and
// checks only the newest entries remain resident.
func TestQueryCacheEvictionAtCapacity(t *testing.T) {
	c := newTestCluster(t, 2)
	setupInventory(t, c)
	const cap = 3
	c.EnableQueryCache(cap)

	queries := make([]string, 6)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT item FROM inv WHERE qty > %d", i*10)
		mustQuery(t, c, queries[i])
	}
	// Check newest-first: a miss re-inserts and evicts, so older entries
	// must be probed before any miss perturbs the cache contents.
	for i := len(queries) - 1; i >= 0; i-- {
		wantHit := i >= len(queries)-cap
		if got := mustQuery(t, c, queries[i]).Cached; got != wantHit {
			t.Errorf("query %d: cached=%v, want %v", i, got, wantHit)
		}
	}
}

// TestQueryCacheCrossEpoch: a publish advances the epoch, invalidating
// current-epoch lookups while pinned historical epochs keep their own
// entries — both snapshots stay independently cached.
func TestQueryCacheCrossEpoch(t *testing.T) {
	c := newTestCluster(t, 3)
	setupInventory(t, c)
	c.EnableQueryCache(8)

	const q = "SELECT item, qty FROM inv WHERE qty > 100"
	r1 := mustQuery(t, c, q) // miss, cached at epoch e1
	e1 := r1.Epoch

	mustPublish(t, c, "inv", Rows{{"rivet", 500, 0.08}})

	// Current epoch changed: recompute, reflect the new row.
	r2 := mustQuery(t, c, q)
	if r2.Cached {
		t.Fatal("stale entry served across epochs")
	}
	if len(r2.Rows) != len(r1.Rows)+1 {
		t.Fatalf("fresh result has %d rows, want %d", len(r2.Rows), len(r1.Rows)+1)
	}

	// Both epochs now resident under their own keys.
	old, err := c.QueryOpts(q, QueryOptions{Epoch: e1})
	if err != nil {
		t.Fatal(err)
	}
	if !old.Cached || len(old.Rows) != len(r1.Rows) || old.Epoch != e1 {
		t.Fatalf("pinned epoch entry: cached=%v rows=%d epoch=%d", old.Cached, len(old.Rows), old.Epoch)
	}
	cur := mustQuery(t, c, q)
	if !cur.Cached || len(cur.Rows) != len(r2.Rows) {
		t.Fatalf("current epoch entry: cached=%v rows=%d", cur.Cached, len(cur.Rows))
	}

	// Another publish invalidates again.
	mustPublish(t, c, "inv", Rows{{"dowel", 300, 0.20}})
	if mustQuery(t, c, q).Cached {
		t.Fatal("entry survived second epoch advance")
	}
}

// TestQueryCacheRepeatedHits: the Cached flag is false exactly once per
// (query, epoch), then true on every repeat with identical results.
func TestQueryCacheRepeatedHits(t *testing.T) {
	c := newTestCluster(t, 2)
	setupInventory(t, c)
	c.EnableQueryCache(8)

	const q = "SELECT item FROM inv WHERE qty > 50"
	first := mustQuery(t, c, q)
	if first.Cached {
		t.Fatal("first execution reported a cache hit")
	}
	for i := 0; i < 4; i++ {
		r := mustQuery(t, c, q)
		if !r.Cached {
			t.Fatalf("repeat %d missed the cache", i)
		}
		if len(r.Rows) != len(first.Rows) || r.Epoch != first.Epoch {
			t.Fatalf("repeat %d: %d rows at epoch %d, want %d at %d",
				i, len(r.Rows), r.Epoch, len(first.Rows), first.Epoch)
		}
	}
}

// TestQueryCachePerNode: every serving node benefits from the
// materialized-view cache, not just initiator 0 — a node-1 query is
// served from cache (filled by node 1 itself, and shared with node 0
// since entries are epoch-keyed).
func TestQueryCachePerNode(t *testing.T) {
	c := newTestCluster(t, 3)
	setupInventory(t, c)
	c.EnableQueryCache(8)

	const q = "SELECT item, qty FROM inv WHERE qty > 100"
	first, err := c.QueryOpts(q, QueryOptions{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first node-1 execution reported a cache hit")
	}
	hit, err := c.QueryOpts(q, QueryOptions{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("node-1 repeat was not served from cache")
	}
	if len(hit.Rows) != len(first.Rows) || hit.Epoch != first.Epoch {
		t.Fatalf("node-1 hit: %d rows at epoch %d, want %d at %d",
			len(hit.Rows), hit.Epoch, len(first.Rows), first.Epoch)
	}
	// Epoch-keyed sharing: node 0 (and node 2) reuse node 1's entry.
	for _, n := range []int{0, 2} {
		r, err := c.QueryOpts(q, QueryOptions{Node: n})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Cached {
			t.Fatalf("node-%d query missed the shared cache", n)
		}
	}
	// A publish advances the epoch and invalidates every node's view.
	mustPublish(t, c, "inv", Rows{{"rivet", 500, 0.08}})
	r, err := c.QueryOpts(q, QueryOptions{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("node-1 served a stale entry across epochs")
	}
}
