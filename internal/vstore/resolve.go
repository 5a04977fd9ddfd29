package vstore

import (
	"container/list"
	"fmt"
	"sync"

	"orchestra/internal/obs"
)

// PageCache holds resolved index pages by version ID and is the one way a
// stored page version becomes a Page. Versions are immutable — a publish
// writes changed ranges under fresh (relation, epoch, seq) identities and
// never rewrites an existing record — so a resolved page can be cached
// forever and shared read-only across queries; the LRU bound only caps
// memory.
type PageCache struct {
	mu  sync.Mutex
	max int
	lru *list.List // front = most recent; values are *Page
	m   map[PageID]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

// DefaultPageCachePages bounds a node's resolved-page cache. At the default
// 512 IDs per page this is on the order of a few thousand tuples of index
// state per cached page, tens of MB at the cap — small next to the tuple
// store it fronts.
const DefaultPageCachePages = 256

// NewPageCache returns a cache of at most max resolved pages.
func NewPageCache(max int) *PageCache {
	return &PageCache{max: max, lru: list.New(), m: make(map[PageID]*list.Element)}
}

// Resolve returns the page that version tip names. A cached tip is
// returned as is (hit). Otherwise the records from tip down are loaded
// until a full page or a cached version is reached, the deltas above it
// are folded into one and merged into it, and the result is cached under
// tip: a reader that follows a relation from publish to publish merges
// each new delta into the page it resolved last time. Only the tip is
// cached or counted, so a cold walk of a long chain does not flush the
// cache.
func (c *PageCache) Resolve(tip PageID, load func(PageID) ([]byte, error)) (p *Page, hit bool, err error) {
	if p = c.get(tip, true); p != nil {
		return p, true, nil
	}
	var chain []*Delta
	for id := tip; p == nil; {
		if len(chain) > 0 {
			// Not a use of the base in its own right: leave its LRU
			// position alone, so the versions a publish just superseded
			// are the first to go.
			if p = c.get(id, false); p != nil {
				break
			}
		}
		data, err := load(id)
		if err != nil {
			return nil, false, fmt.Errorf("vstore: load page %s: %w", id, err)
		}
		v, err := DecodePage(data)
		if err != nil {
			return nil, false, fmt.Errorf("vstore: page %s: %w", id, err)
		}
		if v.Ref().ID != id {
			return nil, false, fmt.Errorf("vstore: page %s stored under the key of %s", v.Ref().ID, id)
		}
		if v.Page != nil {
			p = v.Page
			break
		}
		if len(chain) == MaxDeltaDepth {
			return nil, false, fmt.Errorf("vstore: delta chain under %s is deeper than %d", tip, MaxDeltaDepth)
		}
		chain = append(chain, v.Delta)
		id = v.Delta.Base
	}
	if len(chain) > 0 {
		ref := chain[0].Ref
		// Fold the deltas pairwise, newer over older, until one is left,
		// then patch the page once: however deep the chain, each of its
		// entries is copied log(depth) times and the page a single time.
		for len(chain) > 1 {
			n := 0
			for i := 0; i < len(chain); i += 2 {
				d := chain[i]
				if i+1 < len(chain) {
					d = &Delta{}
					d.IDs, d.Hashes = overlay(chain[i+1].IDs, chain[i+1].Hashes, chain[i].IDs, chain[i].Hashes, true)
				}
				chain[n] = d
				n++
			}
			chain = chain[:n]
		}
		merged := &Page{Ref: ref}
		merged.IDs, merged.Hashes = overlay(p.IDs, p.Hashes, chain[0].IDs, chain[0].Hashes, false)
		merged.Ref.Entries = uint32(len(merged.IDs))
		p = merged
	}
	c.put(tip, p)
	return p, false, nil
}

// get returns the cached page for id, or nil. asTip says the caller wants
// the page for its own sake: only then is the lookup counted and the entry
// moved to the front.
func (c *PageCache) get(id PageID, asTip bool) *Page {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[id]
	if asTip {
		if ok {
			c.hits++
			c.lru.MoveToFront(el)
		} else {
			c.misses++
		}
	}
	if !ok {
		return nil
	}
	return el.Value.(*Page)
}

func (c *PageCache) put(id PageID, p *Page) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[id]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.m[id] = c.lru.PushFront(p)
	for c.lru.Len() > c.max {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.m, old.Value.(*Page).Ref.ID)
		c.evictions++
	}
}

// Stats snapshots the cache's counters.
func (c *PageCache) Stats() obs.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obs.CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Size: c.lru.Len(), Max: c.max}
}
