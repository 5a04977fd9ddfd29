package vstore

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

// Op is the kind of a published change. ORCHESTRA's workload is batch
// publication of update logs, primarily insertions of new data (§I, §IV).
type Op uint8

const (
	// OpInsert adds a new tuple.
	OpInsert Op = iota + 1
	// OpUpdate replaces the current version of a tuple (same key).
	OpUpdate
	// OpDelete removes the tuple from the current version; prior versions
	// remain in storage for historical queries.
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Update is one entry of a published update log.
type Update struct {
	Op  Op
	Row tuple.Row // for OpDelete only the key columns are consulted
}

// TupleWrite is a tuple version that must be stored at its data node.
type TupleWrite struct {
	ID   tuple.ID
	Hash keyspace.Key // ID.Hash(), computed once per published row
	Row  tuple.Row
}

// DefaultMaxPageEntries bounds index page size. The paper uses "a slightly
// higher number of entries [than CFS-style i-nodes] representing partitions
// of the tuple space"; a few hundred IDs per page keeps pages retrievable
// from one or at most a few data storage nodes.
const DefaultMaxPageEntries = 512

// The compaction rule. Pages partition the hash space, so a batch of new
// keys lands a few entries in every page; a publish stores those entries
// as a delta on the page's previous version and rewrites the page in full
// only when the delta chain under it would pass either bound below, or the
// page might overflow. MaxDeltaDepth bounds how many records a cold
// resolve loads and sets the amortized rewrite cost (one full page every
// MaxDeltaDepth publishes that touch it); MaxDeltaEntries keeps a chain
// smaller than the page it patches, so a batch that changes much of a page
// rewrites it at once.
const (
	MaxDeltaDepth   = 64
	MaxDeltaEntries = 256
)

// change is the net effect of one publish on one key: a delta entry plus,
// for an upsert, the row to store.
type change struct {
	id   tuple.ID // Epoch is Tombstone for a delete
	hash keyspace.Key
	row  tuple.Row
}

// deltaOf turns a run of sorted changes into a delta's entries and counts
// its upserts.
func deltaOf(part []change) (d *Delta, upserts int) {
	d = &Delta{IDs: make([]tuple.ID, len(part)), Hashes: make([]keyspace.Key, len(part))}
	for i := range part {
		d.IDs[i], d.Hashes[i] = part[i].id, part[i].hash
		if part[i].id.Epoch != Tombstone {
			upserts++
		}
	}
	return d, upserts
}

// cmpEntry orders index entries by (hash, key): the storage order of the
// data nodes.
func cmpEntry(h1 *keyspace.Key, k1 string, h2 *keyspace.Key, k2 string) int {
	if c := bytes.Compare(h1[:], h2[:]); c != 0 {
		return c
	}
	return strings.Compare(k1, k2)
}

// netChanges reduces an update log to one change per key, the last op on
// the key winning, sorted by (hash, key). Each row is keyed and hashed
// here, once.
func netChanges(s *tuple.Schema, epoch tuple.Epoch, ups []Update) ([]change, error) {
	out := make([]change, 0, len(ups))
	for _, u := range ups {
		switch u.Op {
		case OpInsert, OpUpdate:
			if len(u.Row) != s.Arity() {
				return nil, fmt.Errorf("vstore: update row arity %d != schema %d", len(u.Row), s.Arity())
			}
		case OpDelete:
		default:
			return nil, fmt.Errorf("vstore: unknown op %v", u.Op)
		}
		id := tuple.NewID(s, u.Row, epoch)
		if u.Op == OpDelete {
			id.Epoch = Tombstone
		}
		out = append(out, change{id: id, hash: id.Hash(), row: u.Row})
	}
	slices.SortStableFunc(out, func(a, b change) int {
		return cmpEntry(&a.hash, a.id.Key, &b.hash, b.id.Key)
	})
	n := 0
	for i := range out {
		if i+1 < len(out) && out[i+1].id.Key == out[i].id.Key {
			continue // a later op on the same key supersedes this one
		}
		out[n] = out[i]
		n++
	}
	return out[:n], nil
}

// overlay merges two entry lists sorted by (hash, key) in one pass; where
// both hold a key, top's entry wins. keepDead says whether tombstones stay
// in the result (folding a delta over an older delta) or delete (applying
// a delta to a page). Neither input is modified; the result shares their
// key strings.
func overlay(baseIDs []tuple.ID, baseHashes []keyspace.Key, topIDs []tuple.ID, topHashes []keyspace.Key, keepDead bool) ([]tuple.ID, []keyspace.Key) {
	ids := make([]tuple.ID, 0, len(baseIDs)+len(topIDs))
	hashes := make([]keyspace.Key, 0, len(baseIDs)+len(topIDs))
	i, j := 0, 0
	for i < len(baseIDs) || j < len(topIDs) {
		c := -1
		if i == len(baseIDs) {
			c = 1
		} else if j < len(topIDs) {
			c = cmpEntry(&baseHashes[i], baseIDs[i].Key, &topHashes[j], topIDs[j].Key)
		}
		if c < 0 {
			ids = append(ids, baseIDs[i])
			hashes = append(hashes, baseHashes[i])
			i++
			continue
		}
		if keepDead || topIDs[j].Epoch != Tombstone {
			ids = append(ids, topIDs[j])
			hashes = append(hashes, topHashes[j])
		}
		j++
		if c == 0 {
			i++ // replaced, or deleted
		}
	}
	return ids, hashes
}

// chunkIntoPages cuts sorted entries into evenly filled pages of at most
// maxPerPage IDs whose ranges partition [min, max). Chunk boundaries fall
// only between distinct hashes so every entry lies strictly within its
// page's range. The pages alias ids and hashes.
func chunkIntoPages(relation string, epoch tuple.Epoch, seq *uint32, ids []tuple.ID, hashes []keyspace.Key, min, max keyspace.Key, maxPerPage int) []Page {
	n := len(ids)
	chunks := (n + maxPerPage - 1) / maxPerPage
	if chunks == 0 {
		chunks = 1
	}
	size := (n + chunks - 1) / chunks
	pages := make([]Page, 0, chunks)
	lo, start := min, 0
	for {
		end := start + size
		for end < n && hashes[end] == hashes[end-1] {
			end++ // keep a run of equal hashes in one page
		}
		hi := max
		if end < n {
			hi = hashes[end]
		} else {
			end = n
		}
		pages = append(pages, Page{
			Ref: PageRef{
				ID:  PageID{Relation: relation, Epoch: epoch, Seq: *seq},
				Min: lo, Max: hi, Entries: uint32(end - start),
			},
			IDs:    ids[start:end:end],
			Hashes: hashes[start:end:end],
		})
		*seq++
		if end == n {
			return pages
		}
		lo, start = hi, end
	}
}

// Apply publishes an update log on top of version c of a relation (the
// zero Coordinator for a relation with no data yet) as version epoch:
// copy-on-write at the granularity of what changed (§IV: "modify that
// page to include the ID of the new tuple, and write out that modified
// page as the new index page for the region of the table surrounding the
// updated tuple"). It returns the new coordinator, the page records to
// store — for each touched range either a delta on the range's current
// version, decided from c's PageRef alone, or, when the compaction rule
// or the page bound says so, the full page(s) from merging the resolved
// version with the batch, more than one if it split — and the tuple
// versions to store. Untouched ranges are linked as they are. resolve is
// called only for the ranges rewritten in full.
func (c *Coordinator) Apply(s *tuple.Schema, epoch tuple.Epoch, ups []Update, maxPerPage int,
	resolve func(PageRef) (*Page, error)) (*Coordinator, []Version, []TupleWrite, error) {
	if maxPerPage <= 0 {
		maxPerPage = DefaultMaxPageEntries
	}
	changes, err := netChanges(s, epoch, ups)
	if err != nil {
		return nil, nil, nil, err
	}
	writes := make([]TupleWrite, 0, len(changes))
	for _, ch := range changes {
		if ch.id.Epoch != Tombstone {
			writes = append(writes, TupleWrite{ID: ch.id, Hash: ch.hash, Row: ch.row})
		}
	}
	next := &Coordinator{Relation: s.Relation, Epoch: epoch, Pages: make([]PageRef, 0, len(c.Pages)+1)}
	var out []Version
	var seq uint32
	rewrite := func(base *Page, min, max keyspace.Key, d *Delta) {
		ids, hashes := overlay(base.IDs, base.Hashes, d.IDs, d.Hashes, false)
		pages := chunkIntoPages(s.Relation, epoch, &seq, ids, hashes, min, max, maxPerPage)
		for i := range pages {
			out = append(out, Version{Page: &pages[i]})
			next.Pages = append(next.Pages, pages[i].Ref)
		}
	}
	if len(c.Pages) == 0 {
		// First version: the batch over an empty page spanning the ring.
		d, _ := deltaOf(changes)
		rewrite(&Page{}, keyspace.Zero, keyspace.Zero, d)
		return next, out, writes, nil
	}
	for _, ref := range c.Pages {
		n := 0
		for n < len(changes) && ref.Contains(changes[n].hash) {
			n++
		}
		if n == 0 {
			next.Pages = append(next.Pages, ref)
			continue
		}
		d, upserts := deltaOf(changes[:n])
		changes = changes[n:]
		d.Base = ref.ID
		d.Ref = PageRef{
			ID:  PageID{Relation: s.Relation, Epoch: epoch, Seq: seq},
			Min: ref.Min, Max: ref.Max,
			Entries:      ref.Entries + uint32(upserts),
			DeltaEntries: ref.DeltaEntries + uint32(n),
			Depth:        ref.Depth + 1,
		}
		if d.Ref.Depth <= MaxDeltaDepth && d.Ref.DeltaEntries <= MaxDeltaEntries && int(d.Ref.Entries) <= maxPerPage {
			seq++
			out = append(out, Version{Delta: d})
			next.Pages = append(next.Pages, d.Ref)
			continue
		}
		base, err := resolve(ref)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("vstore: resolve page %s: %w", ref.ID, err)
		}
		rewrite(base, ref.Min, ref.Max, d)
	}
	if len(changes) > 0 {
		return nil, nil, nil, fmt.Errorf("vstore: no page of %s@%d covers hash of %s (its ranges do not partition the ring in order)",
			c.Relation, c.Epoch, changes[0].id)
	}
	return next, out, writes, nil
}

// BuildInitialPages constructs the first version of a relation from a batch
// of updates at the given epoch: tuple IDs are sorted by hash and chunked
// into pages whose ranges partition the full ring, so every future tuple
// hash maps to exactly one page. It is Apply on a relation with no data,
// for callers that want the pages themselves (benchmark/'s page probes).
func BuildInitialPages(s *tuple.Schema, epoch tuple.Epoch, ups []Update, maxPerPage int) ([]Page, []TupleWrite, error) {
	_, versions, writes, err := new(Coordinator).Apply(s, epoch, ups, maxPerPage, nil)
	if err != nil {
		return nil, nil, err
	}
	pages := make([]Page, len(versions))
	for i, v := range versions {
		pages[i] = *v.Page
	}
	return pages, writes, nil
}
