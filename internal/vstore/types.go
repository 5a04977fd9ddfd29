package vstore

import (
	"errors"
	"fmt"
	"sort"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

// PageID identifies an index page version: the relation name, the epoch in
// which the page was last modified, and a unique sequence number for that
// relation and epoch (paper Example 4.1).
type PageID struct {
	Relation string
	Epoch    tuple.Epoch
	Seq      uint32
}

func (p PageID) String() string {
	return fmt.Sprintf("%s@%d#%d", p.Relation, p.Epoch, p.Seq)
}

// PageRef is a coordinator's pointer to a page version: its ID, the
// tuple-hash range it covers, and the three numbers a publisher decides
// from without reading the page (see Coordinator.Apply). The page's
// placement key — "the middle of the range of tuple keys it encompasses"
// (§IV) — colocates the page with most of the tuples it references; a
// delta keeps its base's range, so a whole chain lives at one placement.
type PageRef struct {
	ID  PageID
	Min keyspace.Key // inclusive
	Max keyspace.Key // exclusive; Min==Max means the full ring

	// Entries bounds the resolved page's entry count from above: exact for
	// a full page; a delta adds its upserts (an update of an existing key
	// counts as new) and subtracts nothing for its deletes.
	Entries uint32
	// DeltaEntries is the number of upserted and deleted entries in the
	// delta records between this version and its full base; 0 for a full
	// page.
	DeltaEntries uint32
	// Depth is the number of delta records between this version and its
	// full base; 0 for a full page.
	Depth uint32
}

// Placement returns the ring key where the page is stored.
func (p PageRef) Placement() keyspace.Key {
	if p.Min == p.Max {
		// Full ring: place at the midpoint of the numeric key space.
		return keyspace.Midpoint(keyspace.Zero, keyspace.Max)
	}
	if p.Min.Less(p.Max) {
		return keyspace.Midpoint(p.Min, p.Max)
	}
	// Wrapped range: midpoint along the clockwise arc.
	arc := p.Max.Sub(p.Min)
	return p.Min.Add(arc.Half())
}

// Contains reports whether a tuple-hash belongs to this page's range.
func (p PageRef) Contains(h keyspace.Key) bool {
	return h.InRange(p.Min, p.Max)
}

// Page is a resolved index page: the tuple IDs present in the page's hash
// range for the page's version, at most one per distinct key, sorted by
// (hash, key) — the storage order of the data nodes. Hashes holds each
// ID's placement key (SHA-1 of its key encoding), persisted with the IDs
// because the scan routes every entry by it. A Page is immutable once
// built: versions share key strings and readers alias its slices.
type Page struct {
	Ref    PageRef
	IDs    []tuple.ID
	Hashes []keyspace.Key // parallel to IDs
}

// Delta is a page version stored as its difference from the version
// Base, which covers the same range: the entries the publish changed,
// sorted by (hash, key), one per key. An entry whose Epoch is Tombstone
// deletes its key; any other replaces or adds it. Only PageCache.Resolve
// turns a delta into a Page.
type Delta struct {
	Ref    PageRef
	Base   PageID
	IDs    []tuple.ID
	Hashes []keyspace.Key
}

// Tombstone is the epoch of a delta entry that deletes its key. No publish
// runs at it: epochs count up from 1.
const Tombstone = ^tuple.Epoch(0)

// Version is one stored page record: exactly one field is set.
type Version struct {
	Page  *Page
	Delta *Delta
}

// Ref returns the ref of the version the record names.
func (v Version) Ref() PageRef {
	if v.Delta != nil {
		return v.Delta.Ref
	}
	return v.Page.Ref
}

// Encode serializes the record.
func (v Version) Encode() []byte {
	if v.Delta != nil {
		return EncodeDelta(v.Delta)
	}
	return EncodePage(v.Page)
}

// Every page record opens with pageTag and its kind. The kinds start
// above the retired whole-page-only layout's version number so a stale
// record is refused, not misread.
const (
	pageTag   = 0xFF
	kindFull  = 3
	kindDelta = 4
)

// pageHeader opens a page record that will hold ids, sizing the buffer once.
func (w *writer) pageHeader(kind uint8, ref PageRef, ids []tuple.ID) {
	size := 64 + len(ref.ID.Relation) + 2*keyspace.Size
	for _, id := range ids {
		size += 8 + 2 + len(id.Key) + keyspace.Size
	}
	w.buf = make([]byte, 0, size)
	w.u8(pageTag)
	w.u8(kind)
	w.str(ref.ID.Relation)
	w.u64(uint64(ref.ID.Epoch))
	w.u32(ref.ID.Seq)
	w.key(ref.Min)
	w.key(ref.Max)
}

// pageHeader reads what every page record starts with; the ref's counts
// are left for the caller, who knows them only after the body.
func readPageHeader(r *codec.Reader) (kind uint8, ref PageRef) {
	tag := r.U8()
	kind = r.U8()
	if r.Err() == nil && (tag != pageTag || (kind != kindFull && kind != kindDelta)) {
		r.Fail(fmt.Errorf("vstore: not a page record (tag %#x, kind %d)", tag, kind))
	}
	ref.ID.Relation = r.Str()
	ref.ID.Epoch = tuple.Epoch(r.U64())
	ref.ID.Seq = r.U32()
	ref.Min = readKey(r)
	ref.Max = readKey(r)
	return kind, ref
}

func (w *writer) entries(ids []tuple.ID, hashes []keyspace.Key) {
	w.uvarint(uint64(len(ids)))
	for i, id := range ids {
		w.u64(uint64(id.Epoch))
		w.str(id.Key)
		w.key(hashes[i])
	}
}

// readEntries reads an entry list. blob is a copy of the record r walks: the
// keys are its substrings rather than a string each — one allocation per
// record, and the caller's buffer is not retained. The entries must ascend
// strictly by (hash, key): the scan cuts a page into runs by ring range and
// merges the runs as they are, so an entry out of order or repeated would be
// misrouted or read twice, and the record is refused here instead.
func readEntries(r *codec.Reader, blob string) ([]tuple.ID, []keyspace.Key) {
	n := r.Count(8 + 1 + keyspace.Size)
	ids := make([]tuple.ID, 0, n)
	hashes := make([]keyspace.Key, 0, n)
	for i := 0; i < n; i++ {
		e := tuple.Epoch(r.U64())
		key, end := r.Bytes(), r.Pos()
		hash := readKey(r)
		if r.Err() != nil {
			break
		}
		id := tuple.ID{Key: blob[end-len(key) : end], Epoch: e}
		if i > 0 && cmpEntry(&hashes[i-1], ids[i-1].Key, &hash, id.Key) >= 0 {
			r.Fail(fmt.Errorf("vstore: page entry %d is not above entry %d in (hash, key) order", i, i-1))
			break
		}
		ids = append(ids, id)
		hashes = append(hashes, hash)
	}
	return ids, hashes
}

// EncodePage serializes a full page.
func EncodePage(p *Page) []byte {
	var w writer
	w.pageHeader(kindFull, p.Ref, p.IDs)
	w.entries(p.IDs, p.Hashes)
	return w.buf
}

// EncodeDelta serializes a delta record.
func EncodeDelta(d *Delta) []byte {
	var w writer
	w.pageHeader(kindDelta, d.Ref, d.IDs)
	w.u64(uint64(d.Base.Epoch))
	w.u32(d.Base.Seq)
	w.entries(d.IDs, d.Hashes)
	return w.buf
}

// DecodePage reverses EncodePage and EncodeDelta. The record does not
// carry its ref's counts; a full page's Entries is filled from the body,
// a delta's counts are known only to the coordinator that links it.
func DecodePage(data []byte) (Version, error) {
	r := codec.NewReader(data)
	kind, ref := readPageHeader(&r)
	if r.Err() != nil {
		return Version{}, r.Done("vstore: page record")
	}
	blob := string(data)
	var v Version
	if kind == kindFull {
		v.Page = &Page{Ref: ref}
		v.Page.IDs, v.Page.Hashes = readEntries(&r, blob)
		v.Page.Ref.Entries = uint32(len(v.Page.IDs))
	} else {
		v.Delta = &Delta{Ref: ref, Base: PageID{Relation: ref.ID.Relation}}
		v.Delta.Base.Epoch = tuple.Epoch(r.U64())
		v.Delta.Base.Seq = r.U32()
		v.Delta.IDs, v.Delta.Hashes = readEntries(&r, blob)
	}
	if err := r.Done("vstore: page record"); err != nil {
		return Version{}, err
	}
	return v, nil
}

// PagePlacement returns the ring placement of an encoded page record,
// full or delta, from its header alone.
func PagePlacement(data []byte) (keyspace.Key, bool) {
	r := codec.NewReader(data)
	_, ref := readPageHeader(&r)
	return ref.Placement(), r.Err() == nil
}

// Coordinator is the relation coordinator record for (relation, epoch): the
// page versions current at that epoch and their tuple-hash ranges (Fig 3),
// in ring order starting at the zero key, the ranges partitioning the ring.
type Coordinator struct {
	Relation string
	Epoch    tuple.Epoch
	Pages    []PageRef
}

// EncodeCoordinator serializes a coordinator record.
func EncodeCoordinator(c *Coordinator) []byte {
	var w writer
	w.str(c.Relation)
	w.u64(uint64(c.Epoch))
	w.uvarint(uint64(len(c.Pages)))
	for _, ref := range c.Pages {
		w.str(ref.ID.Relation)
		w.u64(uint64(ref.ID.Epoch))
		w.u32(ref.ID.Seq)
		w.key(ref.Min)
		w.key(ref.Max)
		w.uvarint(uint64(ref.Entries))
		w.uvarint(uint64(ref.DeltaEntries))
		w.uvarint(uint64(ref.Depth))
	}
	return w.buf
}

// DecodeCoordinator reverses EncodeCoordinator.
func DecodeCoordinator(data []byte) (*Coordinator, error) {
	r := codec.NewReader(data)
	c := &Coordinator{}
	c.Relation = r.Str()
	c.Epoch = tuple.Epoch(r.U64())
	n := r.Count(1 + 8 + 4 + 2*keyspace.Size + 3)
	c.Pages = make([]PageRef, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var ref PageRef
		ref.ID.Relation = r.Str()
		ref.ID.Epoch = tuple.Epoch(r.U64())
		ref.ID.Seq = r.U32()
		ref.Min = readKey(&r)
		ref.Max = readKey(&r)
		ref.Entries = uint32(r.Uvarint())
		ref.DeltaEntries = uint32(r.Uvarint())
		ref.Depth = uint32(r.Uvarint())
		c.Pages = append(c.Pages, ref)
	}
	if err := r.Done("vstore: coordinator record"); err != nil {
		return nil, err
	}
	return c, nil
}

// Catalog records a relation's schema and the epochs at which it was
// modified, in increasing order. It is the entry point for resolving "the
// state of R as of epoch e" to the coordinator record to read.
//
// Beyond the schema and epoch list the catalog carries two bookkeeping
// sections:
//
//   - Rows: the relation's net row count, maintained at publish time so
//     the optimizer's statistics survive a restart instead of reading 0
//     until the next publish.
//   - RecentPubs: a bounded ring of recently applied publish IDs and the
//     epochs they produced. A client that retries a publish after losing
//     the acknowledgement resends the same ID; any publisher that finds
//     the ID here returns the recorded epoch instead of applying the
//     batch twice. Because the catalog write is the atomic commit point
//     of a publish, the mark and the epoch become visible together.
type Catalog struct {
	Schema *tuple.Schema
	Epochs []tuple.Epoch

	// Rows is the relation's net row count (inserts minus deletes) as of
	// the latest epoch.
	Rows int64
	// RecentPubs holds the last PubHistory publish marks, oldest first.
	RecentPubs []PubMark
}

// PubMark records one applied publish: the client-chosen idempotency ID
// and the epoch the publish produced.
type PubMark struct {
	ID    uint64
	Epoch tuple.Epoch
}

// PubHistory bounds RecentPubs. A retry races only the handful of
// publishes issued while the original acknowledgement was in flight, so
// a short window suffices; it is a hard cap on catalog record growth.
const PubHistory = 64

// FindPub reports the epoch previously recorded for publish ID id.
func (c *Catalog) FindPub(id uint64) (tuple.Epoch, bool) {
	if id == 0 {
		return 0, false
	}
	for _, m := range c.RecentPubs {
		if m.ID == id {
			return m.Epoch, true
		}
	}
	return 0, false
}

// MarkPub appends a publish mark, evicting the oldest beyond PubHistory.
// A zero ID (no idempotency requested) is not recorded.
func (c *Catalog) MarkPub(id uint64, e tuple.Epoch) {
	if id == 0 {
		return
	}
	c.RecentPubs = append(c.RecentPubs, PubMark{ID: id, Epoch: e})
	if n := len(c.RecentPubs) - PubHistory; n > 0 {
		c.RecentPubs = append(c.RecentPubs[:0], c.RecentPubs[n:]...)
	}
}

// EffectiveEpoch returns the largest modification epoch <= e: a query at
// epoch e sees the effects of all state published up to e and nothing later
// (§IV). ok is false if the relation did not exist at e.
func (c *Catalog) EffectiveEpoch(e tuple.Epoch) (tuple.Epoch, bool) {
	i := sort.Search(len(c.Epochs), func(i int) bool { return c.Epochs[i] > e })
	if i == 0 {
		return 0, false
	}
	return c.Epochs[i-1], true
}

// LatestEpoch returns the relation's most recent modification epoch.
func (c *Catalog) LatestEpoch() (tuple.Epoch, bool) {
	if len(c.Epochs) == 0 {
		return 0, false
	}
	return c.Epochs[len(c.Epochs)-1], true
}

// WithEpoch returns a copy of the catalog including epoch e (idempotent).
// Row counts and publish marks carry over unchanged.
func (c *Catalog) WithEpoch(e tuple.Epoch) *Catalog {
	out := &Catalog{Schema: c.Schema, Rows: c.Rows}
	out.RecentPubs = append(out.RecentPubs, c.RecentPubs...)
	out.Epochs = append(out.Epochs, c.Epochs...)
	n := len(out.Epochs)
	if n > 0 && out.Epochs[n-1] == e {
		return out
	}
	out.Epochs = append(out.Epochs, e)
	sort.Slice(out.Epochs, func(i, j int) bool { return out.Epochs[i] < out.Epochs[j] })
	return out
}

// EncodeCatalog serializes a catalog record: schema, epoch list, row
// count, publish marks.
func EncodeCatalog(c *Catalog) []byte {
	var w writer
	w.bytes(EncodeSchema(c.Schema))
	w.uvarint(uint64(len(c.Epochs)))
	for _, e := range c.Epochs {
		w.u64(uint64(e))
	}
	w.u64(uint64(c.Rows))
	w.uvarint(uint64(len(c.RecentPubs)))
	for _, m := range c.RecentPubs {
		w.u64(m.ID)
		w.u64(uint64(m.Epoch))
	}
	return w.buf
}

// DecodeCatalog reverses EncodeCatalog.
func DecodeCatalog(data []byte) (*Catalog, error) {
	r := codec.NewReader(data)
	sb := r.Bytes()
	if r.Err() != nil {
		return nil, r.Done("vstore: catalog record")
	}
	schema, err := DecodeSchema(sb)
	if err != nil {
		return nil, err
	}
	c := &Catalog{Schema: schema}
	for n := r.Count(8); n > 0 && r.Err() == nil; n-- {
		c.Epochs = append(c.Epochs, tuple.Epoch(r.U64()))
	}
	c.Rows = int64(r.U64())
	pubs := r.Count(16)
	if pubs > PubHistory {
		return nil, errors.New("vstore: implausible publish-mark count")
	}
	for ; pubs > 0 && r.Err() == nil; pubs-- {
		c.RecentPubs = append(c.RecentPubs, PubMark{ID: r.U64(), Epoch: tuple.Epoch(r.U64())})
	}
	if err := r.Done("vstore: catalog record"); err != nil {
		return nil, err
	}
	return c, nil
}

// TupleRecord is a full tuple version as stored at a data storage node.
type TupleRecord struct {
	ID  tuple.ID
	Row tuple.Row
}

// EncodeTupleRecord serializes a stored tuple (schema-directed row codec).
func EncodeTupleRecord(s *tuple.Schema, rec TupleRecord) ([]byte, error) {
	var w writer
	w.u64(uint64(rec.ID.Epoch))
	w.str(rec.ID.Key)
	rowBytes, err := tuple.AppendRow(nil, s, rec.Row)
	if err != nil {
		return nil, err
	}
	w.bytes(rowBytes)
	return w.buf, nil
}

// DecodeTupleRecordCols decodes a stored tuple record's row straight onto
// a columnar batch, skipping the ID and all per-row allocations. String
// values alias data (see tuple.DecodeRowCols): data must be an immutable,
// retained buffer — stored kvstore values qualify, since the store copies a
// record on write and when it packs its leaf but never rewrites a byte. A
// refused record leaves b as it was.
func DecodeTupleRecordCols(s *tuple.Schema, data []byte, b *tuple.Batch) error {
	r := codec.NewReader(data)
	r.U64()   // ID epoch
	r.Bytes() // ID key encoding
	rowBytes := r.Bytes()
	if err := r.Done("vstore: tuple record"); err != nil {
		return err
	}
	return tuple.DecodeRowCols(rowBytes, s, b)
}
