package vstore

import (
	"errors"
	"fmt"
	"sort"

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

// PageRef is a coordinator's pointer to a page: its ID plus the tuple-hash
// range it covers. The page's placement key — "the middle of the range of
// tuple keys it encompasses" (§IV) — colocates the page with most of the
// tuples it references.
type PageRef struct {
	ID  PageID
	Min keyspace.Key // inclusive
	Max keyspace.Key // exclusive; Min==Max means the full ring
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

// Page is the content stored at an index node: the tuple IDs present in the
// page's hash range for the page's version, at most one per distinct key.
// Entries are kept sorted by (hash, key) for deterministic encoding and
// ordered scans. Hashes caches each ID's placement key (SHA-1 of its key
// encoding): the scan path routes every entry by this hash, and computing
// it per scanned row used to dominate query profiles, so pages persist it
// alongside the IDs (EnsureHashes fills it for pages built in memory).
type Page struct {
	Ref    PageRef
	IDs    []tuple.ID
	Hashes []keyspace.Key // parallel to IDs; see EnsureHashes
}

// EnsureHashes makes Hashes parallel to IDs, computing any missing entries.
func (p *Page) EnsureHashes() {
	if len(p.Hashes) == len(p.IDs) {
		return
	}
	p.Hashes = make([]keyspace.Key, len(p.IDs))
	for i, id := range p.IDs {
		p.Hashes[i] = id.Hash()
	}
}

// pageV2Tag and pageVersion open every encoded page.
const (
	pageV2Tag   = 0xFF
	pageVersion = 2
)

// EncodePage serializes a page, including its entry placement hashes.
func EncodePage(p *Page) []byte {
	p.EnsureHashes()
	var w writer
	w.u8(pageV2Tag)
	w.u8(pageVersion)
	w.str(p.Ref.ID.Relation)
	w.u64(uint64(p.Ref.ID.Epoch))
	w.u32(p.Ref.ID.Seq)
	w.key(p.Ref.Min)
	w.key(p.Ref.Max)
	w.uvarint(uint64(len(p.IDs)))
	for i, id := range p.IDs {
		w.u64(uint64(id.Epoch))
		w.str(id.Key)
		w.key(p.Hashes[i])
	}
	return w.buf
}

// DecodePage reverses EncodePage.
func DecodePage(data []byte) (*Page, error) {
	r := reader{data: data}
	if tag, version := r.u8(), r.u8(); r.err != nil || tag != pageV2Tag || version != pageVersion {
		return nil, fmt.Errorf("vstore: not a version-%d page (tag %#x, version %d)", pageVersion, tag, version)
	}
	p := &Page{}
	p.Ref.ID.Relation = r.str()
	p.Ref.ID.Epoch = tuple.Epoch(r.u64())
	p.Ref.ID.Seq = r.u32()
	p.Ref.Min = r.keyVal()
	p.Ref.Max = r.keyVal()
	n := r.uvarint()
	if n > 1<<24 {
		return nil, fmt.Errorf("vstore: implausible page entry count %d", n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		e := tuple.Epoch(r.u64())
		k := r.str()
		p.IDs = append(p.IDs, tuple.ID{Key: k, Epoch: e})
		p.Hashes = append(p.Hashes, r.keyVal())
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// Coordinator is the relation coordinator record for (relation, epoch): the
// list of page IDs and their tuple-hash ranges (Fig 3).
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
	}
	return w.buf
}

// DecodeCoordinator reverses EncodeCoordinator.
func DecodeCoordinator(data []byte) (*Coordinator, error) {
	r := reader{data: data}
	c := &Coordinator{}
	c.Relation = r.str()
	c.Epoch = tuple.Epoch(r.u64())
	n := r.uvarint()
	if n > 1<<24 {
		return nil, fmt.Errorf("vstore: implausible page count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		var ref PageRef
		ref.ID.Relation = r.str()
		ref.ID.Epoch = tuple.Epoch(r.u64())
		ref.ID.Seq = r.u32()
		ref.Min = r.keyVal()
		ref.Max = r.keyVal()
		c.Pages = append(c.Pages, ref)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// PageFor returns the page ref covering hash h, or false if none does (which
// indicates a corrupt coordinator: pages must partition the ring).
func (c *Coordinator) PageFor(h keyspace.Key) (PageRef, bool) {
	for _, ref := range c.Pages {
		if ref.Contains(h) {
			return ref, true
		}
	}
	return PageRef{}, false
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
	r := reader{data: data}
	sb := r.bytes()
	if r.err != nil {
		return nil, r.err
	}
	schema, err := DecodeSchema(sb)
	if err != nil {
		return nil, err
	}
	c := &Catalog{Schema: schema}
	n := r.uvarint()
	if n > 1<<24 {
		return nil, errors.New("vstore: implausible epoch count")
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		c.Epochs = append(c.Epochs, tuple.Epoch(r.u64()))
	}
	c.Rows = int64(r.u64())
	pubs := r.uvarint()
	if pubs > PubHistory {
		return nil, errors.New("vstore: implausible publish-mark count")
	}
	for i := uint64(0); i < pubs; i++ {
		id := r.u64()
		c.RecentPubs = append(c.RecentPubs, PubMark{ID: id, Epoch: tuple.Epoch(r.u64())})
	}
	if err := r.done(); err != nil {
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
// retained buffer — stored kvstore values qualify.
func DecodeTupleRecordCols(s *tuple.Schema, data []byte, b *tuple.Batch) error {
	r := reader{data: data}
	r.u64()   // ID epoch
	r.bytes() // ID key encoding
	rowBytes := r.bytes()
	if r.err != nil {
		return r.err
	}
	n, err := tuple.DecodeRowCols(rowBytes, s, b)
	if err != nil {
		return err
	}
	if n != len(rowBytes) {
		return errors.New("vstore: trailing bytes in tuple row")
	}
	return r.done()
}

// DecodeTupleRecord reverses EncodeTupleRecord.
func DecodeTupleRecord(s *tuple.Schema, data []byte) (TupleRecord, error) {
	r := reader{data: data}
	var rec TupleRecord
	rec.ID.Epoch = tuple.Epoch(r.u64())
	rec.ID.Key = r.str()
	rowBytes := r.bytes()
	if r.err != nil {
		return rec, r.err
	}
	row, n, err := tuple.DecodeRow(rowBytes, s)
	if err != nil {
		return rec, err
	}
	if n != len(rowBytes) {
		return rec, errors.New("vstore: trailing bytes in tuple row")
	}
	rec.Row = row
	return rec, r.done()
}
