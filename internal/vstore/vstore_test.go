package vstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

func rSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	s, err := tuple.NewSchema("R",
		[]tuple.Column{{Name: "x", Type: tuple.String}, {Name: "y", Type: tuple.String}}, "x")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	s := rSchema(t)
	got, err := DecodeSchema(EncodeSchema(s))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip: %s != %s", got, s)
	}
}

func TestSchemaCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeSchema([]byte{0xFF, 0xFF}); err == nil {
		t.Error("garbage should fail")
	}
	s := rSchema(t)
	enc := EncodeSchema(s)
	if _, err := DecodeSchema(enc[:len(enc)-1]); err == nil {
		t.Error("truncated should fail")
	}
	if _, err := DecodeSchema(append(enc, 0x01)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// testPage builds a well-formed page (sorted, hashed) of n keys.
func testPage(t *testing.T, n int) *Page {
	t.Helper()
	s := rSchema(t)
	var ups []Update
	for i := 0; i < n; i++ {
		ups = append(ups, Update{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("k%d", i)), tuple.S("v")}})
	}
	pages, _, err := BuildInitialPages(s, 3, ups, n)
	if err != nil || len(pages) != 1 {
		t.Fatalf("BuildInitialPages: %d pages, %v", len(pages), err)
	}
	p := pages[0]
	p.Ref.ID.Seq = 7
	p.Ref.Min, p.Ref.Max = keyspace.FromUint64(100), keyspace.FromUint64(900)
	return &p
}

func TestPageCodecRoundTrip(t *testing.T) {
	p := testPage(t, 20)
	v, err := DecodePage(EncodePage(p))
	if err != nil {
		t.Fatal(err)
	}
	if v.Delta != nil || v.Page == nil {
		t.Fatalf("a full page decoded to %+v", v)
	}
	if !reflect.DeepEqual(v.Page, p) {
		t.Errorf("round trip: %+v != %+v", v.Page, p)
	}

	d := &Delta{
		Ref:  PageRef{ID: PageID{Relation: "R", Epoch: 4, Seq: 1}, Min: p.Ref.Min, Max: p.Ref.Max},
		Base: p.Ref.ID,
		IDs:  append([]tuple.ID{{Key: p.IDs[0].Key, Epoch: Tombstone}}, p.IDs[1:3]...), Hashes: p.Hashes[:3],
	}
	v, err = DecodePage(EncodeDelta(d))
	if err != nil {
		t.Fatal(err)
	}
	if v.Page != nil || !reflect.DeepEqual(v.Delta, d) {
		t.Errorf("delta round trip: %+v != %+v", v.Delta, d)
	}
	for _, enc := range [][]byte{EncodePage(p), EncodeDelta(d)} {
		if got, ok := PagePlacement(enc); !ok || got != p.Ref.Placement() {
			t.Errorf("PagePlacement = %v, %v; want %v", got, ok, p.Ref.Placement())
		}
	}
	if _, ok := PagePlacement([]byte("junk")); ok {
		t.Error("PagePlacement accepted junk")
	}
}

// TestHostilePageOrderIsRefused: a page or delta record whose entries are
// out of (hash, key) order, or list one entry twice, decodes to an error —
// the scan routes a page by ring range and merges its runs as they come, so
// a record it believed would be misrouted — and so does resolving it.
func TestHostilePageOrderIsRefused(t *testing.T) {
	p := testPage(t, 6)
	swapped := *p
	swapped.IDs = append([]tuple.ID(nil), p.IDs...)
	swapped.Hashes = append([]keyspace.Key(nil), p.Hashes...)
	swapped.IDs[2], swapped.IDs[3] = swapped.IDs[3], swapped.IDs[2]
	swapped.Hashes[2], swapped.Hashes[3] = swapped.Hashes[3], swapped.Hashes[2]
	repeated := *p
	repeated.IDs = append(append([]tuple.ID(nil), p.IDs[:3]...), p.IDs[2:]...)
	repeated.Hashes = append(append([]keyspace.Key(nil), p.Hashes[:3]...), p.Hashes[2:]...)
	delta := &Delta{
		Ref:  PageRef{ID: PageID{Relation: "R", Epoch: 4, Seq: 1}, Min: p.Ref.Min, Max: p.Ref.Max},
		Base: p.Ref.ID, IDs: swapped.IDs, Hashes: swapped.Hashes,
	}
	for name, enc := range map[string][]byte{
		"swapped page":   EncodePage(&swapped),
		"repeated entry": EncodePage(&repeated),
		"swapped delta":  EncodeDelta(delta),
	} {
		if v, err := DecodePage(enc); err == nil {
			t.Errorf("%s: decoded to %+v", name, v)
		}
	}
	m := newMemStore()
	m.recs[swapped.Ref.ID] = EncodePage(&swapped)
	if got, _, err := m.cache.Resolve(swapped.Ref.ID, m.load); err == nil {
		t.Errorf("resolved an out-of-order page to %d entries", len(got.IDs))
	}
}

func TestCoordinatorCodecRoundTrip(t *testing.T) {
	c := &Coordinator{
		Relation: "R",
		Epoch:    5,
		Pages: []PageRef{
			{ID: PageID{"R", 5, 0}, Min: keyspace.Zero, Max: keyspace.FromUint64(500), Entries: 300, DeltaEntries: 17, Depth: 4},
			{ID: PageID{"R", 2, 1}, Min: keyspace.FromUint64(500), Max: keyspace.Zero, Entries: 12},
		},
	}
	got, err := DecodeCoordinator(EncodeCoordinator(c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation != c.Relation || got.Epoch != c.Epoch || len(got.Pages) != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range c.Pages {
		if got.Pages[i] != c.Pages[i] {
			t.Errorf("page %d: %+v != %+v", i, got.Pages[i], c.Pages[i])
		}
	}
}

func TestCatalogEffectiveEpoch(t *testing.T) {
	c := &Catalog{Schema: rSchema(t), Epochs: []tuple.Epoch{1, 4, 9}}
	cases := []struct {
		at   tuple.Epoch
		want tuple.Epoch
		ok   bool
	}{
		{0, 0, false}, {1, 1, true}, {3, 1, true}, {4, 4, true},
		{8, 4, true}, {9, 9, true}, {100, 9, true},
	}
	for _, cse := range cases {
		got, ok := c.EffectiveEpoch(cse.at)
		if ok != cse.ok || (ok && got != cse.want) {
			t.Errorf("EffectiveEpoch(%d) = %d,%v want %d,%v", cse.at, got, ok, cse.want, cse.ok)
		}
	}
	if latest, ok := c.LatestEpoch(); !ok || latest != 9 {
		t.Errorf("LatestEpoch = %d,%v", latest, ok)
	}
	empty := &Catalog{Schema: rSchema(t)}
	if _, ok := empty.LatestEpoch(); ok {
		t.Error("empty catalog has a latest epoch")
	}
}

func TestCatalogWithEpochIdempotent(t *testing.T) {
	c := &Catalog{Schema: rSchema(t), Epochs: []tuple.Epoch{2}}
	c2 := c.WithEpoch(5).WithEpoch(5).WithEpoch(3)
	if len(c2.Epochs) != 3 || c2.Epochs[0] != 2 || c2.Epochs[1] != 3 || c2.Epochs[2] != 5 {
		t.Errorf("Epochs = %v", c2.Epochs)
	}
	if len(c.Epochs) != 1 {
		t.Error("WithEpoch mutated the original")
	}
}

func TestCatalogCodecRoundTrip(t *testing.T) {
	c := &Catalog{Schema: rSchema(t), Epochs: []tuple.Epoch{1, 2, 3}, Rows: 12}
	c.MarkPub(77, 3)
	enc := EncodeCatalog(c)
	got, err := DecodeCatalog(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(c.Schema) || len(got.Epochs) != 3 || got.Epochs[2] != 3 || got.Rows != 12 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if e, ok := got.FindPub(77); !ok || e != 3 {
		t.Errorf("publish mark lost: %+v", got.RecentPubs)
	}
	// The row-count and publish-mark sections are part of the record: one
	// that stops after the epoch list, or anywhere else short, is refused.
	const pubSection = 8 + 1 + 16 // rows, mark count, one mark
	for name, data := range map[string][]byte{
		"empty":               nil,
		"no rows/pubs":        enc[:len(enc)-pubSection],
		"truncated mark":      enc[:len(enc)-3],
		"truncated epochs":    enc[:len(enc)-pubSection-4],
		"trailing bytes":      append(append([]byte(nil), enc...), 0),
		"implausible pub cnt": append(append([]byte(nil), enc[:len(enc)-17]...), 0xFF, 0x7F),
	} {
		if got, err := DecodeCatalog(data); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, got)
		} else if got != nil {
			t.Errorf("%s: error %v came with a half-filled catalog", name, err)
		}
	}
}

func TestTupleRecordCodec(t *testing.T) {
	s := rSchema(t)
	row := tuple.Row{tuple.S("key1"), tuple.S("val1")}
	rec := TupleRecord{ID: tuple.NewID(s, row, 4), Row: row}
	enc, err := EncodeTupleRecord(s, rec)
	if err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(enc)
	id := tuple.ID{Epoch: tuple.Epoch(r.U64()), Key: r.Str()}
	b := tuple.NewBatch(s)
	if err := DecodeTupleRecordCols(s, enc, b); err != nil {
		t.Fatal(err)
	}
	if got := b.Rows(); id != rec.ID || len(got) != 1 || !got[0].Equal(rec.Row) {
		t.Errorf("round trip: %v %v != %+v", id, got, rec)
	}
}

func TestBuildInitialPagesSmall(t *testing.T) {
	s := rSchema(t)
	var ups []Update
	for i := 0; i < 10; i++ {
		ups = append(ups, Update{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("k%d", i)), tuple.S("v")}})
	}
	pages, writes, err := BuildInitialPages(s, 1, ups, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 {
		t.Fatalf("want 1 page, got %d", len(pages))
	}
	p := pages[0]
	if p.Ref.Min != keyspace.Zero || p.Ref.Max != keyspace.Zero {
		t.Error("single page should cover the full ring")
	}
	if len(p.IDs) != 10 || len(writes) != 10 {
		t.Errorf("ids=%d writes=%d", len(p.IDs), len(writes))
	}
	// IDs sorted by hash.
	for i := 1; i < len(p.IDs); i++ {
		if p.IDs[i-1].Hash().Cmp(p.IDs[i].Hash()) > 0 {
			t.Error("page IDs not sorted by hash")
		}
	}
}

func TestBuildInitialPagesSplitsAndPartitions(t *testing.T) {
	s := rSchema(t)
	var ups []Update
	const n = 1000
	for i := 0; i < n; i++ {
		ups = append(ups, Update{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("key-%04d", i)), tuple.S("v")}})
	}
	pages, writes, err := BuildInitialPages(s, 1, ups, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != n {
		t.Fatalf("writes = %d", len(writes))
	}
	if len(pages) < n/64 {
		t.Fatalf("too few pages: %d", len(pages))
	}
	// Page ranges must partition the full ring in order.
	if pages[0].Ref.Min != keyspace.Zero {
		t.Error("first page must start at zero")
	}
	if pages[len(pages)-1].Ref.Max != keyspace.Zero {
		t.Error("last page must wrap to zero")
	}
	total := 0
	seqs := map[uint32]bool{}
	for i, p := range pages {
		if i > 0 && p.Ref.Min != pages[i-1].Ref.Max {
			t.Errorf("page %d not contiguous", i)
		}
		if len(p.IDs) > 64+5 { // small slack for equal-hash runs
			t.Errorf("page %d overfull: %d", i, len(p.IDs))
		}
		if seqs[p.Ref.ID.Seq] {
			t.Errorf("duplicate page seq %d", p.Ref.ID.Seq)
		}
		seqs[p.Ref.ID.Seq] = true
		for _, id := range p.IDs {
			if !p.Ref.Contains(id.Hash()) {
				t.Fatalf("page %d contains out-of-range ID %v", i, id)
			}
		}
		total += len(p.IDs)
	}
	if total != n {
		t.Errorf("total ids %d != %d", total, n)
	}
}

func TestBuildInitialPagesEmptyAndDedup(t *testing.T) {
	s := rSchema(t)
	pages, writes, err := BuildInitialPages(s, 1, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 || len(pages[0].IDs) != 0 || len(writes) != 0 {
		t.Errorf("empty build: %d pages, %d ids", len(pages), len(pages[0].IDs))
	}
	// Same key twice: last wins, one entry.
	ups := []Update{
		{Op: OpInsert, Row: tuple.Row{tuple.S("k"), tuple.S("v1")}},
		{Op: OpUpdate, Row: tuple.Row{tuple.S("k"), tuple.S("v2")}},
	}
	pages, writes, err = BuildInitialPages(s, 1, ups, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages[0].IDs) != 1 {
		t.Errorf("dedup failed: %d ids", len(pages[0].IDs))
	}
	// Both ops name the same store key (same key, same epoch), so only
	// the surviving version is written.
	if len(writes) != 1 || writes[0].Row[1].Str != "v2" {
		t.Errorf("want one write of the last version, got %+v", writes)
	}
	// Insert then delete: no entry.
	ups = []Update{
		{Op: OpInsert, Row: tuple.Row{tuple.S("k"), tuple.S("v1")}},
		{Op: OpDelete, Row: tuple.Row{tuple.S("k"), tuple.S("")}},
	}
	pages, _, err = BuildInitialPages(s, 1, ups, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages[0].IDs) != 0 {
		t.Error("delete after insert should leave no entry")
	}
}

// memStore is an in-memory home for page records: what the cluster's
// replicated store is to a publish.
type memStore struct {
	recs  map[PageID][]byte
	cache *PageCache
	loads int
}

func newMemStore() *memStore {
	return &memStore{recs: map[PageID][]byte{}, cache: NewPageCache(DefaultPageCachePages)}
}

func (m *memStore) load(id PageID) ([]byte, error) {
	m.loads++
	data, ok := m.recs[id]
	if !ok {
		return nil, fmt.Errorf("no record %s", id)
	}
	return data, nil
}

func (m *memStore) resolve(ref PageRef) (*Page, error) {
	p, _, err := m.cache.Resolve(ref.ID, m.load)
	return p, err
}

// publish applies ups on c and stores the page records.
func (m *memStore) publish(t *testing.T, c *Coordinator, s *tuple.Schema, epoch tuple.Epoch, ups []Update, maxPerPage int) (*Coordinator, []Version, []TupleWrite) {
	t.Helper()
	next, versions, writes, err := c.Apply(s, epoch, ups, maxPerPage, m.resolve)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		if _, dup := m.recs[v.Ref().ID]; dup {
			t.Fatalf("page version %s written twice", v.Ref().ID)
		}
		m.recs[v.Ref().ID] = v.Encode()
	}
	return next, versions, writes
}

func TestApplyModifyWritesADelta(t *testing.T) {
	// Mirrors the paper's running example: R(f,z) at epoch 0 changed to
	// R(f,a) at epoch 1 — the page entry for key f is replaced with the
	// new-epoch ID; the old tuple version remains (only writes for the new).
	s := rSchema(t)
	m := newMemStore()
	c0, _, _ := m.publish(t, new(Coordinator), s, 0, []Update{
		{Op: OpInsert, Row: tuple.Row{tuple.S("a"), tuple.S("b")}},
		{Op: OpInsert, Row: tuple.Row{tuple.S("f"), tuple.S("z")}},
	}, 100)
	c1, versions, writes := m.publish(t, c0, s, 1, []Update{
		{Op: OpUpdate, Row: tuple.Row{tuple.S("f"), tuple.S("a")}},
		{Op: OpInsert, Row: tuple.Row{tuple.S("b"), tuple.S("c")}},
	}, 100)
	if len(versions) != 1 || versions[0].Delta == nil {
		t.Fatalf("want one delta record, got %+v", versions)
	}
	d := versions[0].Delta
	if d.Base != c0.Pages[0].ID || len(d.IDs) != 2 || d.IDs[0].Epoch != 1 || d.IDs[1].Epoch != 1 {
		t.Errorf("delta = %+v", d)
	}
	if m.loads != 0 {
		t.Errorf("a delta publish loaded %d page records", m.loads)
	}
	ref := c1.Pages[0]
	if ref.ID.Epoch != 1 || ref.ID.Relation != "R" {
		t.Errorf("new version ID = %v", ref.ID)
	}
	if ref.Min != c0.Pages[0].Min || ref.Max != c0.Pages[0].Max {
		t.Error("page range must be preserved on modify")
	}
	if ref.Entries != 4 || ref.DeltaEntries != 2 || ref.Depth != 1 {
		t.Errorf("ref counts = %d entries, %d delta entries, depth %d", ref.Entries, ref.DeltaEntries, ref.Depth)
	}
	np, err := m.resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if np.Ref.ID != ref.ID || len(np.IDs) != 3 || len(np.Hashes) != 3 {
		t.Fatalf("resolved %v with %d ids", np.Ref.ID, len(np.IDs))
	}
	wantEpochs := map[string]tuple.Epoch{"a": 0, "f": 1, "b": 1}
	for i, id := range np.IDs {
		vals, err := id.KeyValues()
		if err != nil {
			t.Fatal(err)
		}
		if want := wantEpochs[vals[0].Str]; id.Epoch != want {
			t.Errorf("key %s at epoch %d, want %d", vals[0].Str, id.Epoch, want)
		}
		if np.Hashes[i] != id.Hash() {
			t.Errorf("entry %d carries the wrong hash", i)
		}
	}
	if len(writes) != 2 {
		t.Errorf("want 2 tuple writes, got %d", len(writes))
	}
	// The old version is untouched (copy-on-write).
	if old, err := m.resolve(c0.Pages[0]); err != nil || len(old.IDs) != 2 {
		t.Errorf("epoch 0 now resolves to %+v, %v", old, err)
	}
}

func TestApplyDeleteAndSplit(t *testing.T) {
	s := rSchema(t)
	m := newMemStore()
	var initial []Update
	for i := 0; i < 50; i++ {
		initial = append(initial, Update{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("k%02d", i)), tuple.S("v")}})
	}
	c0, _, _ := m.publish(t, new(Coordinator), s, 0, initial, 1000)

	// Delete one.
	c1, versions, writes := m.publish(t, c0, s, 1,
		[]Update{{Op: OpDelete, Row: tuple.Row{tuple.S("k07"), tuple.S("")}}}, 1000)
	if len(versions) != 1 || versions[0].Delta == nil || len(versions[0].Delta.IDs) != 1 || versions[0].Delta.IDs[0].Epoch != Tombstone {
		t.Fatalf("want a delta of one tombstone, got %+v", versions)
	}
	if ref := c1.Pages[0]; ref.Entries != 50 || ref.DeltaEntries != 1 {
		t.Errorf("a delete moved the entry bound: %+v", ref)
	}
	if p, err := m.resolve(c1.Pages[0]); err != nil || len(p.IDs) != 49 || len(writes) != 0 {
		t.Errorf("after delete: %+v, %v, %d writes", p, err, len(writes))
	}

	// Overflow: a small page cap forces a rewrite that splits within the
	// old range.
	var ups []Update
	for i := 0; i < 60; i++ {
		ups = append(ups, Update{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("new%02d", i)), tuple.S("v")}})
	}
	c2, versions, _ := m.publish(t, c0, s, 2, ups, 64)
	if len(versions) < 2 {
		t.Fatalf("expected split, got %d records", len(versions))
	}
	if c2.Pages[0].Min != c0.Pages[0].Min || c2.Pages[len(c2.Pages)-1].Max != c0.Pages[0].Max {
		t.Error("split pages must cover exactly the old range")
	}
	total := 0
	for i, v := range versions {
		p := v.Page
		if p == nil {
			t.Fatalf("record %d of a split is a delta", i)
		}
		if p.Ref != c2.Pages[i] || p.Ref.Depth != 0 || p.Ref.DeltaEntries != 0 || int(p.Ref.Entries) != len(p.IDs) {
			t.Errorf("page %d ref %+v, coordinator %+v, %d ids", i, p.Ref, c2.Pages[i], len(p.IDs))
		}
		if i > 0 && p.Ref.Min != versions[i-1].Page.Ref.Max {
			t.Errorf("split page %d not contiguous", i)
		}
		if len(p.IDs) > 64 {
			t.Errorf("split page %d overfull: %d", i, len(p.IDs))
		}
		for _, id := range p.IDs {
			if !p.Ref.Contains(id.Hash()) {
				t.Error("split page contains out-of-range id")
			}
		}
		total += len(p.IDs)
	}
	if total != 110 {
		t.Errorf("total after split = %d, want 110", total)
	}
}

func TestApplyCompactsAtTheChainBounds(t *testing.T) {
	s := rSchema(t)
	one := func(i int) []Update {
		return []Update{{Op: OpUpdate, Row: tuple.Row{tuple.S("k"), tuple.S(fmt.Sprint(i))}}}
	}
	// Depth: MaxDeltaDepth deltas, then a full page.
	m := newMemStore()
	c, _, _ := m.publish(t, new(Coordinator), s, 0, one(0), 0)
	for e := 1; e <= MaxDeltaDepth+1; e++ {
		var versions []Version
		c, versions, _ = m.publish(t, c, s, tuple.Epoch(e), one(e), 0)
		if full := versions[0].Page != nil; full != (e == MaxDeltaDepth+1) {
			t.Fatalf("epoch %d: full page = %v (ref %+v)", e, full, c.Pages[0])
		}
	}
	if ref := c.Pages[0]; ref.Depth != 0 || ref.DeltaEntries != 0 || ref.Entries != 1 {
		t.Errorf("compacted ref = %+v", ref)
	}
	// Size: a batch that would make the chain fatter than MaxDeltaEntries
	// rewrites the page at once.
	var big []Update
	for i := 0; i <= MaxDeltaEntries; i++ {
		big = append(big, Update{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("b%03d", i)), tuple.S("v")}})
	}
	if _, versions, _ := m.publish(t, c, s, 1000, big, 0); versions[0].Page == nil {
		t.Error("a batch of more than MaxDeltaEntries entries was written as a delta")
	}
	if _, versions, _ := m.publish(t, c, s, 1001, big[:MaxDeltaEntries], 0); versions[0].Delta == nil {
		t.Error("a batch of MaxDeltaEntries entries on a full page was not written as a delta")
	}
}

func TestApplyRejectsACoordinatorThatDoesNotCoverTheRing(t *testing.T) {
	s := rSchema(t)
	// A page covering a tiny range that cannot contain our key.
	c := &Coordinator{Relation: "R", Pages: []PageRef{{
		ID:  PageID{"R", 0, 0},
		Min: keyspace.FromUint64(1),
		Max: keyspace.FromUint64(2),
	}}}
	_, _, _, err := c.Apply(s, 1, []Update{{Op: OpInsert, Row: tuple.Row{tuple.S("zzz"), tuple.S("v")}}}, 10, nil)
	if err == nil {
		t.Fatal("expected an error for a key no page covers")
	}
}

func TestPagePlacementColocation(t *testing.T) {
	// Placement of a page is the midpoint of its range, so it falls inside
	// the range (the colocation invariant of §IV) — including wrapped
	// ranges and the full ring.
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var a, b keyspace.Key
		r.Read(a[:])
		r.Read(b[:])
		if a == b {
			continue
		}
		ref := PageRef{Min: a, Max: b}
		if !ref.Contains(ref.Placement()) {
			t.Fatalf("placement %s outside page range [%s,%s)",
				ref.Placement().Short(), a.Short(), b.Short())
		}
	}
	full := PageRef{Min: keyspace.Zero, Max: keyspace.Zero}
	if !full.Contains(full.Placement()) {
		t.Error("full-ring placement outside range")
	}
}

func TestPaperExample41(t *testing.T) {
	// Paper Example 4.1: R(x,y), key x. Epoch 0 inserts R(a,b), R(f,z).
	// Epoch 1 inserts R(b,c), R(e,e), R(c,f) and changes R(f,z)→R(f,a).
	// Epoch 2 inserts R(d,d). The tuple ID of R(f,a) must be ⟨f,1⟩, and the
	// catalog view at epoch 2 must contain exactly the six current tuples.
	s := rSchema(t)
	m := newMemStore()
	c0, _, _ := m.publish(t, new(Coordinator), s, 0, []Update{
		{Op: OpInsert, Row: tuple.Row{tuple.S("a"), tuple.S("b")}},
		{Op: OpInsert, Row: tuple.Row{tuple.S("f"), tuple.S("z")}},
	}, 100)
	c1, _, _ := m.publish(t, c0, s, 1, []Update{
		{Op: OpInsert, Row: tuple.Row{tuple.S("b"), tuple.S("c")}},
		{Op: OpInsert, Row: tuple.Row{tuple.S("e"), tuple.S("e")}},
		{Op: OpInsert, Row: tuple.Row{tuple.S("c"), tuple.S("f")}},
		{Op: OpUpdate, Row: tuple.Row{tuple.S("f"), tuple.S("a")}},
	}, 100)
	c2, _, _ := m.publish(t, c1, s, 2, []Update{{Op: OpInsert, Row: tuple.Row{tuple.S("d"), tuple.S("d")}}}, 100)
	page2, err := m.resolve(c2.Pages[0])
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]tuple.Epoch{
		"a": 0, "f": 1, "b": 1, "e": 1, "c": 1, "d": 2,
	}
	if len(page2.IDs) != len(want) {
		t.Fatalf("%d current ids, want %d", len(page2.IDs), len(want))
	}
	for _, id := range page2.IDs {
		vals, err := id.KeyValues()
		if err != nil {
			t.Fatal(err)
		}
		k := vals[0].Str
		if id.Epoch != want[k] {
			t.Errorf("tuple ID for %s = ⟨%s,%d⟩, want epoch %d", k, k, id.Epoch, want[k])
		}
	}
}

func TestTupleKVKeyRoundTrip(t *testing.T) {
	s := rSchema(t)
	row := tuple.Row{tuple.S("some-key\x00tricky"), tuple.S("v")}
	id := tuple.NewID(s, row, 9)
	kv := TupleKVKey(id)
	gotHash, ok := TupleKeyHash(kv)
	if !ok || gotHash != id.Hash() {
		t.Errorf("TupleKeyHash = %v, %v", gotHash, ok)
	}
	gotID, ok := TupleIDFromKVKey(kv)
	if !ok || gotID != id {
		t.Errorf("TupleIDFromKVKey = %v, %v", gotID, ok)
	}
	if _, ok := TupleIDFromKVKey([]byte("x/short")); ok {
		t.Error("bad kv key accepted")
	}
}

func TestTupleScanBounds(t *testing.T) {
	min := keyspace.FromUint64(100)
	max := keyspace.FromUint64(200)
	lo, hi, wrapped := TupleScanBounds(min, max)
	if wrapped {
		t.Error("forward range reported wrapped")
	}
	kv := TupleKVKey(tuple.ID{Key: "k", Epoch: 0})
	_ = kv
	if string(lo[:2]) != "t/" || string(hi[:2]) != "t/" {
		t.Error("bounds must carry the tuple prefix")
	}
	_, _, wrapped = TupleScanBounds(max, min)
	if !wrapped {
		t.Error("reversed range must report wrapped")
	}
	fullLo, fullHi, wrapped := TupleScanBounds(keyspace.Zero, keyspace.Zero)
	if wrapped || string(fullLo) != "t/" || string(fullHi) != "t0" {
		t.Errorf("full-ring bounds = %q %q %v", fullLo, fullHi, wrapped)
	}
}

// TestPageCodecCachesHashes checks that the encoding persists each
// entry's placement hash, so routing never hashes tuple IDs at scan
// time, and that anything but a whole current-version page is refused.
func TestPageCodecCachesHashes(t *testing.T) {
	p := testPage(t, 20)
	enc := EncodePage(p)
	v, err := DecodePage(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := v.Page
	if len(got.Hashes) != len(p.IDs) {
		t.Fatalf("%d hashes for %d ids", len(got.Hashes), len(p.IDs))
	}
	for i, id := range p.IDs {
		if got.IDs[i] != id {
			t.Errorf("id %d: %v != %v", i, got.IDs[i], id)
		}
		if got.Hashes[i] != id.Hash() {
			t.Errorf("hash %d: %v != %v", i, got.Hashes[i], id.Hash())
		}
	}
	otherKind := append([]byte(nil), enc...)
	otherKind[1] = 2 // the retired whole-page-only layout
	for name, data := range map[string][]byte{
		"empty":          nil,
		"tag only":       enc[:1],
		"untagged":       enc[2:],
		"unknown kind":   otherKind,
		"truncated":      enc[:len(enc)-5],
		"trailing bytes": append(append([]byte(nil), enc...), 0),
	} {
		if got, err := DecodePage(data); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, got.Ref())
		} else if got != (Version{}) {
			t.Errorf("%s: error %v came with a half-filled record", name, err)
		}
	}
}

// TestBuildInitialPagesCarryHashes checks the publish path fills the
// hash cache without recomputation surprises.
func TestBuildInitialPagesCarryHashes(t *testing.T) {
	s := rSchema(t)
	var ups []Update
	for i := 0; i < 50; i++ {
		ups = append(ups, Update{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("k%d", i)), tuple.S("v")}})
	}
	pages, _, err := BuildInitialPages(s, 1, ups, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if len(p.Hashes) != len(p.IDs) {
			t.Fatalf("page %v: %d hashes for %d ids", p.Ref.ID, len(p.Hashes), len(p.IDs))
		}
		for i, id := range p.IDs {
			if p.Hashes[i] != id.Hash() {
				t.Fatalf("page %v entry %d: cached hash mismatch", p.Ref.ID, i)
			}
		}
	}
}

// TestDecodeTupleRecordCols checks the columnar record decode against the
// row-building decoder.
func TestDecodeTupleRecordCols(t *testing.T) {
	s, err := tuple.NewSchema("m", []tuple.Column{
		{Name: "k", Type: tuple.String},
		{Name: "n", Type: tuple.Int64},
		{Name: "x", Type: tuple.Float64},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	b := tuple.NewBatch(s)
	var want []tuple.Row
	for i := 0; i < 30; i++ {
		row := tuple.Row{tuple.S(fmt.Sprintf("key-%d", i)), tuple.I(int64(i)), tuple.F(float64(i) / 3)}
		rec := TupleRecord{ID: tuple.NewID(s, row, 2), Row: row}
		data, err := EncodeTupleRecord(s, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeTupleRecordCols(s, data, b); err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	got := b.Rows()
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}
