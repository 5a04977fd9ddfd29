package vstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

// checkCoordinator checks the structural invariants of one version: the
// ranges partition the ring in order from the zero key, and every ref's
// counts are inside the compaction rule's bounds.
func checkCoordinator(t *testing.T, c *Coordinator, maxPerPage int) {
	t.Helper()
	if len(c.Pages) == 0 {
		t.Fatalf("epoch %d: no pages", c.Epoch)
	}
	if c.Pages[0].Min != keyspace.Zero || c.Pages[len(c.Pages)-1].Max != keyspace.Zero {
		t.Fatalf("epoch %d: ranges do not start and end at the zero key", c.Epoch)
	}
	seen := map[PageID]bool{}
	for i, ref := range c.Pages {
		if i > 0 && (ref.Min != c.Pages[i-1].Max || !c.Pages[i-1].Min.Less(ref.Min)) {
			t.Fatalf("epoch %d: page %d [%s,%s) does not continue page %d", c.Epoch, i, ref.Min.Short(), ref.Max.Short(), i-1)
		}
		if seen[ref.ID] {
			t.Fatalf("epoch %d: page %s linked twice", c.Epoch, ref.ID)
		}
		seen[ref.ID] = true
		if ref.Depth > MaxDeltaDepth || ref.DeltaEntries > MaxDeltaEntries || int(ref.Entries) > maxPerPage {
			t.Fatalf("epoch %d: page %s outside the compaction rule: %+v", c.Epoch, ref.ID, ref)
		}
		if (ref.Depth == 0) != (ref.DeltaEntries == 0) {
			t.Fatalf("epoch %d: page %s: depth %d with %d delta entries", c.Epoch, ref.ID, ref.Depth, ref.DeltaEntries)
		}
	}
}

// checkVersion resolves every page of c through cache and requires the
// result to be exactly model: sorted by (hash, key), one entry per key,
// each entry in its page's range and carrying its hash.
func checkVersion(t *testing.T, m *memStore, cache *PageCache, c *Coordinator, model map[string]tuple.Epoch) {
	t.Helper()
	got := 0
	for _, ref := range c.Pages {
		p, _, err := cache.Resolve(ref.ID, m.load)
		if err != nil {
			t.Fatalf("epoch %d: %v", c.Epoch, err)
		}
		if p.Ref.ID != ref.ID || p.Ref.Min != ref.Min || p.Ref.Max != ref.Max {
			t.Fatalf("epoch %d: resolved %+v for ref %+v", c.Epoch, p.Ref, ref)
		}
		if len(p.IDs) > int(ref.Entries) || len(p.IDs) != len(p.Hashes) || int(p.Ref.Entries) != len(p.IDs) {
			t.Fatalf("epoch %d: page %s has %d ids, %d hashes; ref bounds it by %d", c.Epoch, ref.ID, len(p.IDs), len(p.Hashes), ref.Entries)
		}
		for i, id := range p.IDs {
			if p.Hashes[i] != id.Hash() || !ref.Contains(p.Hashes[i]) {
				t.Fatalf("epoch %d: page %s entry %d: wrong hash or outside the range", c.Epoch, ref.ID, i)
			}
			if i > 0 && cmpEntry(&p.Hashes[i-1], p.IDs[i-1].Key, &p.Hashes[i], id.Key) >= 0 {
				t.Fatalf("epoch %d: page %s entries %d and %d out of order or equal", c.Epoch, ref.ID, i-1, i)
			}
			if want, ok := model[id.Key]; !ok || want != id.Epoch {
				t.Fatalf("epoch %d: page %s lists %v; the model has epoch %d, present %v", c.Epoch, ref.ID, id, want, ok)
			}
		}
		got += len(p.IDs)
	}
	if got != len(model) {
		t.Fatalf("epoch %d: %d entries, the model has %d keys", c.Epoch, got, len(model))
	}
}

// TestVersioningAgainstModel publishes random insert/update/delete
// batches for hundreds of epochs and checks every epoch's version — not
// just the latest — against an in-memory model, warm and cold.
func TestVersioningAgainstModel(t *testing.T) {
	for _, cfg := range []struct {
		name               string
		maxPerPage, epochs int
		keys, maxBatch     int
	}{
		{"small pages split", 16, 250, 400, 12},
		{"long chains compact", 512, 400, 300, 3},
		{"fat batches", 64, 200, 2000, 90},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed %d", cfg.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				s := rSchema(t)
				m := newMemStore()
				model := map[string]tuple.Epoch{}
				var coords []*Coordinator
				var models []map[string]tuple.Epoch
				c := new(Coordinator)
				deltas, fulls, maxDepth := 0, 0, uint32(0)
				for e := tuple.Epoch(1); int(e) <= cfg.epochs; e++ {
					var ups []Update
					for n := 1 + rng.Intn(cfg.maxBatch); n > 0; n-- {
						row := tuple.Row{tuple.S(fmt.Sprintf("key-%d", rng.Intn(cfg.keys))), tuple.S(fmt.Sprint(e))}
						key := tuple.NewID(s, row, 0).Key
						if rng.Intn(4) == 0 {
							ups = append(ups, Update{Op: OpDelete, Row: row})
							delete(model, key)
						} else {
							ups = append(ups, Update{Op: OpUpdate, Row: row})
							model[key] = e
						}
					}
					var versions []Version
					c, versions, _ = m.publish(t, c, s, e, ups, cfg.maxPerPage)
					for _, v := range versions {
						if v.Delta != nil {
							deltas++
						} else {
							fulls++
						}
					}
					checkCoordinator(t, c, cfg.maxPerPage)
					for _, ref := range c.Pages {
						maxDepth = max(maxDepth, ref.Depth)
					}
					snap := make(map[string]tuple.Epoch, len(model))
					for k, v := range model {
						snap[k] = v
					}
					coords, models = append(coords, c), append(models, snap)
				}
				if deltas == 0 || fulls < 2 {
					t.Fatalf("the schedule wrote %d deltas and %d full pages; it must exercise both", deltas, fulls)
				}
				t.Logf("%d delta records, %d full pages, %d pages at the end, deepest chain %d", deltas, fulls, len(c.Pages), maxDepth)
				cold := NewPageCache(1) // holds nothing across pages: every resolve walks its chain
				for i, c := range coords {
					checkVersion(t, m, m.cache, c, models[i])
					checkVersion(t, m, cold, c, models[i])
				}
			})
		}
	}
}

// TestResolveMergesIntoTheCachedBase checks the reader's steady state:
// after a publish, resolving the new tip loads the one new delta record
// and nothing below it.
func TestResolveMergesIntoTheCachedBase(t *testing.T) {
	s := rSchema(t)
	m := newMemStore()
	one := func(i int) []Update {
		return []Update{{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("k%d", i)), tuple.S("v")}}}
	}
	c, _, _ := m.publish(t, new(Coordinator), s, 1, one(0), 0)
	for e := 2; e <= 10; e++ {
		c, _, _ = m.publish(t, c, s, tuple.Epoch(e), one(e), 0)
		before := m.loads
		p, hit, err := m.cache.Resolve(c.Pages[0].ID, m.load)
		if err != nil || hit || len(p.IDs) != e {
			t.Fatalf("epoch %d: %d ids, hit %v, %v", e, len(p.IDs), hit, err)
		}
		if want := 1; e > 2 && m.loads-before != want {
			t.Errorf("epoch %d: resolve loaded %d records, want %d", e, m.loads-before, want)
		}
		if _, hit, _ := m.cache.Resolve(c.Pages[0].ID, m.load); !hit {
			t.Errorf("epoch %d: second resolve missed", e)
		}
	}
	st := m.cache.Stats()
	if st.Hits != 9 || st.Misses != 9 || st.Size != 9 {
		t.Errorf("stats = %+v; chain lookups must not count", st)
	}
}

// TestResolveRefusesBrokenChains: a record under the wrong key, a missing
// base and a chain deeper than the rule allows are errors, not pages.
func TestResolveRefusesBrokenChains(t *testing.T) {
	p := testPage(t, 4)
	delta := func(id, base PageID) []byte {
		return EncodeDelta(&Delta{Ref: PageRef{ID: id, Min: p.Ref.Min, Max: p.Ref.Max}, Base: base})
	}
	id := func(e int) PageID { return PageID{Relation: "R", Epoch: tuple.Epoch(e)} }
	m := newMemStore()
	m.recs[id(1)] = EncodePage(p) // names p.Ref.ID, not id(1)
	m.recs[id(2)] = delta(id(2), id(99))
	for e := 100; e <= 101+MaxDeltaDepth; e++ {
		m.recs[id(e)] = delta(id(e), id(e-1)) // bottomless
	}
	for name, tip := range map[string]PageID{"wrong key": id(1), "missing base": id(2), "too deep": id(101 + MaxDeltaDepth)} {
		if got, _, err := m.cache.Resolve(tip, m.load); err == nil {
			t.Errorf("%s: resolved to %+v", name, got.Ref)
		}
	}
}

// FuzzDecodePage: no input panics the page decoder, and whatever decodes
// survives a round trip through its own encoding.
func FuzzDecodePage(f *testing.F) {
	s, _ := tuple.NewSchema("R", []tuple.Column{{Name: "x", Type: tuple.String}, {Name: "y", Type: tuple.String}}, "x")
	var ups []Update
	for i := 0; i < 40; i++ {
		ups = append(ups, Update{Op: OpInsert, Row: tuple.Row{tuple.S(fmt.Sprintf("k%d", i)), tuple.S("v")}})
	}
	c, versions, _, err := new(Coordinator).Apply(s, 1, ups, 16, nil)
	if err != nil {
		f.Fatal(err)
	}
	_, more, _, err := c.Apply(s, 2, []Update{
		{Op: OpUpdate, Row: ups[3].Row}, {Op: OpDelete, Row: ups[4].Row}, {Op: OpDelete, Row: ups[5].Row},
	}, 16, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range append(versions, more...) {
		enc := v.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		garbled := append([]byte(nil), enc...)
		garbled[len(garbled)/3] ^= 0x5a
		f.Add(garbled)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		PagePlacement(data)
		v, err := DecodePage(data)
		if err != nil {
			if v != (Version{}) {
				t.Fatalf("error %v came with a record", err)
			}
			return
		}
		if (v.Page == nil) == (v.Delta == nil) {
			t.Fatalf("decoded to %+v: exactly one kind must be set", v)
		}
		again, err := DecodePage(v.Encode())
		if err != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("round trip: %+v, %v; want %+v", again, err, v)
		}
		if placement, ok := PagePlacement(data); !ok || placement != v.Ref().Placement() {
			t.Fatalf("PagePlacement = %v, %v; the record's ref says %v", placement, ok, v.Ref().Placement())
		}
	})
}
