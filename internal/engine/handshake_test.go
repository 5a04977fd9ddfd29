package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"orchestra/internal/cluster"
	"orchestra/internal/keyspace"
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// The scan's ID handshake relies on storage order twice: the index side cuts
// each page into runs by ring range (idRouter), and the data side merges the
// runs it receives (preparePass). These tests hold each to the per-ID rule
// it replaced.

// routed is what an idRouter sent to one destination, in sending order.
type routed struct {
	ids    []tuple.ID
	hashes []keyspace.Key
}

// handshakeTables returns every routing table shape the index side can
// meet: both schemes over 1–6 members, and the recovery tables derived from
// them with one and with two members failed.
func handshakeTables(t *testing.T) map[string]*ring.Table {
	t.Helper()
	out := map[string]*ring.Table{}
	for n := 1; n <= 6; n++ {
		ids := make([]ring.NodeID, n)
		for i := range ids {
			ids[i] = ring.NodeID(fmt.Sprintf("node-%d", i))
		}
		for _, scheme := range []ring.Scheme{ring.Balanced, ring.PastryStyle} {
			tb, err := ring.New(ids, scheme, 3)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%d", scheme, n)
			out[name] = tb
			for failed := 1; failed <= 2 && failed < n; failed++ {
				rec, err := tb.WithoutNodes(ids[n-failed:])
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s-%d", name, failed)] = rec
			}
		}
	}
	return out
}

// randomPage returns entries sorted by (hash, key) — the index page order —
// drawn from the whole ring, from a wrapped range [min, 2¹⁶⁰) ∪ [0, max), or
// nothing. Range starts and their predecessors are planted so that runs
// begin and end exactly on boundaries.
func randomPage(rng *rand.Rand, tb *ring.Table) ([]tuple.ID, []keyspace.Key) {
	n := rng.Intn(60)
	if rng.Intn(8) == 0 {
		return nil, nil
	}
	wrapped := rng.Intn(3) == 0
	var lo, hi keyspace.Key // a wrapped page's range: hashes ≥ lo or < hi
	rng.Read(lo[:])
	rng.Read(hi[:])
	if hi.Cmp(lo) > 0 {
		lo, hi = hi, lo
	}
	var hashes []keyspace.Key
	for _, r := range tb.Ranges() {
		if rng.Intn(2) == 0 {
			hashes = append(hashes, r.Range.Lo, r.Range.Lo.Sub(keyspace.Key{keyspace.Size - 1: 1}))
		}
	}
	for i := 0; i < n; i++ {
		var h keyspace.Key
		rng.Read(h[:])
		hashes = append(hashes, h)
	}
	type entry struct {
		h keyspace.Key
		k string
	}
	var es []entry
	for _, h := range hashes {
		if wrapped && !h.InRange(lo, hi) {
			continue
		}
		for c := rng.Intn(2); c >= 0; c-- { // sometimes two keys under one hash
			es = append(es, entry{h, fmt.Sprintf("k%03d", rng.Intn(1000))})
		}
	}
	slices.SortFunc(es, func(a, b entry) int {
		if c := bytes.Compare(a.h[:], b.h[:]); c != 0 {
			return c
		}
		return bytes.Compare([]byte(a.k), []byte(b.k))
	})
	es = slices.CompactFunc(es, func(a, b entry) bool { return a == b })
	ids := make([]tuple.ID, len(es))
	out := make([]keyspace.Key, len(es))
	for i, e := range es {
		ids[i], out[i] = tuple.ID{Key: e.k, Epoch: tuple.Epoch(1 + rng.Intn(3))}, e.h
	}
	return ids, out
}

// TestRunRoutingMatchesOwner: for every table shape, every member as the
// index node, bounded and unbounded key predicates and a stream of random
// pages, the run router sends each destination exactly the (ID, hash)
// sequence that filtering and routing one ID at a time by Table.Owner sends
// it — and a run for the index node itself is the page's own memory.
func TestRunRoutingMatchesOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	preds := map[string]cluster.KeyPred{
		"unbounded": {},
		"bounded":   {Lo: []byte("k200"), Hi: []byte("k700")},
		"lo only":   {Lo: []byte("k500")},
		"hi only":   {Hi: []byte("k300")},
	}
	for name, tb := range handshakeTables(t) {
		for _, self := range tb.Members() {
			for pname, pred := range preds {
				got := map[ring.NodeID]*routed{}
				var pages [][]tuple.ID
				rt := newIDRouter(tb, self, pred, func(dest ring.NodeID, ids []tuple.ID, hashes []keyspace.Key) {
					if len(ids) == 0 || len(ids) != len(hashes) {
						t.Fatalf("%s: shipment of %d ids, %d hashes", name, len(ids), len(hashes))
					}
					if dest == self && pred.Lo == nil && pred.Hi == nil && !aliasesAny(ids, pages) {
						t.Fatalf("%s: a loopback run was copied out of its page", name)
					}
					r := got[dest]
					if r == nil {
						r = &routed{}
						got[dest] = r
					}
					r.ids, r.hashes = append(r.ids, ids...), append(r.hashes, hashes...)
				})
				want := map[ring.NodeID]*routed{}
				for p := 0; p < 6; p++ {
					ids, hashes := randomPage(rng, tb)
					pages = append(pages, ids)
					rt.page(ids, hashes)
					for i, id := range ids {
						if !pred.Match(id.Key) {
							continue
						}
						dest := tb.Owner(hashes[i])
						r := want[dest]
						if r == nil {
							r = &routed{}
							want[dest] = r
						}
						r.ids, r.hashes = append(r.ids, id), append(r.hashes, hashes[i])
					}
				}
				rt.flush()
				if len(got) != len(want) {
					t.Fatalf("%s, self %s, %s: shipped to %d nodes, per-ID routing to %d", name, self, pname, len(got), len(want))
				}
				for dest, w := range want {
					g := got[dest]
					if g == nil || !slices.Equal(g.ids, w.ids) || !slices.Equal(g.hashes, w.hashes) {
						t.Fatalf("%s, self %s, %s: %s got %v, per-ID routing sends %v", name, self, pname, dest, g, w.ids)
					}
				}
			}
		}
	}
}

// aliasesAny reports whether ids lies inside the memory of one of pages.
func aliasesAny(ids []tuple.ID, pages [][]tuple.ID) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(ids)))
	for _, page := range pages {
		if len(page) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
		if p >= lo && p < lo+uintptr(len(page))*unsafe.Sizeof(page[0]) {
			return true
		}
	}
	return false
}

// TestPreparePassIsAStableSort: the merged pass list equals a stable sort of
// the live shipments' entries in arrival order — over random ascending runs,
// shipments that are not one run, IDs shipped by several senders, senders
// that failed and empty shipments — and marks dup exactly the entries whose
// key repeats their predecessor's. One buffer serves every trial, as the
// engine's pool reuses one across passes.
func TestPreparePassIsAStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type idh struct {
		id tuple.ID
		h  keyspace.Key
	}
	pool := make([]idh, 64)
	for i := range pool {
		pool[i].id = tuple.ID{Key: fmt.Sprintf("key-%02d", rng.Intn(40)), Epoch: tuple.Epoch(1 + rng.Intn(2))}
		pool[i].h = pool[i].id.Hash()
		if rng.Intn(4) == 0 && i > 0 { // a hash shared by two keys
			pool[i].h = pool[i-1].h
		}
	}
	buf := new(passBuf)
	for trial := 0; trial < 400; trial++ {
		const members = 5
		failed := NewProv(members)
		for i := 0; i < members; i++ {
			if rng.Intn(5) == 0 {
				failed.Set(i)
			}
		}
		var ships []*idShipment
		for s := rng.Intn(8); s > 0; s-- {
			sh := &idShipment{fromIdx: int32(rng.Intn(members))}
			for run := rng.Intn(4); run > 0; run-- {
				part := make([]idh, rng.Intn(20))
				for i := range part {
					part[i] = pool[rng.Intn(len(pool))]
				}
				slices.SortFunc(part, func(a, b idh) int {
					return bytes.Compare(passKey(a.id, a.h), passKey(b.id, b.h))
				})
				for _, e := range part {
					sh.ids, sh.hashes = append(sh.ids, e.id), append(sh.hashes, e.h)
				}
			}
			ships = append(ships, sh)
		}
		type entry struct {
			key       []byte
			ship, pos int32
		}
		var want []entry
		for si, sh := range ships {
			if failed.Has(int(sh.fromIdx)) {
				continue
			}
			for i, id := range sh.ids {
				want = append(want, entry{key: passKey(id, sh.hashes[i]), ship: int32(si), pos: int32(i)})
			}
		}
		slices.SortStableFunc(want, func(a, b entry) int { return bytes.Compare(a.key, b.key) })
		// A buffer reused across trials: what an earlier pass left in it
		// must not show through.
		got, err := preparePass(buf, ships, failed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(want))
		}
		for i := range got {
			key := buf.key(&got[i]) // read through the slab offsets
			dup := i > 0 && bytes.Equal(want[i].key, want[i-1].key)
			if !bytes.Equal(key, want[i].key) || got[i].ship != want[i].ship || got[i].pos != want[i].pos || got[i].done || got[i].dup != dup {
				t.Fatalf("trial %d, entry %d: got (%x, %d, %d, dup %v), want (%x, %d, %d, dup %v)", trial, i,
					key, got[i].ship, got[i].pos, got[i].dup, want[i].key, want[i].ship, want[i].pos, dup)
			}
		}
	}
}

// passKey is an ID's local-store key, as preparePass builds it.
func passKey(id tuple.ID, h keyspace.Key) []byte {
	k := append(append([]byte("t/"), h[:]...), id.Key...)
	return binary.BigEndian.AppendUint64(append(k, 0), uint64(id.Epoch))
}

// BenchmarkScanHandshake is the ID handshake of a scan over 100k tuples on a
// 3-member ring: every member's index side routes the pages it places, and
// every member's data side prepares the pass over what it was sent.
func BenchmarkScanHandshake(b *testing.B) {
	const rows = 100_000
	s := schemaR()
	ups := make([]vstore.Update, rows)
	for i := range ups {
		ups[i] = vstore.Update{Op: vstore.OpInsert, Row: tuple.Row{tuple.I(int64(i)), tuple.I(int64(i % 97))}}
	}
	pages, _, err := vstore.BuildInitialPages(s, 1, ups, vstore.DefaultMaxPageEntries)
	if err != nil {
		b.Fatal(err)
	}
	tb, err := ring.New([]ring.NodeID{"node-0", "node-1", "node-2"}, ring.Balanced, 3)
	if err != nil {
		b.Fatal(err)
	}
	members := tb.Members()
	none := NewProv(len(members))
	buf := new(passBuf)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		wanted := map[ring.NodeID][]*idShipment{}
		for idx, self := range members {
			rt := newIDRouter(tb, self, cluster.KeyPred{}, func(dest ring.NodeID, ids []tuple.ID, hashes []keyspace.Key) {
				wanted[dest] = append(wanted[dest], &idShipment{ids: ids, hashes: hashes, fromIdx: int32(idx)})
			})
			for i := range pages {
				if tb.Owner(pages[i].Ref.Placement()) == self {
					rt.page(pages[i].IDs, pages[i].Hashes)
				}
			}
			rt.flush()
		}
		total := 0
		for _, self := range members {
			pes, err := preparePass(buf, wanted[self], none)
			if err != nil {
				b.Fatal(err)
			}
			total += len(pes)
		}
		if total != rows {
			b.Fatalf("handshake carried %d IDs, want %d", total, rows)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/id")
}

// TestDuplicateWantedIDsEmitOnce: every wanted ID reaches the data pass
// twice, as when several senders ship it, so the entry that ends each full
// batch — where the walk leaves the store and later resumes — has a
// duplicate after it. Each ID is still emitted once.
func TestDuplicateWantedIDsEmitOnce(t *testing.T) {
	const rows = 5000 // four full batches and a partial one
	h := newHarness(t, 1)
	h.create(schemaR())
	h.publish("R", genR(rows, rand.New(rand.NewSource(44))))
	ex := initiatorExec(t, h, &Plan{Root: &ScanNode{Relation: "R"}}, Options{})
	var leaf *scanLeaf
	for _, l := range ex.scans {
		leaf = l
	}
	out := &recSink{}
	leaf.out = out
	for _, ref := range leaf.meta.coord.Pages {
		page, err := leaf.loadPage(ref)
		if err != nil {
			t.Fatal(err)
		}
		leaf.addWanted(page.IDs, page.Hashes, 0)
		leaf.addWanted(page.IDs, page.Hashes, 0)
	}
	leaf.runPass(0, leaf.passSeq.ticket())
	seen := make(map[int64]bool, rows)
	for _, r := range out.rows {
		if x := r[0].AsInt(); seen[x] {
			t.Fatalf("key %d emitted twice", x)
		} else {
			seen[x] = true
		}
	}
	if len(seen) != rows {
		t.Fatalf("emitted %d of %d IDs", len(seen), rows)
	}
}
