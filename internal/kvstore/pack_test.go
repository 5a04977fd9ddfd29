package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// checkPacked fails unless every leaf obeys the pack rule: at most
// 1/packShare of its entries have bytes outside its slab, and its write
// count bounds them.
func checkPacked(t *testing.T, s *Store, when string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n := s.tree.first(); n != nil; n = n.next {
		if l := n.loose(); l*packShare > len(n.ents) || l > n.stale {
			t.Fatalf("%s: leaf of %d entries has %d outside its slab (writes since pack %d)", when, len(n.ents), l, n.stale)
		}
	}
}

// checkModel fails unless Iter and Scan both visit exactly the model's
// pairs in key order.
func checkModel(t *testing.T, s *Store, model map[string]string, when string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if s.Len() != len(keys) {
		t.Fatalf("%s: Len %d, model %d", when, s.Len(), len(keys))
	}
	i := 0
	s.Scan(nil, nil, func(k, v []byte) bool {
		if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
			t.Fatalf("%s: scan pair %d is %q=%q", when, i, k, v)
		}
		i++
		return true
	})
	i = 0
	s.Iter(func(it *Iterator) {
		for it.Seek(nil); it.Valid(); it.Next() {
			if i >= len(keys) || string(it.Key()) != keys[i] || string(it.Value()) != model[keys[i]] {
				t.Fatalf("%s: iter pair %d is %q=%q", when, i, it.Key(), it.Value())
			}
			i++
		}
	})
	if i != len(keys) {
		t.Fatalf("%s: iter visited %d pairs, model has %d", when, i, len(keys))
	}
}

// TestPackAgainstModel: a seeded random interleaving of puts, batches,
// overwrites and deletes keeps the store equal to a map and every leaf
// within the pack rule after each operation.
func TestPackAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewMemory()
		model := map[string]string{}
		key := func() []byte { return []byte(fmt.Sprintf("k%05d", rng.Intn(3000))) }
		val := func() []byte { return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, rng.Intn(40)) }
		for op := 0; op < 1500; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				k, v := key(), val()
				if err := s.Put(k, v); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = string(v)
			case r < 6:
				kvs := make([]KV, 1+rng.Intn(200))
				for i := range kvs {
					kvs[i] = KV{Key: key(), Val: val()}
				}
				if err := s.PutBatch(kvs); err != nil {
					t.Fatal(err)
				}
				for _, kv := range kvs {
					model[string(kv.Key)] = string(kv.Val)
				}
			case r < 8 && len(model) > 0:
				// Overwrite a present key.
				var k string
				for k = range model {
					break
				}
				v := val()
				if err := s.Put([]byte(k), v); err != nil {
					t.Fatal(err)
				}
				model[k] = string(v)
			default:
				k := key()
				ok, err := s.Delete(k)
				if err != nil {
					t.Fatal(err)
				}
				if _, in := model[string(k)]; in != ok {
					t.Fatalf("seed %d op %d: delete %q found %v, model %v", seed, op, k, ok, in)
				}
				delete(model, string(k))
			}
			when := fmt.Sprintf("seed %d op %d", seed, op)
			checkPacked(t, s, when)
			if op%10 == 0 {
				checkModel(t, s, model, when)
			}
		}
		checkModel(t, s, model, fmt.Sprintf("seed %d end", seed))
	}
}

// TestReopenedStoreIsPacked: a store recovered from a snapshot plus a WAL
// tail holds every record in its leaf slab, and nothing of the recovery
// buffers.
func TestReopenedStoreIsPacked(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	write := func(n int) {
		for i := 0; i < n; i++ {
			k, v := fmt.Sprintf("k%06d", rng.Intn(20000)), fmt.Sprintf("v%d", rng.Int())
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	write(3000)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(2000) // the WAL tail past the snapshot
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkModel(t, s, model, "reopened")
	for n := s.tree.first(); n != nil; n = n.next {
		if l := n.loose(); l != 0 || n.stale != 0 {
			t.Fatalf("reopened leaf of %d entries has %d outside its slab (writes since pack %d)", len(n.ents), l, n.stale)
		}
	}
}

// TestRetainedBytesSurvivePacks: slices retained from Get, GetRetained and
// Iter — the last read after the lock is dropped, by readers running beside
// the writer — are byte-identical after the writes around them have packed
// their leaves many times over.
func TestRetainedBytesSurvivePacks(t *testing.T) {
	s := NewMemory()
	const keys = 2000
	valOf := func(k, gen int) []byte { return []byte(fmt.Sprintf("value-%05d-gen%d", k, gen)) }
	for k := 0; k < keys; k += 2 {
		s.Put([]byte(fmt.Sprintf("k%05d", k)), valOf(k, 0))
	}
	type kept struct {
		got, want []byte
	}
	var (
		mu   sync.Mutex
		held []kept
	)
	keep := func(got, want []byte) {
		mu.Lock()
		held = append(held, kept{got, append([]byte(nil), want...)})
		mu.Unlock()
	}
	for k := 0; k < keys; k += 50 {
		key := []byte(fmt.Sprintf("k%05d", k))
		v, _ := s.GetRetained(key)
		keep(v, v)
		c, _ := s.Get(key)
		keep(c, c)
	}
	// Readers retain a stretch of Iter values per lock hold and read them
	// outside it, as the scan does between full batches.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var from []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				var batch [][2][]byte
				var first []byte // the first value's bytes, copied under the lock
				s.Iter(func(it *Iterator) {
					for it.Seek(from); it.Valid() && len(batch) < 64; it.Next() {
						batch = append(batch, [2][]byte{it.Key(), it.Value()})
					}
					if len(batch) > 0 {
						first = append(first, batch[0][1]...)
					}
				})
				if len(batch) == 0 {
					from = nil
					continue
				}
				keep(batch[0][1], first)
				for _, kv := range batch {
					if !bytes.HasPrefix(kv[1], []byte("value-"+string(kv[0][1:]))) {
						t.Errorf("reader %d: %q holds %q", r, kv[0], kv[1])
						return
					}
				}
				from = append(batch[len(batch)-1][0][:0:0], batch[len(batch)-1][0]...)
				from = append(from, 0)
			}
		}(r)
	}
	// The writer fills the gaps, overwrites and deletes: every leaf packs
	// several times.
	for gen := 1; gen <= 6; gen++ {
		for k := gen % 2; k < keys; k += 2 {
			if gen%3 == 0 && k%7 == 0 {
				s.Delete([]byte(fmt.Sprintf("k%05d", k)))
				continue
			}
			s.Put([]byte(fmt.Sprintf("k%05d", k)), valOf(k, gen))
		}
	}
	close(stop)
	wg.Wait()
	for i, h := range held {
		if !bytes.Equal(h.got, h.want) {
			t.Fatalf("retained slice %d changed: %q, want %q", i, h.got, h.want)
		}
	}
	if len(held) < keys/50*2 {
		t.Fatalf("held %d slices", len(held))
	}
	checkPacked(t, s, "after writes")
}

// putBatchShape is BenchmarkPutBatch's and TestPutBatchAllocs's store: base
// tuple-shaped records (a 40-byte hash-ordered key, a 48-byte value) in
// memory, and batches of batch fresh records.
const (
	putBatchBase = 100_000
	putBatchSize = 2000
)

// tupleKV returns a tuple-shaped record for i: its key starts with a hash
// of i, so consecutive records land on random leaves.
func tupleKV(i uint64) KV {
	h := i * 0x9E3779B97F4A7C15
	key := make([]byte, 0, 40)
	key = append(key, 't', '/')
	for j := 0; j < 3; j++ {
		key = binary.BigEndian.AppendUint64(key, h)
		h = h*0xBF58476D1CE4E5B9 + 1
	}
	key = binary.BigEndian.AppendUint64(key, i)
	key = append(key, 0, 0, 0, 0, 0, 0)
	val := make([]byte, 48)
	binary.BigEndian.PutUint64(val, i)
	return KV{Key: key, Val: val}
}

// loadedStore returns a memory store holding putBatchBase records, loaded
// in batches as a publish would.
func loadedStore(tb testing.TB) *Store {
	s := NewMemory()
	kvs := make([]KV, 0, putBatchSize)
	for i := uint64(0); i < putBatchBase; i++ {
		kvs = append(kvs, tupleKV(i))
		if len(kvs) == cap(kvs) {
			if err := s.PutBatch(kvs); err != nil {
				tb.Fatal(err)
			}
			kvs = kvs[:0]
		}
	}
	return s
}

// slabs returns the set of leaf slabs in the tree.
func slabs(s *Store) map[*byte]bool {
	m := map[*byte]bool{}
	for n := s.tree.first(); n != nil; n = n.next {
		m[unsafe.SliceData(n.slab)] = true
	}
	return m
}

// putBatchAllocsPerRecord pins the measured ceiling of TestPutBatchAllocs:
// objects allocated per record of a 2 000-record batch, beyond one per
// packed leaf. One is the record's payload; the rest is leaf splits (a
// leaf node and its separator copy) and the shipping ring's growth.
const putBatchAllocsPerRecord = 1.05

// TestPutBatchAllocs: a batch copies each record once, so it allocates one
// object per record plus one slab per packed leaf, and little else.
func TestPutBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := loadedStore(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs, packs uint64
	next := uint64(putBatchBase)
	const runs = 10
	for r := 0; r < runs; r++ {
		kvs := make([]KV, putBatchSize)
		for i := range kvs {
			kvs[i] = tupleKV(next)
			next++
		}
		before := slabs(s)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := s.PutBatch(kvs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		for p := range slabs(s) {
			if !before[p] {
				packs++
			}
		}
	}
	perRecord := float64(allocs-packs) / (runs * putBatchSize)
	t.Logf("%d-record batch into %d records: %.0f allocations, %.1f packed leaves, %.3f per record beyond packs",
		putBatchSize, putBatchBase, float64(allocs)/runs, float64(packs)/runs, perRecord)
	if perRecord > putBatchAllocsPerRecord {
		t.Fatalf("%.3f allocations per record beyond packs, want at most %.2f", perRecord, putBatchAllocsPerRecord)
	}
}

// BenchmarkPutBatch: one 2 000-record batch of fresh tuple-shaped records
// into a 100k-record memory store.
func BenchmarkPutBatch(b *testing.B) {
	s := loadedStore(b)
	next := uint64(putBatchBase)
	kvs := make([]KV, putBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range kvs {
			kvs[j] = tupleKV(next)
			next++
		}
		b.StartTimer()
		if err := s.PutBatch(kvs); err != nil {
			b.Fatal(err)
		}
	}
}
