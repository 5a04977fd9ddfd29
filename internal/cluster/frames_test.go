package cluster

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"orchestra/internal/keyspace"
	"orchestra/internal/kvstore"
	"orchestra/internal/ring"
)

// frameDecoders is every decoder of a counted or length-prefixed cluster
// frame; each reports how many records it made room for.
var frameDecoders = []struct {
	name   string
	decode func([]byte) int
}{
	{"batch", func(b []byte) int { items, _ := decodeBatch(b); return cap(items) }},
	{"ship response", func(b []byte) int { recs, _, _, _ := decodeShipResp(b); return cap(recs) }},
	{"fetch response", func(b []byte) int { pairs, _, _ := decodeFetchResp(b); return cap(pairs) }},
	{"digest", func(b []byte) int { groups, _ := decodeDigest(b); return cap(groups) }},
	{"fetch request", func(b []byte) int { _, _, want, _ := decodeFetchReq(b); return cap(want) }},
	{"ship request", func(b []byte) int { _, _, _ = decodeShipReq(b); return 0 }},
	{"repl status", func(b []byte) int { _, _, _, _ = decodeReplStatus(b); return 0 }},
	{"lease request", func(b []byte) int { _, _, _, _, _ = decodeLeaseReq(b); return 0 }},
	{"lease response", func(b []byte) int { _, _, _, _, _ = decodeLeaseResp(b); return 0 }},
}

// frameBombs are payloads of a few bytes that claim 2²⁶ records (which
// per-decoder caps once let through to make) or a 2⁶³-byte field (which once
// wrapped negative and reached the slice expression).
func frameBombs() [][]byte {
	count := binary.AppendUvarint(nil, 1<<26)
	field := binary.AppendUvarint(nil, 1<<63)
	return [][]byte{
		count,                             // batch, digest
		append(make([]byte, 9), count...), // ship response; fetch request's ranges
		append([]byte{1}, count...),       // fetch response
		binary.AppendUvarint(nil, 1<<20),  // digest at its old cap
		field,                             // fetch request
		append([]byte{1}, field...),       // batch of one: the key's length; lease request
		append(make([]byte, 9), field...), // lease response
	}
}

func FuzzClusterFrames(f *testing.F) {
	kv := []kvstore.KV{{Key: []byte("t/k1"), Val: []byte("v1")}, {Key: []byte("t/k2")}}
	f.Add(encodeBatch([]RecordPut{{KVKey: kv[0].Key, Value: kv[0].Val}, {KVKey: kv[1].Key}}))
	f.Add(encodeShipResp([]kvstore.ReplRecord{{Seq: 7, Op: 1, Payload: []byte("put")}, {Seq: 8, Op: 2}}, true, false))
	f.Add(encodeFetchResp(kv, true))
	f.Add(encodeFetchReq([]byte("t/k1"), 1<<20, nil))
	f.Add(encodeFetchReq(nil, 1<<20, []ring.Range{{Lo: keyspace.Key{keyspace.Size - 1: 1}, Hi: keyspace.Key{keyspace.Size - 1: 9}}}))
	f.Add(encodeShipReq(7, 1<<20))
	f.Add(encodeReplStatus(9, 3, 4))
	f.Add(encodeDigest([]groupDigest{{name: "c/R", count: 3, xor: 0xfeed, maxEpoch: 9}, {name: "t/0", count: 1}}))
	f.Add(encodeLeaseReq(leaseOpAcquire, "R", "orch-001", time.Second))
	f.Add(encodeLeaseResp(4, "orch-002", time.Millisecond))
	f.Add([]byte{})
	for _, bomb := range frameBombs() {
		f.Add(bomb)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// No panic, and no room made that the payload does not back.
		for _, d := range frameDecoders {
			if n := d.decode(data); n > len(data) {
				t.Fatalf("%s: room for %d records from %d bytes", d.name, n, len(data))
			}
		}
	})
}

// TestClusterFrameBombs pins the cost of refusing a bomb: an error value,
// not the gigabytes its count asks for.
func TestClusterFrameBombs(t *testing.T) {
	for _, d := range frameDecoders {
		for i, bomb := range frameBombs() {
			if allocs := testing.AllocsPerRun(10, func() { d.decode(bomb) }); allocs > 2 {
				t.Errorf("%s, bomb %d: %v allocations, want at most 2", d.name, i, allocs)
			}
			// The least of three: TotalAlloc is process-wide, and goroutines
			// earlier tests left behind allocate too.
			grew := uint64(1 << 62)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				d.decode(bomb)
				runtime.ReadMemStats(&after)
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			}
			if grew > 1<<10 {
				t.Errorf("%s, bomb %d: %d bytes allocated for a %d-byte payload", d.name, i, grew, len(bomb))
			}
		}
	}
}
