package vstore

import (
	"encoding/binary"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

// Local key-value layout. Every node's share of the distributed store lives
// in one ordered kvstore; record kinds are distinguished by a one-letter
// prefix. Tuple records embed the tuple-hash so that a page's tuples are
// adjacent on disk and can be retrieved "in a single pass through the hash
// ID range for that page" (§V-B, distributed scan).
//
//	c/<relation>                          catalog
//	r/<relation>\x00<epoch:8>             relation coordinator
//	p/<relation>\x00<epoch:8><seq:4>      index page
//	t/<hash:20><keyenc>\x00<epoch:8>      tuple version

func epochBytes(e tuple.Epoch) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(e))
	return b[:]
}

// CatalogKVKey is the local store key for a relation's catalog.
func CatalogKVKey(relation string) []byte {
	return append([]byte("c/"), relation...)
}

// CatalogPlacement is the ring key where the catalog for relation lives.
func CatalogPlacement(relation string) keyspace.Key {
	return keyspace.HashStrings("catalog", relation)
}

// CoordKVKey is the local store key for the coordinator of (relation, epoch).
func CoordKVKey(relation string, e tuple.Epoch) []byte {
	k := append([]byte("r/"), relation...)
	k = append(k, 0)
	return append(k, epochBytes(e)...)
}

// CoordPlacement hashes ⟨relation, epoch⟩ to the relation coordinator's ring
// position (Algorithm 1 line 1).
func CoordPlacement(relation string, e tuple.Epoch) keyspace.Key {
	data := append([]byte("coord/"+relation+"/"), epochBytes(e)...)
	return keyspace.Hash(data)
}

// PageKVKey is the local store key for an index page.
func PageKVKey(id PageID) []byte {
	k := append([]byte("p/"), id.Relation...)
	k = append(k, 0)
	k = append(k, epochBytes(id.Epoch)...)
	var seq [4]byte
	binary.BigEndian.PutUint32(seq[:], id.Seq)
	return append(k, seq[:]...)
}

// TupleKVKey is the local store key for a tuple version.
func TupleKVKey(id tuple.ID) []byte { return tupleKVKey(id, id.Hash()) }

// KVKey is the local store key for the tuple version w writes.
func (w TupleWrite) KVKey() []byte { return tupleKVKey(w.ID, w.Hash) }

func tupleKVKey(id tuple.ID, h keyspace.Key) []byte {
	k := make([]byte, 0, 2+keyspace.Size+len(id.Key)+1+8)
	k = append(k, 't', '/')
	k = append(k, h[:]...)
	k = append(k, id.Key...)
	k = append(k, 0)
	return binary.BigEndian.AppendUint64(k, uint64(id.Epoch))
}

// TupleScanBounds returns the local-store key range [lo, hi) containing all
// tuple versions whose hash lies in the clockwise interval [min, max). For
// wrapped intervals (min > max) two scans are required; wrapped reports
// that, and the caller scans [lo, end-of-tuples) and [start-of-tuples, hi).
func TupleScanBounds(min, max keyspace.Key) (lo, hi []byte, wrapped bool) {
	lo = append([]byte("t/"), min[:]...)
	hi = append([]byte("t/"), max[:]...)
	if min == max {
		// Full ring: all tuples.
		return []byte("t/"), []byte("t0"), false // '0' = '/'+1
	}
	return lo, hi, max.Less(min)
}

// TupleKeyHash extracts the tuple hash embedded in a local tuple store key.
func TupleKeyHash(kvKey []byte) (keyspace.Key, bool) {
	var h keyspace.Key
	if len(kvKey) < 2+keyspace.Size || kvKey[0] != 't' || kvKey[1] != '/' {
		return h, false
	}
	copy(h[:], kvKey[2:])
	return h, true
}

// TupleIDFromKVKey reconstructs the tuple ID from a local tuple store key.
func TupleIDFromKVKey(kvKey []byte) (tuple.ID, bool) {
	if len(kvKey) < 2 || kvKey[0] != 't' || kvKey[1] != '/' {
		return tuple.ID{}, false
	}
	// hash, key encoding, 0x00 separator, 8-byte epoch. The key encoding
	// never ends ambiguously: the epoch is the final 8 bytes and the
	// separator precedes it.
	r := codec.NewReader(kvKey[2:])
	r.Fixed(keyspace.Size)
	keyEnc, sep, e := r.Fixed(len(kvKey)-2-keyspace.Size-9), r.U8(), r.U64()
	if r.Err() != nil || sep != 0 {
		return tuple.ID{}, false
	}
	return tuple.ID{Key: string(keyEnc), Epoch: tuple.Epoch(e)}, true
}
