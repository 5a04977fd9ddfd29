package vstore

import (
	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

// What follows is used only by this package's tests.

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
