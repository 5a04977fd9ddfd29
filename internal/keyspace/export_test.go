package keyspace

import (
	"encoding/binary"
)

// What follows is used only by this package's tests.

// FromUint64 returns the key with value v (in the low 64 bits).
func FromUint64(v uint64) Key {
	var k Key
	binary.BigEndian.PutUint64(k[Size-8:], v)
	return k
}
