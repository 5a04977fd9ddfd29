package cluster

import (
	"bytes"

	"orchestra/internal/tuple"
)

// KeyPred is a sargable predicate over the order-preserving key encoding:
// it selects tuple IDs with Lo <= key < Hi (nil bounds are open). It is the
// filter f(k̄) of Algorithm 1, shipped to index nodes.
type KeyPred struct {
	Lo, Hi []byte
}

// Match reports whether an encoded key satisfies the predicate.
func (p KeyPred) Match(key string) bool {
	if p.Lo != nil && bytes.Compare([]byte(key), p.Lo) < 0 {
		return false
	}
	if p.Hi != nil && bytes.Compare([]byte(key), p.Hi) >= 0 {
		return false
	}
	return true
}

// EqPred selects exactly the tuples whose full key equals the given values.
func EqPred(s *tuple.Schema, keyVals ...tuple.Value) KeyPred {
	var enc []byte
	for _, v := range keyVals {
		enc = tuple.AppendKeyValue(enc, v)
	}
	hi := append(append([]byte(nil), enc...), 0)
	return KeyPred{Lo: enc, Hi: hi}
}

// AllPred selects every tuple.
func AllPred() KeyPred { return KeyPred{} }
