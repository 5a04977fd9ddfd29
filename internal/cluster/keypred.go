package cluster

import "orchestra/internal/tuple"

// KeyPred is a sargable predicate over the order-preserving key encoding:
// it selects tuple IDs with Lo <= key < Hi (nil bounds are open). It is the
// filter f(k̄) of Algorithm 1, shipped to index nodes.
type KeyPred struct {
	Lo, Hi []byte
}

// Match reports whether an encoded key satisfies the predicate. The bounds
// are compared as strings: a conversion inside a comparison copies nothing,
// where converting the key to a []byte would copy it on every call.
func (p KeyPred) Match(key string) bool {
	if p.Lo != nil && key < string(p.Lo) {
		return false
	}
	if p.Hi != nil && key >= string(p.Hi) {
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
