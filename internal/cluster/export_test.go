package cluster

import (
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// What follows is used only by this package's tests.

// EqPred selects exactly the tuples whose full key equals the given values.
func EqPred(s *tuple.Schema, keyVals ...tuple.Value) KeyPred {
	var enc []byte
	for _, v := range keyVals {
		enc = tuple.AppendKeyValue(enc, v)
	}
	hi := append(append([]byte(nil), enc...), 0)
	return KeyPred{Lo: enc, Hi: hi}
}

// ByID returns the node with the given identity.
func (l *Local) ByID(id ring.NodeID) *Node { return l.byID[id] }
