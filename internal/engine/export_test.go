package engine

import (
	"orchestra/internal/codec"
)

// What follows is used only by this package's tests.

// DecodeExpr parses a serialized expression.
func DecodeExpr(data []byte) (Expr, error) {
	r := codec.NewReader(data)
	e := decodeExpr(&r)
	if err := r.Done("engine: expression"); err != nil {
		return nil, err
	}
	return e, nil
}
