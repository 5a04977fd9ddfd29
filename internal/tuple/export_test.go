package tuple

import (
	"orchestra/internal/codec"
)

// What follows is used only by this package's tests.

// DecodeID parses an encoded ID.
func DecodeID(data []byte) (ID, error) {
	r := codec.NewReader(data)
	id := ID{Epoch: Epoch(r.U64()), Key: string(r.Rest())}
	if err := r.Done("tuple: ID"); err != nil {
		return ID{}, err
	}
	return id, nil
}
