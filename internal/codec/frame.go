package codec

import (
	"encoding/binary"
	"io"
)

// frameChunk bounds the first allocation for a frame's body. A length
// header is a claim like any other: past this, the body grows only as its
// bytes arrive. It sits above the servers' 256 KiB batch cut, so a served
// batch frame is still read into one allocation.
const frameChunk = 512 << 10

// ReadFrame reads one length-prefixed frame from r, the layout both the
// client/server wire and the cluster's TCP carrier use: a four-byte
// big-endian length n, then n bytes of body. check sees n before any of
// the body is read and refuses the frame by returning an error, which
// ReadFrame returns as it is. The body buffer starts at min(n, frameChunk)
// bytes and doubles as the bytes arrive, so a peer that sends a header
// claiming 60 MiB and then stops costs the reader frameChunk, not 60 MiB.
func ReadFrame(r io.Reader, check func(n uint32) error) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if err := check(n); err != nil {
		return nil, err
	}
	body := make([]byte, min(int(n), frameChunk))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	for read := len(body); read < int(n); read = len(body) {
		grown := make([]byte, min(int(n), 2*read))
		copy(grown, body)
		body = grown
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}
