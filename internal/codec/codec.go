// Package codec holds the one reader of bytes this process did not write
// itself: payloads a peer sent and records read back from the store. Nodes of
// a CDSS do not share an administrator, so every count and every length in
// such bytes is a claim. A Reader believes a claim only as far as the bytes
// left can back it — before any allocation is sized by it, and before any
// slice expression uses it — and bounds how deep a recursive structure may
// nest. A decoder built from its methods cannot be made to panic, to reserve
// memory its payload does not back, or to overflow the stack; a decoder built
// beside it can, which is why no package under internal/ but wal may call
// encoding/binary's read side at all (TestNoHandRolledDecoders).
//
// Encoders stay where the formats are declared and use encoding/binary's
// Append functions plus AppendBytes and AppendPacked; this package only has to
// agree with them on the primitives: big-endian fixed-width integers,
// encoding/binary varints, a uvarint length before a byte field, and two
// columns of n values — packed ints and fixed 8-byte words (columns.go).
//
// Out of scope: wal's CRC-framed files, which only this process wrote, with
// their own bounded reader and fuzz targets.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// MaxDepth bounds how deep a decoded structure may nest (Enter). The SQL
// front end folds a WHERE into a left-deep chain, one level per conjunct, so
// the bound has to clear any predicate a person writes; a few hundred bytes
// of stack per level keeps the recursions it limits — decode, compile, print
// — within a megabyte of goroutine stack, where a hostile 4 MiB chain of
// one-byte NOT tags would otherwise end the process. Encoders refuse at the
// same bound (engine.Plan.Finalize), so a plan either runs everywhere or
// nowhere.
const MaxDepth = 1024

var (
	// ErrTruncated reports a read past the end of the bytes, or a malformed
	// varint.
	ErrTruncated = errors.New("codec: truncated")
	// ErrOversize reports a length or count the bytes left cannot back.
	ErrOversize = errors.New("codec: length or count exceeds the bytes left")
	// ErrDepth reports nesting beyond MaxDepth.
	ErrDepth = errors.New("codec: nested too deep")
	// ErrTrailing reports bytes left over after a complete decode.
	ErrTrailing = errors.New("codec: trailing bytes")
	// ErrWidth reports a packed column whose values claim more than 64 bits.
	ErrWidth = errors.New("codec: packed width past 64 bits")
)

// Reader is a cursor over untrusted bytes with a sticky error: after the
// first failure every read returns zero and Err reports that failure, so a
// decoder reads its fields in order and checks once. It is a plain value —
// declare it on the stack and pass its address down a recursive decode.
// Slices it returns alias the input.
type Reader struct {
	data  []byte
	off   int
	depth int
	err   error
}

// NewReader returns a reader positioned at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Fail records err, unless an earlier failure is already recorded. Decoders
// use it for what only they can judge (an unknown tag, an index out of range)
// so that such a refusal is sticky like the reader's own.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Pos returns how many bytes have been read: the offset in the input of the
// next read.
func (r *Reader) Pos() int { return r.off }

// Since returns the bytes read since Pos returned start.
func (r *Reader) Since(start int) []byte { return r.data[start:r.off:r.off] }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Error is a refused decode: what was being decoded, and the reader's reason.
type Error struct {
	What string
	Err  error
}

func (e *Error) Error() string { return e.What + ": " + e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Done ends a decode of what: nil when every byte was read and no read
// failed, else an *Error naming what and wrapping the first failure
// (ErrTrailing when bytes are left over). The message is built only if
// someone prints it, so refusing a hostile payload costs one small allocation.
func (r *Reader) Done(what string) error {
	if r.err == nil && r.off != len(r.data) {
		r.err = ErrTrailing
	}
	if r.err == nil {
		return nil
	}
	return &Error{What: what, Err: r.err}
}

// take returns the next n bytes, or fails with short. It holds the package's
// one slice expression behind its one length check, made as uint64: a negative
// int and a wire 2⁶³ are both just too large.
func (r *Reader) take(n uint64, short error) []byte {
	if r.err != nil || n > uint64(len(r.data)-r.off) {
		r.Fail(short)
		return nil
	}
	end := r.off + int(n)
	b := r.data[r.off:end:end]
	r.off = end
	return b
}

// Fixed returns the next n bytes.
func (r *Reader) Fixed(n int) []byte { return r.take(uint64(n), ErrTruncated) }

// Rest returns every unread byte, for a tail another decoder owns.
func (r *Reader) Rest() []byte { return r.Fixed(len(r.data) - r.off) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Fixed(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Fixed(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Fixed(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Fixed(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint. Like Bytes it decodes the
// unsigned varint under it in place (binary.Uvarint inlines; a call to
// Uvarint would not): these are the per-value reads of every row.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return int64(u>>1) ^ -int64(u&1)
}

// Bound turns a claimed element count (or, with minSize 1, a byte length)
// into an int, refusing one that the bytes left could not hold at minSize
// bytes an element. It is the only place a wire integer becomes a size, and
// it compares as uint64: 2⁶³ does not wrap negative and pass.
func (r *Reader) Bound(n uint64, minSize int) int {
	if r.err == nil && n > uint64(len(r.data)-r.off)/uint64(minSize) {
		r.err = ErrOversize
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Count reads a uvarint element count for elements of at least minSize
// encoded bytes each. Call it before sizing anything by the count.
func (r *Reader) Count(minSize int) int { return r.Bound(r.Uvarint(), minSize) }

// Bytes reads a uvarint length and that many bytes.
func (r *Reader) Bytes() []byte {
	if r.err != nil {
		return nil
	}
	l, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return nil
	}
	r.off += n
	return r.take(l, ErrOversize)
}

// Until returns the bytes before the next delim and reads past the delim
// too; it fails when no delim is left.
func (r *Reader) Until(delim byte) []byte {
	if r.err != nil {
		return nil
	}
	n := bytes.IndexByte(r.data[r.off:], delim)
	if n < 0 {
		r.err = ErrTruncated
		return nil
	}
	b := r.take(uint64(n), ErrTruncated)
	r.off++ // the delim
	return b
}

// Str is Bytes copied into a string. (Not named String: a reader that
// advanced whenever it was printed would be a trap.)
func (r *Reader) Str() string { return string(r.Bytes()) }

// Enter descends one level into a recursive structure and reports whether
// the decoder may go on; past MaxDepth it fails the reader. Pair with Leave.
func (r *Reader) Enter() bool {
	r.depth++
	if r.depth > MaxDepth {
		r.Fail(ErrDepth)
	}
	return r.err == nil
}

// Leave ascends one level.
func (r *Reader) Leave() { r.depth-- }

// AppendBytes appends the field Bytes reads: a uvarint length, then b.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}
