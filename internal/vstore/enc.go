// Package vstore implements the versioned relational storage scheme of
// paper §IV (Fig 3): relations are divided into versioned index pages, each
// covering a partition of the tuple-key hash space and listing the tuple IDs
// current in that range at a given epoch. Relation coordinator records map
// (relation, epoch) to the page list; catalogs track each relation's schema
// and modification epochs. Page versions are immutable and copy-on-write
// at the granularity of what changed: publishing a batch of updates gives
// each affected range a new version — a delta record on its previous one,
// or, by a fixed compaction rule, the rewritten page — and links the rest
// unchanged, like the i-node/CFS versioning schemes that inspired the
// design.
//
// This package contains the data structures, codecs, the publish decision
// (Coordinator.Apply) and the one reader of page versions
// (PageCache.Resolve); the cluster package distributes and replicates the
// records over the ring.
package vstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

// writer accumulates a binary encoding.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}
func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) key(k keyspace.Key) { w.buf = append(w.buf, k[:]...) }

// reader decodes a binary encoding with sticky errors.
type reader struct {
	data []byte
	off  int
	err  error
}

var errTruncated = errors.New("vstore: truncated record")

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// count reads an element count, refusing one that the bytes left could
// not hold at minSize bytes an element (a garbled count must not size an
// allocation).
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.data)-r.off)/uint64(minSize) {
		r.err = fmt.Errorf("vstore: implausible element count %d", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.data)-r.off) {
		r.fail()
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) keyVal() keyspace.Key {
	var k keyspace.Key
	if r.err != nil || r.off+keyspace.Size > len(r.data) {
		r.fail()
		return k
	}
	copy(k[:], r.data[r.off:])
	r.off += keyspace.Size
	return k
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("vstore: %d trailing bytes", len(r.data)-r.off)
	}
	return nil
}

// EncodeSchema serializes a schema for catalog records.
func EncodeSchema(s *tuple.Schema) []byte {
	var w writer
	w.str(s.Relation)
	w.uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		w.str(c.Name)
		w.u8(uint8(c.Type))
	}
	w.uvarint(uint64(len(s.Key)))
	for _, k := range s.Key {
		w.uvarint(uint64(k))
	}
	return w.buf
}

// DecodeSchema reverses EncodeSchema.
func DecodeSchema(data []byte) (*tuple.Schema, error) {
	r := reader{data: data}
	s := &tuple.Schema{Relation: r.str()}
	nCols := r.uvarint()
	if nCols > 1<<16 {
		return nil, fmt.Errorf("vstore: implausible column count %d", nCols)
	}
	for i := uint64(0); i < nCols; i++ {
		name := r.str()
		typ := tuple.Type(r.u8())
		s.Columns = append(s.Columns, tuple.Column{Name: name, Type: typ})
	}
	nKey := r.uvarint()
	if nKey > nCols {
		return nil, errors.New("vstore: key column count exceeds columns")
	}
	for i := uint64(0); i < nKey; i++ {
		idx := r.uvarint()
		if idx >= nCols {
			return nil, errors.New("vstore: key column index out of range")
		}
		s.Key = append(s.Key, int(idx))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}
