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

	"orchestra/internal/codec"
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

// readKey reads a ring key.
func readKey(r *codec.Reader) (k keyspace.Key) {
	copy(k[:], r.Fixed(keyspace.Size))
	return k
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
	r := codec.NewReader(data)
	s := &tuple.Schema{Relation: r.Str()}
	nCols := r.Count(2) // name length, type
	s.Columns = make([]tuple.Column, 0, nCols)
	for i := 0; i < nCols && r.Err() == nil; i++ {
		s.Columns = append(s.Columns, tuple.Column{Name: r.Str(), Type: tuple.Type(r.U8())})
	}
	nKey := r.Count(1)
	if nKey > nCols {
		return nil, errors.New("vstore: key column count exceeds columns")
	}
	for i := 0; i < nKey && r.Err() == nil; i++ {
		idx := r.Uvarint()
		if idx >= uint64(nCols) {
			return nil, errors.New("vstore: key column index out of range")
		}
		s.Key = append(s.Key, int(idx))
	}
	if err := r.Done("vstore: schema record"); err != nil {
		return nil, err
	}
	return s, nil
}
