package vstore

import (
	"encoding/binary"
	"fmt"
	"testing"

	"orchestra/internal/tuple"
)

// loadSchema is the benchmark's relation load(k, grp, v): a string key, a
// small group number and an integer value.
func loadSchema(tb testing.TB) *tuple.Schema {
	s, err := tuple.NewSchema("load", []tuple.Column{
		{Name: "k", Type: tuple.String},
		{Name: "grp", Type: tuple.Int64},
		{Name: "v", Type: tuple.Int64},
	}, "k")
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// loadRecords encodes rows [0, n) of load as stored tuple records.
func loadRecords(tb testing.TB, s *tuple.Schema, n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		row := tuple.Row{tuple.S(fmt.Sprintf("k%06d", i)), tuple.I(int64(i % 17)), tuple.I(int64(n - i))}
		rec, err := EncodeTupleRecord(s, TupleRecord{ID: tuple.NewID(s, row, 3), Row: row})
		if err != nil {
			tb.Fatal(err)
		}
		recs[i] = rec
	}
	return recs
}

// hostileRecord is a load record whose string column claims the length
// 2⁶⁴−1 in a 10-byte uvarint, followed by nothing.
func hostileRecord() []byte {
	var w writer
	w.u64(3)
	w.str("")
	w.bytes(binary.AppendUvarint(nil, 1<<64-1))
	return w.buf
}

// FuzzDecodeTupleRecord feeds stored tuple records to the scan's per-record
// decode: it must refuse what it cannot read without panicking, leave the
// batch as it was when it refuses, and read back what EncodeTupleRecord
// writes from what it accepts.
func FuzzDecodeTupleRecord(f *testing.F) {
	s := loadSchema(f)
	for _, rec := range loadRecords(f, s, 3) {
		f.Add(rec)
	}
	f.Add(hostileRecord())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := tuple.NewBatch(s)
		if err := DecodeTupleRecordCols(s, data, b); err != nil {
			if b.N != 0 || b.Cols[0].Len()+b.Cols[1].Len()+b.Cols[2].Len() != 0 {
				t.Fatalf("a refused record left %d rows behind", b.N)
			}
			return
		}
		if b.N != 1 {
			t.Fatalf("an accepted record decoded to %d rows", b.N)
		}
		row := b.Rows()[0]
		again, err := EncodeTupleRecord(s, TupleRecord{Row: row})
		if err != nil {
			t.Fatal(err)
		}
		b.Truncate(0)
		if err := DecodeTupleRecordCols(s, again, b); err != nil || !b.Rows()[0].Equal(row) {
			t.Fatalf("row %v re-encodes to a record that decodes to %v, %v", row, b.Rows(), err)
		}
	})
}

// TestHostileStringLengthIsRefused: a string length of 2⁶⁴−1 is an error,
// not an index out of range.
func TestHostileStringLengthIsRefused(t *testing.T) {
	s := loadSchema(t)
	if err := DecodeTupleRecordCols(s, hostileRecord(), tuple.NewBatch(s)); err == nil {
		t.Fatal("a record claiming a 2⁶⁴−1-byte string was accepted")
	}
}

// BenchmarkDecodeTupleRecordCols measures the scan's per-row decode: 1 024
// stored records of load(k, grp, v) onto one batch.
func BenchmarkDecodeTupleRecordCols(b *testing.B) {
	s := loadSchema(b)
	recs := loadRecords(b, s, 1024)
	batch := tuple.NewBatch(s)
	batch.Grow(len(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Truncate(0)
		for _, rec := range recs {
			if err := DecodeTupleRecordCols(s, rec, batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}
