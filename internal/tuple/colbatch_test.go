package tuple

import (
	"math/rand"
	"testing"
	"unsafe"
)

func colTestSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("r", []Column{
		{Name: "k", Type: String},
		{Name: "g", Type: Int64},
		{Name: "f", Type: Float64},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randRows(rng *rand.Rand, s *Schema, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		row := make(Row, len(s.Columns))
		for c, col := range s.Columns {
			switch col.Type {
			case Int64:
				row[c] = I(rng.Int63n(1000) - 500)
			case Float64:
				row[c] = F(rng.Float64() * 100)
			case String:
				row[c] = S(string(rune('a' + rng.Intn(26))))
			}
		}
		rows[i] = row
	}
	return rows
}

func TestBatchRoundTripRows(t *testing.T) {
	s := colTestSchema(t)
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, s, 100)
	b := NewBatch(s)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	got := b.Rows()
	if len(got) != len(rows) {
		t.Fatalf("Rows() returned %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], rows[i])
		}
	}
}

func TestBatchCompactWords(t *testing.T) {
	s := colTestSchema(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(150)
		rows := randRows(rng, s, n)
		b := NewBatch(s)
		for _, r := range rows {
			if err := b.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		sel := make([]uint64, (n+63)/64)
		var want []Row
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				sel[i>>6] |= 1 << (uint(i) & 63)
				want = append(want, rows[i])
			}
		}
		kept := b.CompactWords(sel)
		if kept != len(want) || b.N != len(want) {
			t.Fatalf("kept %d (N=%d), want %d", kept, b.N, len(want))
		}
		got := b.Rows()
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d row %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestBatchProjectAndTruncate(t *testing.T) {
	s := colTestSchema(t)
	rows := randRows(rand.New(rand.NewSource(5)), s, 10)
	b := NewBatch(s)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	b.Project([]int{2, 0})
	got := b.Rows()
	for i := range rows {
		want := Row{rows[i][2], rows[i][0]}
		if !got[i].Equal(want) {
			t.Fatalf("projected row %d: got %v want %v", i, got[i], want)
		}
	}
	b.Truncate(4)
	if b.N != 4 || len(b.Rows()) != 4 {
		t.Fatalf("Truncate(4) left N=%d", b.N)
	}
}

func TestDecodeRowCols(t *testing.T) {
	s := colTestSchema(t)
	rows := randRows(rand.New(rand.NewSource(7)), s, 64)
	b := NewBatch(s)
	for _, r := range rows {
		enc, err := AppendRow(nil, s, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRowCols(enc, s, b); err != nil {
			t.Fatal(err)
		}
		if err := DecodeRowCols(enc, s, nil); err != nil {
			t.Fatalf("a row decoded onto a batch fails the check: %v", err)
		}
	}
	got := b.Rows()
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], rows[i])
		}
	}
	// A truncated row, or one with bytes past its last column, is refused
	// and leaves the batch as it was.
	enc, err := AppendRow(nil, s, rows[0])
	if err != nil {
		t.Fatal(err)
	}
	before := b.N
	for _, bad := range [][]byte{enc[:len(enc)-1], append(enc, 0)} {
		if err := DecodeRowCols(bad, s, b); err == nil {
			t.Fatalf("row %x decoded without error", bad)
		}
		if err := DecodeRowCols(bad, s, nil); err == nil {
			t.Fatalf("row %x passed the check", bad)
		}
		for c := range b.Cols {
			if b.N != before || b.Cols[c].Len() != before {
				t.Fatalf("a refused row left N=%d, column %d of length %d; want %d", b.N, c, b.Cols[c].Len(), before)
			}
		}
	}
}

func TestBatchGrowKeepsContents(t *testing.T) {
	s := colTestSchema(t)
	b := NewBatch(s)
	rows := randRows(rand.New(rand.NewSource(8)), s, 5)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	b.Grow(1024)
	for c := range b.Cols {
		if b.Cols[c].Len() != 5 {
			t.Fatalf("Grow changed column %d length to %d", c, b.Cols[c].Len())
		}
	}
	got := b.Rows()
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d after Grow: got %v want %v", i, got[i], rows[i])
		}
	}
}

// TestAppendBatchIntoMismatchLeavesIntact pins the pre-copy validation:
// a type mismatch in any column must leave the destination untouched
// (accumulators degrade to a row path and keep appending afterwards).
func TestAppendBatchIntoMismatchLeavesIntact(t *testing.T) {
	mk := func(types []Type, rows ...Row) *Batch {
		b := &Batch{}
		b.ResetTypes(types)
		for _, r := range rows {
			if err := b.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	acc := mk([]Type{Int64, Int64}, Row{I(1), I(2)})
	// First column matches, second does not: nothing may be copied.
	bad := mk([]Type{Int64, Float64}, Row{I(3), F(4.5)})
	if err := acc.AppendBatchInto(bad); err == nil {
		t.Fatal("mismatched append succeeded")
	}
	if acc.N != 1 || len(acc.Cols[0].I64) != 1 || len(acc.Cols[1].I64) != 1 {
		t.Fatalf("accumulator corrupted after failed append: N=%d lens=%d/%d",
			acc.N, len(acc.Cols[0].I64), len(acc.Cols[1].I64))
	}
	// A subsequent good append and full materialization must work.
	good := mk([]Type{Int64, Int64}, Row{I(5), I(6)})
	if err := acc.AppendBatchInto(good); err != nil {
		t.Fatal(err)
	}
	rows := acc.Rows()
	if len(rows) != 2 || rows[1][0].I64 != 5 || rows[1][1].I64 != 6 {
		t.Fatalf("rows after recovery: %v", rows)
	}
	// Arity mismatch must also leave the accumulator intact.
	if err := acc.AppendBatchInto(mk([]Type{Int64}, Row{I(9)})); err == nil {
		t.Fatal("arity-mismatched append succeeded")
	}
	if acc.N != 2 {
		t.Fatalf("N=%d after arity mismatch", acc.N)
	}
}

// TestOwnMovesStringsIntoOneSlab: after Own the batch's strings hold the
// same values, none lies in the buffer they were decoded from, a vector two
// columns share is copied once, and one exact-size slab holds them all.
func TestOwnMovesStringsIntoOneSlab(t *testing.T) {
	s := MustSchema("o", []Column{{Name: "k", Type: String}, {Name: "n", Type: Int64}, {Name: "v", Type: String}}, "k")
	rows := []Row{{S("alpha"), I(1), S("")}, {S("b"), I(2), S("gamma")}, {S(""), I(3), S("delta")}}
	b := NewBatch(s)
	var bufs [][]byte
	for _, row := range rows {
		enc, err := AppendRow(nil, s, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRowCols(enc, s, b); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, enc)
	}
	b.Project([]int{0, 1, 2, 0}) // column 3 shares column 0's vector
	b.Own()
	got := b.Rows()
	lo, hi, size := ^uintptr(0), uintptr(0), uintptr(0)
	for i, row := range rows {
		if want := append(row.Clone(), row[0]); !got[i].Equal(want) {
			t.Fatalf("row %d: %v after Own, want %v", i, got[i], want)
		}
	}
	for c, col := range b.Cols[:3] {
		for _, x := range col.Str {
			if x == "" {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(x)))
			for _, buf := range bufs {
				if at := uintptr(unsafe.Pointer(&buf[0])); p >= at && p < at+uintptr(len(buf)) {
					t.Fatalf("column %d string %q still aliases its record", c, x)
				}
			}
			lo, hi, size = min(lo, p), max(hi, p+uintptr(len(x))), size+uintptr(len(x))
		}
	}
	if hi-lo != size {
		t.Fatalf("%d bytes of strings span %d bytes, want one exact-size slab", size, hi-lo)
	}
}
