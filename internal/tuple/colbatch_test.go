package tuple

import (
	"math/rand"
	"testing"
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
		n, err := DecodeRowCols(enc, s, b)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
	}
	got := b.Rows()
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], rows[i])
		}
	}
	// Truncated input backs out cleanly with Truncate.
	enc, err := AppendRow(nil, s, rows[0])
	if err != nil {
		t.Fatal(err)
	}
	before := b.N
	if _, err := DecodeRowCols(enc[:len(enc)-1], s, b); err == nil {
		t.Fatal("truncated row decoded without error")
	}
	b.Truncate(before)
	if b.N != before || b.Cols[0].Len() != before {
		t.Fatalf("Truncate did not restore the batch: N=%d len=%d want %d", b.N, b.Cols[0].Len(), before)
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
