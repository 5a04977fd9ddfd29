package tuple

import (
	"fmt"
	"slices"
)

// Column-major in-memory batches: the unit the engine's scan pipeline
// operates on (MonetDB/X100-style vectorized execution). A Batch holds one
// typed vector per column, so predicates run as tight loops over []int64 /
// []float64 / []string instead of per-row Value dispatch, and the wire batch
// codec (batch.go) can serialize straight from the vectors.
//
// Batches are not safe for concurrent mutation; the engine hands each batch
// through its operator chain synchronously.

// ColVec is one column of a batch: a typed vector. Only the slice matching
// T is populated.
type ColVec struct {
	T   Type
	I64 []int64
	F64 []float64
	Str []string
}

// Len returns the number of values in the vector.
func (v *ColVec) Len() int {
	switch v.T {
	case Int64:
		return len(v.I64)
	case Float64:
		return len(v.F64)
	case String:
		return len(v.Str)
	}
	return 0
}

// Value boxes the i-th element.
func (v *ColVec) Value(i int) Value {
	switch v.T {
	case Int64:
		return I(v.I64[i])
	case Float64:
		return F(v.F64[i])
	case String:
		return S(v.Str[i])
	}
	return Value{}
}

// append adds one boxed value; the caller has checked it matches the
// vector's type.
func (v *ColVec) append(val Value) {
	switch v.T {
	case Int64:
		v.I64 = append(v.I64, val.I64)
	case Float64:
		v.F64 = append(v.F64, val.F64)
	case String:
		v.Str = append(v.Str, val.Str)
	}
}

// reset re-types the vector and truncates it, keeping capacity.
func (v *ColVec) reset(t Type) {
	v.T = t
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
}

// Batch is a column-major block of rows.
type Batch struct {
	N    int
	Cols []ColVec
}

// NewBatch returns an empty batch typed by the schema's columns.
func NewBatch(s *Schema) *Batch {
	b := &Batch{}
	b.ResetTypes(columnTypes(s))
	return b
}

func columnTypes(s *Schema) []Type {
	ts := make([]Type, len(s.Columns))
	for i, c := range s.Columns {
		ts[i] = c.Type
	}
	return ts
}

// ResetTypes empties the batch and re-types its columns, reusing vector
// capacity where the arity allows.
func (b *Batch) ResetTypes(types []Type) {
	if cap(b.Cols) < len(types) {
		b.Cols = make([]ColVec, len(types))
	} else {
		b.Cols = b.Cols[:len(types)]
	}
	for i := range b.Cols {
		b.Cols[i].reset(types[i])
	}
	b.N = 0
}

// AppendRow appends one row. An untyped empty batch (no columns, N == 0)
// adopts the row's value types — the first row fixes the column types, as
// in AppendBatchInto; afterwards arity and types must match positionally.
// All checks run before any value is appended, so an error leaves b intact.
func (b *Batch) AppendRow(row Row) error {
	if len(b.Cols) == 0 && b.N == 0 {
		types := make([]Type, len(row))
		for i, v := range row {
			if !v.T.IsValidType() {
				return fmt.Errorf("tuple: column %d has invalid type", i)
			}
			types[i] = v.T
		}
		b.ResetTypes(types)
	}
	if len(row) != len(b.Cols) {
		return fmt.Errorf("tuple: batch arity %d, row arity %d", len(b.Cols), len(row))
	}
	for i := range row {
		if row[i].T != b.Cols[i].T {
			return fmt.Errorf("tuple: column %d type %v, got %v", i, b.Cols[i].T, row[i].T)
		}
	}
	for i := range row {
		b.Cols[i].append(row[i])
	}
	b.N++
	return nil
}

// Rows materializes the whole batch as row slices carved from a single
// backing slab: two allocations total instead of one per row. The rows do
// not alias the batch's vectors (string contents are shared, which is safe
// — strings are immutable).
func (b *Batch) Rows() []Row {
	if b.N == 0 {
		return nil
	}
	arity := len(b.Cols)
	backing := make([]Value, b.N*arity)
	rows := make([]Row, b.N)
	for c := range b.Cols {
		v := &b.Cols[c]
		switch v.T {
		case Int64:
			for i, x := range v.I64 {
				backing[i*arity+c] = I(x)
			}
		case Float64:
			for i, x := range v.F64 {
				backing[i*arity+c] = F(x)
			}
		case String:
			for i, x := range v.Str {
				backing[i*arity+c] = S(x)
			}
		}
	}
	for i := range rows {
		rows[i] = Row(backing[i*arity : (i+1)*arity])
	}
	return rows
}

// Types returns the batch's column types (a fresh slice).
func (b *Batch) Types() []Type {
	ts := make([]Type, len(b.Cols))
	for i := range b.Cols {
		ts[i] = b.Cols[i].T
	}
	return ts
}

// Slice points into at rows [lo, hi) of b without copying values: into's
// column headers are rewritten to sub-slices of b's vectors. into must not
// outlive mutations of b; it is a borrowed view for encoding/iteration.
func (b *Batch) Slice(lo, hi int, into *Batch) {
	if cap(into.Cols) < len(b.Cols) {
		into.Cols = make([]ColVec, len(b.Cols))
	} else {
		into.Cols = into.Cols[:len(b.Cols)]
	}
	for c := range b.Cols {
		v := &b.Cols[c]
		w := &into.Cols[c]
		w.T = v.T
		w.I64, w.F64, w.Str = nil, nil, nil
		switch v.T {
		case Int64:
			w.I64 = v.I64[lo:hi]
		case Float64:
			w.F64 = v.F64[lo:hi]
		case String:
			w.Str = v.Str[lo:hi]
		}
	}
	into.N = hi - lo
}

// AppendBatchInto appends all of src's rows onto b. Column types must match
// positionally; b typed empty (N == 0, no columns) adopts src's types. The
// append is vector-wise — one bulk copy per column, no per-row boxing. All
// shape checks run before any copy, so a mismatch error leaves b intact.
func (b *Batch) AppendBatchInto(src *Batch) error {
	if err := b.matchShape(src); err != nil {
		return err
	}
	for c := range src.Cols {
		v, w := &src.Cols[c], &b.Cols[c]
		switch v.T {
		case Int64:
			w.I64 = append(w.I64, v.I64...)
		case Float64:
			w.F64 = append(w.F64, v.F64...)
		case String:
			w.Str = append(w.Str, v.Str...)
		}
	}
	b.N += src.N
	return nil
}

// AppendRowsFrom appends the rows of src listed in sel, in that order — a
// per-column gather, so partitioning a batch by destination boxes no row.
// Shapes are reconciled as in AppendBatchInto.
func (b *Batch) AppendRowsFrom(src *Batch, sel []int) error {
	if err := b.matchShape(src); err != nil {
		return err
	}
	for c := range src.Cols {
		v, w := &src.Cols[c], &b.Cols[c]
		switch v.T {
		case Int64:
			w.I64 = slices.Grow(w.I64, len(sel))
			for _, i := range sel {
				w.I64 = append(w.I64, v.I64[i])
			}
		case Float64:
			w.F64 = slices.Grow(w.F64, len(sel))
			for _, i := range sel {
				w.F64 = append(w.F64, v.F64[i])
			}
		case String:
			w.Str = slices.Grow(w.Str, len(sel))
			for _, i := range sel {
				w.Str = append(w.Str, v.Str[i])
			}
		}
	}
	b.N += len(sel)
	return nil
}

// matchShape checks that src's rows can join b's: same arity and column
// types, an untyped empty b adopting src's.
func (b *Batch) matchShape(src *Batch) error {
	if len(b.Cols) == 0 && b.N == 0 {
		b.ResetTypes(src.Types())
	}
	if len(b.Cols) != len(src.Cols) {
		return fmt.Errorf("tuple: append batch arity %d onto %d", len(src.Cols), len(b.Cols))
	}
	for c := range src.Cols {
		if src.Cols[c].T != b.Cols[c].T {
			return fmt.Errorf("tuple: append batch column %d type %v onto %v", c, src.Cols[c].T, b.Cols[c].T)
		}
	}
	return nil
}

// Grow ensures every column vector has capacity for at least n values,
// so a decode loop filling the batch never reallocates mid-stream.
func (b *Batch) Grow(n int) {
	for c := range b.Cols {
		v := &b.Cols[c]
		switch v.T {
		case Int64:
			if cap(v.I64) < n {
				v.I64 = append(make([]int64, 0, n), v.I64...)
			}
		case Float64:
			if cap(v.F64) < n {
				v.F64 = append(make([]float64, 0, n), v.F64...)
			}
		case String:
			if cap(v.Str) < n {
				v.Str = append(make([]string, 0, n), v.Str...)
			}
		}
	}
}

// Own copies the batch's string values into one exact-size slab and points
// them at it, so that the batch pins its own bytes and nothing else: a
// scanned string aliases the stored record it was read from
// (DecodeRowCols), a decoded one its wire batch's whole string column
// (DecodeBatchInto), and a batch kept past its query would otherwise keep
// every buffer it read. A string vector that several columns share is
// copied once. Own rewrites the batch's string headers, so no one else may
// be reading the batch.
func (b *Batch) Own() {
	var vecs [][]string
	size := 0
	for c := range b.Cols {
		str := b.Cols[c].Str
		if len(str) == 0 || slices.ContainsFunc(vecs, func(v []string) bool { return &v[0] == &str[0] }) {
			continue
		}
		vecs = append(vecs, str)
		for _, x := range str {
			size += len(x)
		}
	}
	slab := make([]byte, 0, size)
	for _, str := range vecs {
		for i, x := range str {
			at := len(slab)
			slab = append(slab, x...)
			str[i] = alias(slab[at:])
		}
	}
}

// ClearStrings zeroes every string header the batch's vectors still
// reference, including capacity beyond the current length. Pool
// recyclers call it so a parked batch cannot pin the string contents of
// its previous life across GC cycles (Truncate alone only re-slices).
func (b *Batch) ClearStrings() {
	for c := range b.Cols {
		v := &b.Cols[c]
		if v.Str == nil {
			continue
		}
		s := v.Str[:cap(v.Str)]
		for i := range s {
			s[i] = ""
		}
	}
}

// Truncate drops any rows past n — used to back out a partially decoded
// row after a mid-row decode error.
func (b *Batch) Truncate(n int) {
	for c := range b.Cols {
		v := &b.Cols[c]
		switch v.T {
		case Int64:
			if len(v.I64) > n {
				v.I64 = v.I64[:n]
			}
		case Float64:
			if len(v.F64) > n {
				v.F64 = v.F64[:n]
			}
		case String:
			if len(v.Str) > n {
				v.Str = v.Str[:n]
			}
		}
	}
	if b.N > n {
		b.N = n
	}
}

// CompactWords keeps exactly the rows whose bit is set in sel (bit i of
// sel[i/64]), compacting every column vector in place, and returns the new
// row count. sel must cover at least N bits.
func (b *Batch) CompactWords(sel []uint64) int {
	kept := 0
	for c := range b.Cols {
		v := &b.Cols[c]
		w := 0
		switch v.T {
		case Int64:
			for i := 0; i < b.N; i++ {
				if sel[i>>6]&(1<<(uint(i)&63)) != 0 {
					v.I64[w] = v.I64[i]
					w++
				}
			}
			v.I64 = v.I64[:w]
		case Float64:
			for i := 0; i < b.N; i++ {
				if sel[i>>6]&(1<<(uint(i)&63)) != 0 {
					v.F64[w] = v.F64[i]
					w++
				}
			}
			v.F64 = v.F64[:w]
		case String:
			for i := 0; i < b.N; i++ {
				if sel[i>>6]&(1<<(uint(i)&63)) != 0 {
					v.Str[w] = v.Str[i]
					w++
				}
			}
			v.Str = v.Str[:w]
		}
		kept = w
	}
	b.N = kept
	return kept
}

// Project restricts the batch to the given columns, in order. Column
// headers are copied, so a column may appear more than once; the underlying
// vectors are shared.
func (b *Batch) Project(cols []int) {
	out := make([]ColVec, len(cols))
	for i, c := range cols {
		out[i] = b.Cols[c]
	}
	b.Cols = out
}
