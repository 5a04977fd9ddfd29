package tuple

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"orchestra/internal/codec"
)

// Reading column values. In a stored record (AppendRow) a value is a zig-zag
// varint (Int64), the eight big-endian bytes of an IEEE 754 double (Float64),
// or a uvarint length and that many bytes (String), each read by one function
// below on codec.Reader, so a length that wraps, a varint that runs off the
// end or a float cut short fails the reader instead of a slice expression.
// A batch (AppendBatchCols) encodes a column for its type, and the codec's
// column readers read it whole: Reader.Packed for ints and string lengths,
// Reader.Words for floats. Two walks lay the values out: a record, one value
// per column (DecodeRowCols), and a batch, a column at a time
// (BatchBody.walk). Each takes where the values go as a parameter — a
// record's onto a batch or nowhere, a batch's onto a batch, into boxed rows
// or nowhere (dest) — so a check and a decode read the same bytes by the same
// rules.

func readInt(r *codec.Reader) int64 { return r.Varint() }

func readFloat(r *codec.Reader) float64 { return math.Float64frombits(r.U64()) }

func readString(r *codec.Reader) []byte { return r.Bytes() }

// DecodeRowCols decodes one AppendRow-encoded row, all of data, straight
// onto the batch's column vectors (the batch must be typed by the same
// schema), or only checks it when b is nil. This is the scan path's
// allocation-free decode: no Row or Value boxing is built, and string
// values ALIAS data instead of copying — the caller must guarantee that
// data is never mutated and outlives the batch (stored kvstore values
// satisfy this: a record is copied once on write and again when its B-tree
// leaf is packed, and neither copy is ever rewritten). An aliased string
// keeps its whole buffer alive, so a holder that outlives the query copies
// it (Batch.Own). A refused row leaves b as it was.
func DecodeRowCols(data []byte, s *Schema, b *Batch) error {
	var cols []ColVec // nil: nowhere
	if b != nil {
		if len(b.Cols) != len(s.Columns) {
			return fmt.Errorf("tuple: batch arity %d != schema arity %d", len(b.Cols), len(s.Columns))
		}
		cols = b.Cols
	}
	r := codec.NewReader(data)
	for i := range s.Columns {
		switch t := s.Columns[i].Type; t {
		case Int64:
			x := readInt(&r)
			if cols != nil {
				cols[i].I64 = append(cols[i].I64, x)
			}
		case Float64:
			x := readFloat(&r)
			if cols != nil {
				cols[i].F64 = append(cols[i].F64, x)
			}
		case String:
			x := readString(&r)
			if cols != nil {
				cols[i].Str = append(cols[i].Str, alias(x))
			}
		default:
			r.Fail(fmt.Errorf("unknown type %v of column %s", t, s.Columns[i].Name))
		}
	}
	err := r.Done("tuple: row")
	switch {
	case b == nil:
	case err != nil:
		b.Truncate(b.N) // back out the values appended before the refusal
	default:
		b.N++
	}
	return err
}

// alias is p as a string that shares p's bytes.
func alias(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	return unsafe.String(&p[0], len(p))
}

// boxColumn sets column c of rows to col's values — rows[i][c] is any(col[i])
// — without copying a value into a box of its own: each interface's type word
// is T's and its data word points at col[i]. This is how a client batch costs
// allocations per column rather than per cell: DecodeBatchAny fills one
// typed slab per column and boxes each cell from it. It is sound because Go
// never writes through an interface's data word (a non-pointer value in an
// interface is immutable), and the caller owes the rest: col is fresh, and
// nothing writes it once it is boxed. A kept cell keeps its whole column
// slab alive, as an aliased string keeps its buffer (alias). T is one of the
// column types, none of them pointer-shaped: for those an interface's data
// word is the address of the value, never the value itself. It is the
// package's one construction of an interface header; TestBoxedCellsAreTheirValues
// pins it against DecodeInto's values across a GC.
func boxColumn[T int64 | float64 | string](rows [][]any, c int, col []T) {
	x := any(*new(T)) // T's type word; a zero value's box is static, no allocation
	e := (*struct{ typ, data unsafe.Pointer })(unsafe.Pointer(&x))
	for i, row := range rows[:len(col)] {
		e.data = unsafe.Pointer(&col[i])
		row[c] = x
	}
}

// dest is where a batch walk puts the values it reads: onto b's typed
// vectors, into one fresh slab per column for boxed rows (box), or nowhere —
// then the walk only checks that the bytes hold the values they claim to,
// collecting the column types into types.
type dest struct {
	b     *Batch
	box   bool
	slabs []colSlab // box: one per column
	types []Type
}

// colSlab is one column decoded for boxed rows: the slice of its type.
type colSlab struct {
	i []int64
	f []float64
	s []string
}

// walk reads the batch's columns — each a type tag, then its values, read
// whole by the codec's column readers — into d. A batch with no rows reads
// none.
func (bb *BatchBody) walk(d *dest) error {
	if bb.rows == 0 {
		return nil
	}
	r := codec.NewReader(bb.body)
	n, budget := bb.rows, maxBatchBody // budget: the string bytes still allowed
	for c := 0; c < bb.arity && r.Err() == nil; c++ {
		t := Type(r.U8())
		if d.tag(&r, c, t); r.Err() != nil {
			break
		}
		switch t {
		case Int64:
			if p := r.Packed(n); r.Err() == nil {
				d.ints(c, p)
			}
		case Float64:
			if w := r.Words(n); r.Err() == nil {
				d.floats(c, w)
			}
		case String:
			d.strings(&r, c, n, bb.flated, &budget)
		}
	}
	return r.Done("tuple: batch")
}

// tag takes column c's type: b's vector adopts it (b untyped and empty) or
// must already have it; a check collects it.
func (d *dest) tag(r *codec.Reader, c int, t Type) {
	switch {
	case !t.IsValidType():
		r.Fail(fmt.Errorf("bad column type %d", t))
	case d.b != nil:
		v := &d.b.Cols[c]
		if v.T == 0 && d.b.N == 0 {
			v.T = t
		} else if v.T != t {
			r.Fail(fmt.Errorf("column %d type %v, accumulator %v", c, t, v.T))
		}
	case !d.box:
		d.types = append(d.types, t)
	}
}

// ints and floats decode column c, already bounded by its reader, into d:
// the choice of destination made once per column, and nothing to do for a
// check.
func (d *dest) ints(c int, p codec.Packed) {
	switch {
	case d.b != nil:
		v := &d.b.Cols[c]
		at := len(v.I64)
		v.I64 = slices.Grow(v.I64, p.Len())[:at+p.Len()]
		p.Decode(v.I64[at:])
	case d.box:
		col := make([]int64, p.Len())
		p.Decode(col)
		d.slabs[c] = colSlab{i: col}
	}
}

func (d *dest) floats(c int, w codec.Words) {
	switch {
	case d.b != nil:
		v := &d.b.Cols[c]
		at := len(v.F64)
		v.F64 = slices.Grow(v.F64, w.Len())[:at+w.Len()]
		w.Float64s(v.F64[at:])
	case d.box:
		col := make([]float64, w.Len())
		w.Float64s(col)
		d.slabs[c] = colSlab{f: col}
	}
}

// strings reads string column c of n values: its lengths, its byte count
// (charged to budget) and its bytes, each bounded before the next is read.
// The lengths must then sum to the count, and flated bytes must inflate to
// exactly it, before anything is sized by n. Kept values are substrings of
// one fresh string holding the column's bytes, so a column costs one
// allocation for its bytes whatever its n; a check inflates into a pooled
// buffer and keeps nothing.
func (d *dest) strings(r *codec.Reader, c, n int, flated bool, budget *int) {
	lens := r.Packed(n)
	size := r.Uvarint()
	if r.Err() == nil && size > uint64(*budget) {
		r.Fail(fmt.Errorf("column %d: %d string bytes, past the batch's %d", c, size, maxBatchBody))
	}
	if r.Err() != nil {
		return
	}
	*budget -= int(size)
	var src []byte
	switch {
	case size == 0:
	case !flated:
		src = r.Fixed(int(size))
	default:
		if src = r.Bytes(); r.Err() == nil && size > maxInflateRatio*uint64(len(src)) {
			r.Fail(fmt.Errorf("column %d: %d string bytes from a %dB flate stream", c, size, len(src)))
		}
	}
	if r.Err() == nil && !lengthsSum(lens, size) {
		r.Fail(fmt.Errorf("column %d: string lengths do not sum to its %d bytes", c, size))
	}
	if r.Err() != nil {
		return
	}
	keep := d.b != nil || d.box
	var col string
	switch {
	case size == 0:
	case !flated:
		if keep {
			col = string(src)
		}
	case !keep:
		buf := bytesPool.Get().(*[]byte)
		*buf = slices.Grow((*buf)[:0], int(size))[:size]
		err := inflate(*buf, src)
		putBytes(buf)
		if err != nil {
			r.Fail(fmt.Errorf("column %d: %w", c, err))
		}
	default:
		buf := make([]byte, size)
		if err := inflate(buf, src); err != nil {
			r.Fail(fmt.Errorf("column %d: %w", c, err))
			return
		}
		col = alias(buf) // nothing writes buf again
	}
	switch {
	case d.b != nil:
		v := &d.b.Cols[c]
		v.Str = appendSplit(slices.Grow(v.Str, n), col, lens)
	case d.box:
		d.slabs[c] = colSlab{s: appendSplit(make([]string, 0, n), col, lens)}
	}
}

// lengthChunk is how many string lengths a walk decodes at a time: the
// lengths of a column are never held whole, so nothing is sized by its n
// before they are known to be good.
const lengthChunk = 256

// lengthsSum reports whether the lengths, none below zero, sum to size.
func lengthsSum(lens codec.Packed, size uint64) bool {
	n, base := lens.Len(), lens.Base()
	switch {
	case base < 0 || uint64(base) > size/uint64(n):
		return false
	case lens.Width() == 0:
		return uint64(base)*uint64(n) == size
	}
	var chunk [lengthChunk]int64
	sum := uint64(0)
	for i := 0; i < n; i += len(chunk) {
		part := chunk[:min(len(chunk), n-i)]
		lens.Slice(i, i+len(part)).Decode(part)
		for _, l := range part {
			if uint64(l) > size { // a negative l too
				return false
			}
			sum += uint64(l) // no wrap: n·size < 2⁶⁴ (maxBatchRows, maxBatchBody)
		}
	}
	return sum == size
}

// appendSplit appends col cut at the lengths lens holds, which sum to
// len(col) (lengthsSum).
func appendSplit(dst []string, col string, lens codec.Packed) []string {
	n := lens.Len()
	if lens.Width() == 0 {
		l := int(lens.Base())
		for i := range n {
			dst = append(dst, col[i*l:(i+1)*l])
		}
		return dst
	}
	var chunk [lengthChunk]int64
	off := 0
	for i := 0; i < n; i += len(chunk) {
		part := chunk[:min(len(chunk), n-i)]
		lens.Slice(i, i+len(part)).Decode(part)
		for _, l := range part {
			dst = append(dst, col[off:off+int(l)])
			off += int(l)
		}
	}
	return dst
}

func putBytes(buf *[]byte) {
	if cap(*buf) <= maxPooledScratch {
		bytesPool.Put(buf)
	}
}
