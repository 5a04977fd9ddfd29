package tuple

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"orchestra/internal/codec"
)

// Reading column values. A value is a zig-zag varint (Int64), the eight
// big-endian bytes of an IEEE 754 double (Float64), or a uvarint length and
// that many bytes (String), in a stored record (AppendRow) and in a batch
// column (AppendBatchCols) alike. Each type is read by one function below,
// on codec.Reader, so a length that wraps, a varint that runs off the end or
// a float cut short fails the reader instead of a slice expression; a batch's
// int column is read whole by Reader.Varints, the same grammar in one call
// per column. Two
// walks lay the values out: a record, one value per column (DecodeRowCols),
// and a batch, a column of values at a time (BatchBody.walk). Each takes where
// the values go as a parameter — a record's onto a batch or nowhere, a
// batch's onto a batch, into boxed rows or nowhere (dest) — so a check and
// a decode read the same bytes by the same rules.

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
// vectors (strings copied), into boxed rows, or nowhere — then the walk
// only checks that the bytes hold the values they claim to, collecting the
// column types into types. Boxed rows get one fresh slab per column, and
// every cell is an interface pointing into it (boxColumn).
type dest struct {
	b     *Batch
	boxed [][]any
	types []Type
}

// walk reads the batch's columns — each a type tag, then a value of that
// type per row — into d. A batch with no rows reads none.
func (bb *BatchBody) walk(d *dest) error {
	if bb.rows == 0 {
		return nil
	}
	r := codec.NewReader(bb.body[bb.off:])
	for c := 0; c < bb.arity && r.Err() == nil; c++ {
		t := Type(r.U8())
		if d.tag(&r, c, t); r.Err() != nil {
			break
		}
		switch t {
		case Int64:
			d.ints(&r, c, bb.rows)
		case Float64:
			d.floats(&r, c, bb.rows)
		case String:
			d.strings(&r, c, bb.rows)
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
	case d.boxed == nil:
		d.types = append(d.types, t)
	}
}

// ints, floats and strings read column c's n values into d, the choice of
// destination made once per column rather than once per value. A column of
// ints is one codec call (Reader.Varints) wherever it goes.
func (d *dest) ints(r *codec.Reader, c, n int) {
	switch {
	case d.b != nil:
		v := &d.b.Cols[c]
		at := len(v.I64)
		v.I64 = slices.Grow(v.I64, n)[:at+n]
		r.Varints(v.I64[at:], n)
	case d.boxed != nil:
		col := make([]int64, n)
		r.Varints(col, n)
		boxColumn(d.boxed, c, col)
	default:
		r.Varints(nil, n)
	}
}

func (d *dest) floats(r *codec.Reader, c, n int) {
	switch {
	case d.b != nil:
		v := &d.b.Cols[c]
		for range n {
			v.F64 = append(v.F64, readFloat(r))
		}
	case d.boxed != nil:
		col := make([]float64, n)
		for i := range col {
			col[i] = readFloat(r)
		}
		boxColumn(d.boxed, c, col)
	default:
		for range n {
			readFloat(r)
		}
	}
}

func (d *dest) strings(r *codec.Reader, c, n int) {
	switch {
	case d.b != nil:
		v := &d.b.Cols[c]
		for range n {
			v.Str = append(v.Str, string(readString(r)))
		}
	case d.boxed != nil:
		// A first pass over a copy of the reader sizes one buffer for the
		// column's bytes; the second copies each value in and keeps it as a
		// substring of that buffer, which nothing writes again.
		probe, size := *r, 0
		for range n {
			size += len(readString(&probe))
		}
		if probe.Err() != nil {
			*r = probe
			return
		}
		buf := make([]byte, 0, size)
		col := make([]string, n)
		for i := range col {
			at := len(buf)
			buf = append(buf, readString(r)...)
			col[i] = alias(buf[at:])
		}
		boxColumn(d.boxed, c, col)
	default:
		for range n {
			readString(r)
		}
	}
}
