// Package tuple defines the relational data model shared by the storage and
// query layers: schemas, typed values, rows, tuple identifiers that embed the
// modification epoch (paper §IV), an order-preserving key codec, and a
// compressed columnar batch codec used when shipping tuples between nodes
// (paper §V-A: tuples are batched by destination, compressed with lightweight
// Zip-based compression, and marshalled in a format that exploits their
// commonalities).
package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
)

// Type enumerates the supported column types. Dates are represented as
// ISO-8601 strings, which compare correctly lexicographically.
type Type uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota + 1
	// Float64 is a 64-bit floating point column.
	Float64
	// String is a variable-length string column.
	String
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column is a named, typed attribute.
type Column struct {
	Name string
	Type Type
}

// Schema describes a relation: its name, columns, and the indices of the key
// attributes used for partitioning (the clustered-index key of §IV; data is
// distributed across nodes by the hash of these attributes).
type Schema struct {
	Relation string
	Columns  []Column
	Key      []int // indices into Columns of the key attributes
}

// MaxRelationNameLen bounds relation names: they arrive from clients and
// are embedded in every page, catalog and publish-frame key.
const MaxRelationNameLen = 200

// NewSchema builds a schema; keyCols name the key attributes.
func NewSchema(relation string, cols []Column, keyCols ...string) (*Schema, error) {
	if len(relation) > MaxRelationNameLen {
		return nil, fmt.Errorf("tuple: relation name %d bytes long exceeds limit %d", len(relation), MaxRelationNameLen)
	}
	s := &Schema{Relation: relation, Columns: cols}
	for _, kc := range keyCols {
		i := s.ColumnIndex(kc)
		if i < 0 {
			return nil, fmt.Errorf("tuple: key column %q not in schema %s", kc, relation)
		}
		s.Key = append(s.Key, i)
	}
	if len(s.Key) == 0 && len(cols) > 0 {
		s.Key = []int{0} // default: first attribute, as in the paper's TPC-H setup
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically known schemas.
func MustSchema(relation string, cols []Column, keyCols ...string) *Schema {
	s, err := NewSchema(relation, cols, keyCols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// KeyColumns returns the key attribute indices.
func (s *Schema) KeyColumns() []int { return s.Key }

func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Relation)
	b.WriteString("(")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteString(" ")
		b.WriteString(c.Type.String())
		for _, k := range s.Key {
			if k == i {
				b.WriteString(" KEY")
			}
		}
	}
	b.WriteString(")")
	return b.String()
}

// Equal reports whether two schemas have identical structure.
func (s *Schema) Equal(o *Schema) bool {
	if s.Relation != o.Relation || len(s.Columns) != len(o.Columns) || len(s.Key) != len(o.Key) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	for i := range s.Key {
		if s.Key[i] != o.Key[i] {
			return false
		}
	}
	return true
}

// Value is a dynamically typed scalar. The zero Value is invalid; construct
// with I, F, or S. Values of equal type are totally ordered via Cmp.
type Value struct {
	T   Type
	I64 int64
	F64 float64
	Str string
}

// I returns an Int64 value.
func I(v int64) Value { return Value{T: Int64, I64: v} }

// F returns a Float64 value.
func F(v float64) Value { return Value{T: Float64, F64: v} }

// S returns a String value.
func S(v string) Value { return Value{T: String, Str: v} }

// Cmp totally orders values: first by type tag, then by value. Cross-type
// comparison of Int64 and Float64 compares numerically.
func (v Value) Cmp(o Value) int {
	if v.T != o.T {
		// Numeric cross-compare.
		if (v.T == Int64 || v.T == Float64) && (o.T == Int64 || o.T == Float64) {
			a, b := v.AsFloat(), o.AsFloat()
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
		if v.T < o.T {
			return -1
		}
		return 1
	}
	switch v.T {
	case Int64:
		switch {
		case v.I64 < o.I64:
			return -1
		case v.I64 > o.I64:
			return 1
		}
		return 0
	case Float64:
		switch {
		case v.F64 < o.F64:
			return -1
		case v.F64 > o.F64:
			return 1
		}
		return 0
	case String:
		return strings.Compare(v.Str, o.Str)
	}
	return 0
}

// Equal reports value equality (numeric across Int64/Float64).
func (v Value) Equal(o Value) bool { return v.Cmp(o) == 0 }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() float64 {
	if v.T == Int64 {
		return float64(v.I64)
	}
	return v.F64
}

// AsInt converts numeric values to int64 (truncating floats).
func (v Value) AsInt() int64 {
	if v.T == Float64 {
		return int64(v.F64)
	}
	return v.I64
}

func (v Value) String() string {
	switch v.T {
	case Int64:
		return strconv.FormatInt(v.I64, 10)
	case Float64:
		return strconv.FormatFloat(v.F64, 'g', -1, 64)
	case String:
		return v.Str
	default:
		return "<invalid>"
	}
}

// Row is a tuple of values, positionally matching a schema's columns.
type Row []Value

// Project returns the row restricted to the given column indices.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports positional value equality.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Cmp orders rows lexicographically by column.
func (r Row) Cmp(o Row) int {
	n := len(r)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := r[i].Cmp(o[i]); c != 0 {
			return c
		}
	}
	return len(r) - len(o)
}

// --- Order-preserving key encoding ---
//
// EncodeKey produces a byte string whose lexicographic order matches the
// row order of the projected columns, so that the data-storage node's B+tree
// scans tuples in key order (§IV). Encoding per value:
//   Int64:   tag 0x01, 8 bytes big-endian with the sign bit flipped
//   Float64: tag 0x02, 8 bytes big-endian IEEE with order-fix transform
//   String:  tag 0x03, bytes with 0x00 escaped as 0x00 0xFF, ended 0x00 0x00

// EncodeKey encodes the projection of row onto cols order-preservingly.
func EncodeKey(row Row, cols []int) []byte {
	var out []byte
	for _, c := range cols {
		out = AppendKeyValue(out, row[c])
	}
	return out
}

// AppendKeyValue appends the order-preserving encoding of v to dst.
func AppendKeyValue(dst []byte, v Value) []byte {
	switch v.T {
	case Int64:
		dst = append(dst, 0x01)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I64)^(1<<63))
		return append(dst, b[:]...)
	case Float64:
		dst = append(dst, 0x02)
		bits := math.Float64bits(v.F64)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip everything
		} else {
			bits |= 1 << 63 // positive: set sign bit
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(dst, b[:]...)
	case String:
		dst = append(dst, 0x03)
		for i := 0; i < len(v.Str); i++ {
			if v.Str[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, v.Str[i])
			}
		}
		return append(dst, 0x00, 0x00)
	default:
		panic(fmt.Sprintf("tuple: cannot key-encode %v", v.T))
	}
}

// DecodeKey decodes a key encoded by EncodeKey back into values. This is the
// "tuple ID → tuple key" conversion the paper requires so that a tuple can be
// retrieved by its ID (§IV).
func DecodeKey(data []byte) ([]Value, error) {
	var out []Value
	r := codec.NewReader(data)
	for r.Err() == nil && r.Pos() < len(data) {
		switch tag := r.U8(); tag {
		case 0x01:
			out = append(out, I(int64(r.U64()^(1<<63))))
		case 0x02:
			bits := r.U64()
			if bits&(1<<63) != 0 {
				bits &^= 1 << 63
			} else {
				bits = ^bits
			}
			out = append(out, F(math.Float64frombits(bits)))
		case 0x03:
			out = append(out, S(readKeyString(&r)))
		default:
			r.Fail(fmt.Errorf("unknown key tag %#x", tag))
		}
	}
	if err := r.Done("tuple: key"); err != nil {
		return nil, err
	}
	return out, nil
}

// readKeyString reads an escaped key string: 0x00 0xFF is a zero byte and
// 0x00 0x00 ends the string. Each run of bytes up to a zero is one read; a
// string with no zero byte in it, the usual key, is one run and one copy.
func readKeyString(r *codec.Reader) string {
	var s []byte // the runs before an escaped zero byte, if any
	for {
		run := r.Until(0x00)
		switch r.U8() {
		case 0x00: // the end, or a failed read
			if s == nil {
				return string(run)
			}
			return string(append(s, run...))
		case 0xFF:
			s = append(append(s, run...), 0x00)
		default:
			r.Fail(errors.New("bad string escape"))
			return ""
		}
	}
}

// --- Tuple identifiers ---

// Epoch is a logical timestamp: it advances after each batch of updates is
// published by a peer (§IV).
type Epoch uint64

// ID uniquely identifies a tuple version: the order-preserving encoding of
// its key attributes plus the epoch in which it was last modified — the
// paper's ⟨key, epoch⟩ tuple ID (§IV, Example 4.1).
type ID struct {
	Key   string // EncodeKey output; string so ID is comparable/mappable
	Epoch Epoch
}

// NewID builds a tuple ID from a row under a schema at an epoch.
func NewID(s *Schema, row Row, e Epoch) ID {
	return ID{Key: string(EncodeKey(row, s.Key)), Epoch: e}
}

// Hash returns the tuple's placement key: the SHA-1 of its key attribute
// encoding. The epoch is deliberately excluded so that all versions of a
// tuple hash to the same node, and so that the key can be recovered from the
// ID (§IV).
func (id ID) Hash() keyspace.Key {
	return keyspace.Hash([]byte(id.Key))
}

// KeyValues decodes the key attribute values embedded in the ID.
func (id ID) KeyValues() ([]Value, error) {
	return DecodeKey([]byte(id.Key))
}

// Encode serializes the ID.
func (id ID) Encode() []byte {
	out := make([]byte, 0, 8+len(id.Key))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id.Epoch))
	out = append(out, b[:]...)
	return append(out, id.Key...)
}

func (id ID) String() string {
	vals, err := id.KeyValues()
	if err != nil {
		return fmt.Sprintf("⟨?, %d⟩", id.Epoch)
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("⟨%s, %d⟩", strings.Join(parts, ","), id.Epoch)
}

// --- Row codec (storage) ---

// AppendRow serializes a row (schema-directed) to dst.
func AppendRow(dst []byte, s *Schema, row Row) ([]byte, error) {
	if len(row) != len(s.Columns) {
		return nil, fmt.Errorf("tuple: row arity %d != schema arity %d", len(row), len(s.Columns))
	}
	for i, col := range s.Columns {
		v := row[i]
		if v.T != col.Type {
			return nil, fmt.Errorf("tuple: column %s: value type %v != %v", col.Name, v.T, col.Type)
		}
		switch col.Type {
		case Int64:
			dst = binary.AppendVarint(dst, v.I64)
		case Float64:
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v.F64))
			dst = append(dst, b[:]...)
		case String:
			dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
			dst = append(dst, v.Str...)
		}
	}
	return dst, nil
}
