package tuple

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("R",
		[]Column{{"x", String}, {"y", Int64}, {"z", Float64}}, "x")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("R", []Column{{"a", Int64}}, "missing"); err == nil {
		t.Error("unknown key column should fail")
	}
	s, err := NewSchema("R", []Column{{"a", Int64}, {"b", String}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Key) != 1 || s.Key[0] != 0 {
		t.Errorf("default key should be first column, got %v", s.Key)
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := testSchema(t)
	if s.ColumnIndex("y") != 1 {
		t.Error("ColumnIndex(y) != 1")
	}
	if s.ColumnIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema(t)
	b := testSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas not equal")
	}
	c := MustSchema("R", []Column{{"x", String}, {"y", Int64}, {"z", Int64}}, "x")
	if a.Equal(c) {
		t.Error("different schemas compare equal")
	}
}

func TestValueCmp(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I(1), I(2), -1},
		{I(2), I(2), 0},
		{I(3), I(2), 1},
		{F(1.5), F(2.5), -1},
		{S("abc"), S("abd"), -1},
		{S("abc"), S("abc"), 0},
		{I(2), F(2.0), 0},    // numeric cross-type
		{I(2), F(2.5), -1},   // numeric cross-type
		{F(3.0), I(2), 1},    // numeric cross-type
		{I(1), S("abc"), -1}, // type tag ordering
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRowOps(t *testing.T) {
	r := Row{S("a"), I(1), F(2.0)}
	p := r.Project([]int{2, 0})
	if !p.Equal(Row{F(2.0), S("a")}) {
		t.Errorf("Project = %v", p)
	}
	cl := r.Clone()
	cl[0] = S("changed")
	if r[0].Str != "a" {
		t.Error("Clone aliases the original")
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	// Build values across types and verify byte order matches value order.
	ints := []int64{math.MinInt64, -100, -1, 0, 1, 7, 100, math.MaxInt64}
	for i := 1; i < len(ints); i++ {
		a := AppendKeyValue(nil, I(ints[i-1]))
		b := AppendKeyValue(nil, I(ints[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("int order broken: %d vs %d", ints[i-1], ints[i])
		}
	}
	floats := []float64{math.Inf(-1), -1e300, -1.5, -0.0, 0.0, 1e-300, 2.5, math.Inf(1)}
	for i := 1; i < len(floats); i++ {
		a := AppendKeyValue(nil, F(floats[i-1]))
		b := AppendKeyValue(nil, F(floats[i]))
		if floats[i-1] == floats[i] { // -0.0 == 0.0
			continue
		}
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("float order broken: %g vs %g", floats[i-1], floats[i])
		}
	}
	strs := []string{"", "a", "a\x00", "a\x00b", "ab", "b"}
	for i := 1; i < len(strs); i++ {
		a := AppendKeyValue(nil, S(strs[i-1]))
		b := AppendKeyValue(nil, S(strs[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("string order broken: %q vs %q", strs[i-1], strs[i])
		}
	}
}

func TestDecodeKeyRoundTrip(t *testing.T) {
	vals := []Value{I(-42), S("hello\x00world"), F(3.25), S(""), I(0), S("\x00"), S("a\x00\x00b\x00"), S("\xff\x00\xff")}
	var enc []byte
	for _, v := range vals {
		enc = AppendKeyValue(enc, v)
	}
	got, err := DecodeKey(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("value %d: %v != %v", i, got[i], vals[i])
		}
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	bad := [][]byte{
		{0x01, 0x00},            // truncated int
		{0x02, 0x00, 0x01},      // truncated float
		{0x03, 'a'},             // unterminated string
		{0x03, 'a', 0x00},       // truncated escape
		{0x03, 'a', 0x00, 0x7F}, // invalid escape
		{0x42},                  // unknown tag
	}
	for _, b := range bad {
		if _, err := DecodeKey(b); err == nil {
			t.Errorf("DecodeKey(%v) should fail", b)
		}
	}
}

func TestTupleID(t *testing.T) {
	s := testSchema(t)
	row := Row{S("f"), I(10), F(1.5)}
	id0 := NewID(s, row, 0)
	id1 := NewID(s, row, 1)
	if id0 == id1 {
		t.Error("IDs at different epochs must differ")
	}
	if id0.Hash() != id1.Hash() {
		t.Error("hash must exclude epoch so versions colocate")
	}
	vals, err := id1.KeyValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0].Str != "f" {
		t.Errorf("KeyValues = %v", vals)
	}
	// Encode/decode round trip.
	dec, err := DecodeID(id1.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec != id1 {
		t.Errorf("DecodeID round trip: %v != %v", dec, id1)
	}
	if !strings.Contains(id1.String(), "f") || !strings.Contains(id1.String(), "1") {
		t.Errorf("ID.String() = %s, want it to mention key and epoch", id1)
	}
	if _, err := DecodeID([]byte{1, 2}); err == nil {
		t.Error("short ID should fail to decode")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := testSchema(t)
	rows := []Row{
		{S("alpha"), I(1), F(0.5)},
		{S(""), I(-9), F(-123.25)},
		{S("with\x00zero"), I(math.MaxInt64), F(math.Inf(1))},
	}
	for _, row := range rows {
		enc, err := AppendRow(nil, s, row)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBatch(s)
		if err := DecodeRowCols(enc, s, b); err != nil {
			t.Fatal(err)
		}
		if got := b.Rows(); len(got) != 1 || !got[0].Equal(row) {
			t.Errorf("round trip %v -> %v", row, got)
		}
	}
}

func TestRowCodecErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := AppendRow(nil, s, Row{S("x")}); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := AppendRow(nil, s, Row{I(1), I(2), F(3)}); err == nil {
		t.Error("wrong type should fail")
	}
	if err := DecodeRowCols([]byte{0x03}, s, NewBatch(s)); err == nil {
		t.Error("garbage should fail to decode")
	}
}

func TestBatchRoundTripSmall(t *testing.T) {
	rows := []Row{
		{S("a"), I(1), F(1.0)},
		{S("b"), I(2), F(2.0)},
	}
	enc, err := encodeRows(rows, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRows(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows", len(got))
	}
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Errorf("row %d: %v != %v", i, got[i], rows[i])
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	enc, err := encodeRows(nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRows(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty batch decoded to %d rows", len(got))
	}
}

func TestBatchCompressionKicksIn(t *testing.T) {
	// Rows with shared structure should compress well below raw size.
	var rows []Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, Row{
			S(fmt.Sprintf("customer-name-common-prefix-%06d", i%50)),
			I(int64(i % 10)),
			F(float64(i%7) * 1.25),
		})
	}
	enc, err := encodeRows(rows, 256)
	if err != nil {
		t.Fatal(err)
	}
	rawEstimate := 0
	for _, r := range rows {
		rawEstimate += len(r[0].Str) + 1 + 8
	}
	if len(enc) >= rawEstimate/2 {
		t.Errorf("compressed batch %dB not < half of raw %dB", len(enc), rawEstimate)
	}
	got, err := decodeRows(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("row count %d != %d", len(got), len(rows))
	}
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestBatchMixedArityRejected(t *testing.T) {
	rows := []Row{{I(1)}, {I(1), I(2)}}
	if _, err := encodeRows(rows, 256); err == nil {
		t.Error("mixed arity should fail")
	}
	rows = []Row{{I(1)}, {S("x")}}
	if _, err := encodeRows(rows, 256); err == nil {
		t.Error("mixed column types should fail")
	}
	ragged := &Batch{N: 2, Cols: []ColVec{{T: Int64, I64: []int64{1, 2}}, {T: Int64, I64: []int64{1}}}}
	if _, err := AppendBatchCols(nil, ragged, -1); err == nil {
		t.Error("a column shorter than the batch should fail")
	}
	if _, err := AppendBatchCols(nil, &Batch{N: 1, Cols: []ColVec{{I64: []int64{1}}}}, -1); err == nil {
		t.Error("an untyped column should fail")
	}
}

func TestBatchDecodeErrors(t *testing.T) {
	if _, err := decodeRows(nil); err == nil {
		t.Error("nil should fail")
	}
	if _, err := decodeRows([]byte{9, 0, 0}); err == nil {
		t.Error("bad version should fail")
	}
	good, _ := encodeRows([]Row{{I(1), S("abc")}}, 256)
	if _, err := decodeRows(good[:len(good)-2]); err == nil {
		t.Error("truncated batch should fail")
	}
}

// --- property tests ---

func genValue(r *rand.Rand) Value {
	switch r.Intn(3) {
	case 0:
		return I(r.Int63() - r.Int63())
	case 1:
		return F(r.NormFloat64() * 1e6)
	default:
		n := r.Intn(30)
		b := make([]byte, n)
		r.Read(b)
		return S(string(b))
	}
}

type keyRowPair struct{ A, B Row }

func (keyRowPair) Generate(r *rand.Rand, _ int) reflect.Value {
	arity := 1 + r.Intn(3)
	mk := func() Row {
		row := make(Row, arity)
		for i := range row {
			row[i] = genValue(r)
		}
		return row
	}
	return reflect.ValueOf(keyRowPair{A: mk(), B: mk()})
}

func sameTypes(a, b Row) bool {
	for i := range a {
		if a[i].T != b[i].T {
			return false
		}
	}
	return true
}

func TestPropKeyEncodingPreservesOrder(t *testing.T) {
	cols3 := []int{0}
	f := func(p keyRowPair) bool {
		if !sameTypes(p.A, p.B) {
			return true // order across types is defined but not interesting
		}
		ea := EncodeKey(p.A, cols3)
		eb := EncodeKey(p.B, cols3)
		cmp := p.A[0].Cmp(p.B[0])
		bc := bytes.Compare(ea, eb)
		if cmp < 0 {
			return bc < 0
		}
		if cmp > 0 {
			return bc > 0
		}
		return bc == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropKeyRoundTrip(t *testing.T) {
	f := func(p keyRowPair) bool {
		cols := make([]int, len(p.A))
		for i := range cols {
			cols[i] = i
		}
		enc := EncodeKey(p.A, cols)
		dec, err := DecodeKey(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(p.A) {
			return false
		}
		for i := range dec {
			// NaN round trips bitwise but != itself; skip.
			if dec[i].T == Float64 && math.IsNaN(dec[i].F64) {
				continue
			}
			if dec[i] != p.A[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropBatchRoundTrip(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		r := rand.New(rand.NewSource(seed))
		arity := 1 + r.Intn(5)
		types := make([]Type, arity)
		for i := range types {
			types[i] = Type(1 + r.Intn(3))
		}
		rows := make([]Row, nRows)
		for i := range rows {
			rows[i] = make(Row, arity)
			for c := range rows[i] {
				switch types[c] {
				case Int64:
					rows[i][c] = I(r.Int63() - r.Int63())
				case Float64:
					rows[i][c] = F(r.NormFloat64())
				case String:
					b := make([]byte, r.Intn(40))
					r.Read(b)
					rows[i][c] = S(string(b))
				}
			}
		}
		enc, err := encodeRows(rows, 256)
		if err != nil {
			return false
		}
		got, err := decodeRows(enc)
		if err != nil || len(got) != len(rows) {
			return false
		}
		for i := range rows {
			if !got[i].Equal(rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRowCmpSortsLexicographically(t *testing.T) {
	rows := []Row{
		{S("b"), I(1)},
		{S("a"), I(2)},
		{S("a"), I(1)},
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cmp(rows[j]) < 0 })
	want := []Row{{S("a"), I(1)}, {S("a"), I(2)}, {S("b"), I(1)}}
	for i := range want {
		if !rows[i].Equal(want[i]) {
			t.Errorf("sorted[%d] = %v, want %v", i, rows[i], want[i])
		}
	}
}

// BenchmarkDecodeKey times the covering scan's per-ID decode (ID.KeyValues):
// a one-string key shaped like the benchmark relation's, and a composite key
// whose string holds an escaped zero byte.
func BenchmarkDecodeKey(b *testing.B) {
	for _, c := range []struct {
		name string
		vals []Value
	}{
		{"string", []Value{S("k000123")}},
		{"composite", []Value{S("tenant\x00a/region-eu-west-1"), I(42), F(2.5)}},
	} {
		var enc []byte
		for _, v := range c.vals {
			enc = AppendKeyValue(enc, v)
		}
		id := ID{Key: string(enc), Epoch: 7}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := id.KeyValues(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
