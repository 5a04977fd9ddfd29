package tuple

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"orchestra/internal/codec"
)

// randBatchRows builds a random type-homogeneous batch: random column
// signature, then values drawn per type (randValue).
func randBatchRows(rng *rand.Rand, nRows, arity int) []Row {
	types := make([]Type, arity)
	for i := range types {
		types[i] = Type(rng.Intn(3) + 1)
	}
	return randTypedRows(rng, nRows, types)
}

// randTypedRows builds nRows random rows of the given column types.
func randTypedRows(rng *rand.Rand, nRows int, types []Type) []Row {
	rows := make([]Row, nRows)
	for r := range rows {
		row := make(Row, len(types))
		for c, t := range types {
			row[c] = randValue(rng, t)
		}
		rows[r] = row
	}
	return rows
}

// randValue draws a value of type t, adversarial ones included: extreme
// ints, ±0, NaN-adjacent floats, empty/NUL/long strings.
func randValue(rng *rand.Rand, t Type) Value {
	switch t {
	case Int64:
		switch rng.Intn(4) {
		case 0:
			return I(rng.Int63() - rng.Int63())
		case 1:
			return I(math.MaxInt64)
		case 2:
			return I(math.MinInt64)
		default:
			return I(int64(rng.Intn(1000)))
		}
	case Float64:
		switch rng.Intn(4) {
		case 0:
			return F(rng.NormFloat64() * 1e18)
		case 1:
			return F(math.Copysign(0, -1))
		case 2:
			return F(math.MaxFloat64)
		default:
			return F(float64(rng.Intn(100)) / 4)
		}
	default:
		switch rng.Intn(4) {
		case 0:
			return S("")
		case 1:
			return S("with\x00nul\nand\tctrl")
		case 2:
			return S(strings.Repeat("pad", rng.Intn(200)))
		default:
			return S(fmt.Sprintf("k%06d", rng.Intn(1e6)))
		}
	}
}

// encodeRows and decodeRows drive the batch codec from the tests' row
// fixtures: rows → Batch.AppendRow → AppendBatchCols, and DecodeBatchInto →
// Batch.Rows, with DecodeBatchAny held to the same verdict.
func encodeRows(rows []Row, minCompress int) ([]byte, error) {
	b := &Batch{}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return AppendBatchCols(nil, b, minCompress)
}

func decodeRows(data []byte) ([]Row, error) {
	var b Batch
	_, err := DecodeBatchInto(data, &b)
	if _, anyErr := DecodeBatchAny(data); (err == nil) != (anyErr == nil) {
		panic(fmt.Sprintf("decoders disagree: DecodeBatchInto %v, DecodeBatchAny %v", err, anyErr))
	}
	return b.Rows(), err
}

// sameBits reports exact equality of two values (NaNs by bit pattern).
func sameBits(a, b Value) bool {
	return a.T == b.T && a.I64 == b.I64 && a.Str == b.Str && math.Float64bits(a.F64) == math.Float64bits(b.F64)
}

// TestBatchRoundTripProperty round-trips randomized batches across all
// types, shapes, and both compression regimes.
func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nRows := rng.Intn(300)
		arity := rng.Intn(6) + 1
		rows := randBatchRows(rng, nRows, arity)
		// Alternate the compression thresholds: past 256 B, never, always.
		enc, err := encodeRows(rows, []int{256, -1, 1}[trial%3])
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		got, err := decodeRows(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(rows))
		}
		for i := range rows {
			if len(got[i]) != len(rows[i]) {
				t.Fatalf("trial %d row %d: arity %d, want %d", trial, i, len(got[i]), len(rows[i]))
			}
			for j := range rows[i] {
				if a, b := rows[i][j], got[i][j]; !sameBits(a, b) {
					t.Fatalf("trial %d row %d col %d: %v != %v", trial, i, j, b, a)
				}
			}
		}
	}
}

// TestAppendBatchColsReusesScratch verifies AppendBatchCols appends after
// existing bytes and reuses capacity instead of allocating fresh.
func TestAppendBatchColsReusesScratch(t *testing.T) {
	rows := []Row{{I(1), S("a")}, {I(2), S("b")}}
	b := &Batch{}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]byte, 0, 4096)
	scratch = append(scratch, 0xAA, 0xBB)
	out, err := AppendBatchCols(scratch, b, -1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAA || out[1] != 0xBB {
		t.Fatal("prefix clobbered")
	}
	if &out[0] != &scratch[0] {
		t.Fatal("AppendBatchCols reallocated despite sufficient capacity")
	}
	got, err := decodeRows(out[2:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(rows[0]) || !got[1].Equal(rows[1]) {
		t.Fatalf("round trip mangled rows: %v", got)
	}
}

// TestBatchHuge exercises a batch well past the streaming chunk size.
func TestBatchHuge(t *testing.T) {
	const n = 50_000
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{I(int64(i)), F(float64(i) / 3), S(fmt.Sprintf("key-%09d", i))}
	}
	enc, err := encodeRows(rows, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRows(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d rows, want %d", len(got), n)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d: %v != %v", i, got[i], rows[i])
		}
	}
}

// TestDecodeBatchRejectsMalformed feeds corrupted encodings and expects
// an error, never a panic or a bogus success.
func TestDecodeBatchRejectsMalformed(t *testing.T) {
	good, err := encodeRows([]Row{{I(42), S("hello"), F(2.5)}, {I(-1), S(""), F(0)}}, 256)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"one byte":       {batchVersion},
		"bad version":    append([]byte{99}, good[1:]...),
		"truncated body": good[:len(good)-1],
		"header only":    good[:2],
		"implausible dims": append([]byte{batchVersion, 0},
			0xff, 0xff, 0xff, 0xff, 0x7f, 0x03),
		"bogus flated": {batchVersion, flagFlate, 0xde, 0xad, 0xbe, 0xef},
	}
	for name, data := range cases {
		if _, err := decodeRows(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Truncation at every prefix must error, not panic (the two-byte
	// header of an empty batch is the only valid prefix).
	raw, err := encodeRows([]Row{{I(7), S("x")}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i++ {
		if _, err := decodeRows(raw[:i]); err == nil && i != 2 {
			t.Errorf("prefix %d/%d accepted", i, len(raw))
		}
	}
}

// TestDecodeBatchDimsBomb rejects headers whose claimed dimensions
// exceed what the payload could possibly carry (allocation guard).
func TestDecodeBatchDimsBomb(t *testing.T) {
	var b []byte
	b = append(b, batchVersion, 0)
	b = appendUvarintT(b, 1<<27) // rows
	b = appendUvarintT(b, 1<<15) // arity
	b = append(b, byte(Int64), 1, 1, 1)
	if _, err := decodeRows(b); err == nil {
		t.Fatal("dims bomb accepted")
	}
	// Modest row count but huge arity: the rows*arity product must be
	// checked, not the row count alone (a 2KB payload claiming 100k x
	// 64k would otherwise force a ~250GiB Value allocation).
	b = b[:0]
	b = append(b, batchVersion, 0)
	b = appendUvarintT(b, 100_000)
	b = appendUvarintT(b, 1<<16)
	b = append(b, make([]byte, 2048)...)
	if _, err := decodeRows(b); err == nil {
		t.Fatal("rows*arity bomb accepted")
	}
}

// hostileHead is a batch header claiming rows x arity.
func hostileHead(flags byte, rows, arity uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint([]byte{batchVersion, flags}, rows), arity)
}

// deflated is p as one BestSpeed flate stream.
func deflated(t *testing.T, p []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchRefusesHostileColumns: a column whose claims its bytes cannot
// back is refused by every decoder — DecodeInto, DecodeBatchAny and the
// relay's Check — for the reason it is hostile, and before anything the
// size of its claimed row count is made: each refusal allocates less than
// an []int64 of n would (or a kilobyte, for a small n).
func TestBatchRefusesHostileColumns(t *testing.T) {
	const n = maxBatchRows // the most rows a batch may claim
	const sn = 1 << 16     // rows of the flated columns, one byte each
	letters := []byte(strings.Repeat("abcdefghijklmnopqrstuvwxyz", sn/26+2))
	ints := func(base int64, width byte, bits int) []byte {
		col := binary.AppendVarint([]byte{byte(Int64)}, base)
		return append(append(col, width), make([]byte, bits)...)
	}
	// strs is a string column: lengths from base at width (all bits set), a
	// byte count, then tail.
	strs := func(base int64, width byte, lenBits int, size uint64, tail []byte) []byte {
		col := binary.AppendVarint([]byte{byte(String)}, base)
		col = append(append(col, width), bytes.Repeat([]byte{0xff}, lenBits)...)
		return append(binary.AppendUvarint(col, size), tail...)
	}
	v1, err := hex.DecodeString("010003030305736576656e0361006200010dd80400024004000000000000bfc00000000000007e37e43c8800759c")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		batch []byte
		rows  int
		want  string
	}{
		{"width 65", append(hostileHead(0, n, 1), ints(0, 65, 64)...), n, codec.ErrWidth.Error()},
		{"n x width past the bytes", append(hostileHead(0, n, 1), ints(0, 17, 4096)...), n, codec.ErrOversize.Error()},
		{"string bytes past maxBatchBody", append(hostileHead(0, n, 1), strs(0, 0, 0, maxBatchBody+1, letters)...), n, "past the batch's"},
		{"flated bytes short of their count",
			append(hostileHead(flagFlate, sn, 1), strs(1, 0, 0, sn, codec.AppendBytes(nil, deflated(t, letters[:sn-1])))...), sn, "unexpected EOF"},
		{"flated bytes past their count",
			append(hostileHead(flagFlate, sn, 1), strs(1, 0, 0, sn, codec.AppendBytes(nil, deflated(t, letters[:sn+1])))...), sn, "past their count"},
		{"flated count past any stream of its size",
			append(hostileHead(flagFlate, n, 1), strs(1, 0, 0, n, codec.AppendBytes(nil, make([]byte, 16)))...), n, "flate stream"},
		{"lengths do not sum to the bytes",
			append(hostileHead(0, n, 1), strs(0, 1, n/8, n-1, make([]byte, n-1))...), n, "do not sum"},
		{"constant lengths do not sum to the bytes",
			append(hostileHead(0, n, 1), strs(1, 0, 0, n-1, make([]byte, n-1))...), n, "do not sum"},
		{"a negative length", append(hostileHead(0, n, 1), strs(-1, 1, n/8, 0, nil)...), n, "do not sum"},
		{"a version-1 batch", v1, 3, "unknown batch version 1"},
		{"unknown flags", append(hostileHead(0x02, n, 1), ints(0, 0, 0)...), n, "unknown batch flags"},
		{"rows past the cap", append(hostileHead(0, n+1, 1), ints(0, 0, 0)...), n + 1, "implausible batch dims"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for name, decode := range map[string]func([]byte) error{
				"DecodeInto":     func(p []byte) error { var b Batch; _, err := DecodeBatchInto(p, &b); return err },
				"DecodeBatchAny": func(p []byte) error { _, err := DecodeBatchAny(p); return err },
				"Check":          func(p []byte) error { _, _, err := checkBatch(p); return err },
			} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := decode(tc.batch)
				runtime.ReadMemStats(&after)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: %v, want a refusal for %q", name, err, tc.want)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got >= max(8*uint64(tc.rows), 1<<10) {
					t.Errorf("%s: refusing a batch claiming %d rows allocated %d bytes", name, tc.rows, got)
				}
			}
		})
	}
}

// loadBlock is a 1 024-row block of the benchmark's load relation — (k
// "k%06d", grp i%17, v a permutation) of 100 000 rows — in random storage
// order, as a fragment ships it.
func loadBlock(tb testing.TB, seed int64) *Batch {
	rng := rand.New(rand.NewSource(seed))
	const rows = 100_000
	perm := rng.Perm(rows)
	b := &Batch{}
	for _, i := range rng.Perm(rows)[:1024] {
		if err := b.AppendRow(Row{S(fmt.Sprintf("k%06d", i)), I(int64(i % 17)), I(int64(perm[i]))}); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// TestBatchBytesPerRow guards the wire bytes a row costs
// (wire_bytes_per_row in the benchmark ledger) where they are set: a
// load-shaped block within 6.5 B/row (whole-batch flate took 7.6), and a
// 1 000-row column of dim labels — the strings the join class ships —
// within 2 B/row, which flate finding the repeats across values keeps (a
// Huffman-only coder takes about 3.2).
func TestBatchBytesPerRow(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		enc, err := AppendBatchCols(nil, loadBlock(t, seed), 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		perRow := float64(len(enc)) / 1024
		t.Logf("seed %d: a load block encodes to %.2f B/row", seed, perRow)
		if perRow > 6.5 {
			t.Errorf("seed %d: a load block encodes to %.2f B/row, want at most 6.5", seed, perRow)
		}
	}
	rng := rand.New(rand.NewSource(1))
	labels := &Batch{}
	for range 1000 {
		if err := labels.AppendRow(Row{S(fmt.Sprintf("label-%02d", rng.Intn(17)))}); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := AppendBatchCols(nil, labels, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(len(enc)) / 1000
	t.Logf("a label column encodes to %.2f B/row", perRow)
	if perRow > 2 {
		t.Errorf("a label column encodes to %.2f B/row, want at most 2", perRow)
	}
}

func appendUvarintT(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// TestBoxedCellsAreTheirValues pins boxColumn, the interface header built
// over a column slab: every cell DecodeBatchAny returns is the value
// DecodeInto + Rows decodes, compared as interfaces (==, which compares the
// dynamic type too) and by a type switch, after the encoded bytes are
// overwritten, the pooled body buffer is reused by another decode, and
// garbage collections run over churned memory. A slab freed or reused while
// a cell still points into it would show here, and under -race.
func TestBoxedCellsAreTheirValues(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	types := []Type{String, Int64, Float64, Int64, String, Float64}
	for _, n := range []int{1, 2, 1024, 4096} {
		for _, minCompress := range []int{-1, 1} {
			enc, err := encodeRows(randTypedRows(rng, n, types), minCompress)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := DecodeBatchAny(enc)
			if err != nil {
				t.Fatal(err)
			}
			var into Batch
			if _, err := DecodeBatchInto(enc, &into); err != nil {
				t.Fatal(err)
			}
			want := into.Rows()
			clear(enc)
			other, err := encodeRows(randTypedRows(rng, n, types), minCompress)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeBatchAny(other); err != nil {
				t.Fatal(err)
			}
			for range 3 {
				churn := make([][]byte, 0, 4096)
				for i := range cap(churn) {
					churn = append(churn, bytes.Repeat([]byte{byte(i)}, 8+i%64))
				}
				runtime.GC()
			}
			for i, row := range want {
				for c, v := range row {
					cell := cells[i][c]
					var plain any
					switch v.T {
					case Int64:
						plain = v.I64
					case Float64:
						plain = v.F64
					case String:
						plain = strings.Clone(v.Str)
					}
					if cell != plain {
						t.Fatalf("n=%d compress=%d row %d col %d: cell %T %v != %T %v", n, minCompress, i, c, cell, cell, plain, plain)
					}
					var same bool
					switch x := cell.(type) {
					case int64:
						same = v.T == Int64 && x == v.I64
					case float64:
						same = v.T == Float64 && math.Float64bits(x) == math.Float64bits(v.F64)
					case string:
						same = v.T == String && x == v.Str
					}
					if !same {
						t.Fatalf("n=%d compress=%d row %d col %d: cell %T %v, want %v", n, minCompress, i, c, cell, cell, v)
					}
				}
			}
		}
	}
}

// FuzzDecodeBatch asserts the batch decoders never panic, agree with each
// other on acceptance and on every value, and that everything they accept
// re-encodes to an equivalent batch.
func FuzzDecodeBatch(f *testing.F) {
	seedRows := [][]Row{
		nil,
		{{I(1)}},
		{{I(1), F(2.5), S("x")}, {I(-9), F(0), S("")}},
		randBatchRows(rand.New(rand.NewSource(1)), 40, 3),
	}
	for _, rows := range seedRows {
		for _, minCompress := range []int{256, 1} {
			if enc, err := encodeRows(rows, minCompress); err == nil {
				f.Add(enc)
			}
		}
	}
	f.Add([]byte{batchVersion, 0, 0x80})
	f.Add([]byte{batchVersion, flagFlate, 0x01, 0x02})
	// Columns at the packing's edges: constant (width 0), the full 64 bits,
	// one-byte strings of one length, and flated labels.
	var labels []Row
	for i := range 40 {
		labels = append(labels, Row{S(fmt.Sprintf("label-%02d", i%17)), I(int64(i * 1000))})
	}
	for _, rows := range [][]Row{
		{{I(5), S("ab")}, {I(5), S("cd")}, {I(5), S("ef")}},
		{{I(math.MinInt64), F(-0.5)}, {I(math.MaxInt64), F(math.Inf(1))}, {I(0), F(0)}},
		labels,
	} {
		for _, minCompress := range []int{-1, 1} {
			if enc, err := encodeRows(rows, minCompress); err == nil {
				f.Add(enc)
			}
		}
	}
	// Hostile columns: a width of 65, lengths that do not sum to the bytes,
	// and a flated count its stream falls short of.
	f.Add(append(hostileHead(0, 2, 1), byte(Int64), 0, 65, 0xff, 0xff))
	f.Add(append(hostileHead(0, 2, 1), byte(String), 2, 0, 3, 'a', 'b', 'c'))
	f.Add(append(hostileHead(flagFlate, 2, 1), append([]byte{byte(String), 2, 0, 2}, codec.AppendBytes(nil, []byte{0x01, 0x01, 0x00, 0xfe, 0xff, 'a'})...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var into Batch
		n, err := DecodeBatchInto(data, &into)
		anyRows, anyErr := DecodeBatchAny(data)
		if (err == nil) != (anyErr == nil) {
			t.Fatalf("DecodeBatchInto err=%v but DecodeBatchAny err=%v", err, anyErr)
		}
		checked, types, checkErr := checkBatch(data)
		if (err == nil) != (checkErr == nil) {
			t.Fatalf("DecodeBatchInto err=%v but Check err=%v", err, checkErr)
		}
		if err == nil && (checked != n || (n > 0 && !slices.Equal(types, into.Types()))) {
			t.Fatalf("Check: %d rows of %v, DecodeBatchInto: %d rows of %v", checked, types, n, into.Types())
		}
		if err != nil {
			if into.N != 0 {
				t.Fatalf("a rejected batch left %d rows behind", into.N)
			}
			return
		}
		if n != into.N || len(anyRows) != n {
			t.Fatalf("DecodeBatchInto: %d rows, batch holds %d, DecodeBatchAny %d", n, into.N, len(anyRows))
		}
		rows := into.Rows()
		for i, row := range rows {
			for j, v := range row {
				var boxed Value
				switch x := anyRows[i][j].(type) {
				case int64:
					boxed = I(x)
				case float64:
					boxed = F(x)
				case string:
					boxed = S(x)
				}
				if boxed.T != v.T {
					t.Fatalf("row %d col %d: DecodeBatchAny holds a %T, DecodeBatchInto a %v", i, j, anyRows[i][j], v.T)
				}
				if !sameBits(v, boxed) {
					t.Fatalf("row %d col %d: DecodeBatchAny %v != DecodeBatchInto %v", i, j, boxed, v)
				}
			}
		}
		enc, err := AppendBatchCols(nil, &into, 256)
		if err != nil {
			// Mixed-type columns cannot come out of a decoder; any accepted
			// input must re-encode.
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		again, err := decodeRows(enc)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(again) != len(rows) {
			t.Fatalf("row count changed: %d != %d", len(again), len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				if a, b := rows[i][j], again[i][j]; !sameBits(a, b) {
					t.Fatalf("row %d col %d changed: %v != %v", i, j, b, a)
				}
			}
		}
	})
}

// BenchmarkWireEncodeBatch measures the streaming path's batch encode
// (no compression — the loopback configuration).
func BenchmarkWireEncodeBatch(b *testing.B) {
	rows := benchBatch(b, 1024)
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		scratch, err = AppendBatchCols(scratch[:0], rows, -1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(scratch)))
}

// BenchmarkWireEncodeBatchCompressed flates the string bytes (the WAN
// config).
func BenchmarkWireEncodeBatchCompressed(b *testing.B) {
	rows := benchBatch(b, 1024)
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		scratch, err = AppendBatchCols(scratch[:0], rows, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(scratch)))
}

// checkBatch runs the validator the relay path applies: open, then Check.
func checkBatch(data []byte) (rows int, types []Type, err error) {
	bb, err := OpenBatch(data)
	if err != nil {
		return 0, nil, err
	}
	types, err = bb.Check(nil)
	return bb.Rows(), types, err
}

// BenchmarkEncodeBatch measures the encode of a load-shaped block at the
// server's default compression threshold, and reports the wire bytes a row
// costs (B/row).
func BenchmarkEncodeBatch(b *testing.B) {
	block := loadBlock(b, 1)
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if scratch, err = AppendBatchCols(scratch[:0], block, 4<<10); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(scratch)))
	b.ReportMetric(float64(len(scratch))/float64(block.N), "B/row")
}

// BenchmarkDecodeBatch measures both decoders and the validator over a
// batch with flated strings at the engine's shipment size (1024 rows) and
// the wire's cut (4096): the pooled flate reader and check buffer are what
// keep the per-row cost flat as batches shrink.
func BenchmarkDecodeBatch(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		enc, err := AppendBatchCols(nil, benchBatch(b, n), 256)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d/any", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBatchAny(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/into", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			var into Batch
			for i := 0; i < b.N; i++ {
				into.Truncate(0)
				if _, err := DecodeBatchInto(enc, &into); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/check", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			types := make([]Type, 0, 3)
			for i := 0; i < b.N; i++ {
				bb, err := OpenBatch(enc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bb.Check(types[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecodeBatch measures the client-side decode.
func BenchmarkWireDecodeBatch(b *testing.B) {
	enc, err := AppendBatchCols(nil, benchBatch(b, 1024), -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatchAny(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatch(tb testing.TB, n int) *Batch {
	b := &Batch{}
	for i := 0; i < n; i++ {
		if err := b.AppendRow(Row{S(fmt.Sprintf("k%06d", i)), I(int64(i % 17)), I(int64(i))}); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}
