package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sample is one value of every kind the reader reads, with the encoder's
// side of each written out by hand.
func sample() []byte {
	b := []byte{0xab}                                 // U8
	b = binary.BigEndian.AppendUint32(b, 0xdeadbeef)  // U32
	b = binary.BigEndian.AppendUint64(b, 1<<63|12345) // U64
	b = binary.AppendUvarint(b, 300)                  // Uvarint
	b = binary.AppendVarint(b, -77)                   // Varint
	b = append(b, 1, 2, 3)                            // Fixed(3)
	b = AppendBytes(b, []byte("bytes"))               // Bytes
	b = AppendBytes(b, []byte("string"))              // Str
	b = binary.AppendUvarint(b, 2)                    // Count(2)
	b = append(b, 9, 9, 9, 9)                         // its two elements
	base, width := PackedFrame(sampleInts)
	b = AppendPacked(b, sampleInts, base, width) // Packed
	for _, f := range sampleFloats {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f)) // Words
	}
	return append(b, "run\x00"...) // Until(0)
}

// sampleInts is the sample's packed column: small, large and extreme values,
// so its width is 64. sampleFloats is its words column.
var (
	sampleInts   = []int64{0, -1, 63, -64, 64, 300, -77, 1 << 40, math.MinInt64, math.MaxInt64}
	sampleFloats = []float64{0, -2.5, math.Inf(1), math.MaxFloat64}
)

// sampleReads is how many reads readSample makes of the whole sample.
const sampleReads = 12

// readSample walks sample's layout, returning how many reads it made before
// the reader failed (all of them when it did not).
func readSample(r *Reader) (reads int) {
	steps := []func(){
		func() { r.U8() }, func() { r.U32() }, func() { r.U64() }, func() { r.Uvarint() },
		func() { r.Varint() }, func() { r.Fixed(3) }, func() { r.Bytes() }, func() { _ = r.Str() },
		func() { r.Fixed(2 * r.Count(2)) }, func() { r.Packed(len(sampleInts)) }, func() { r.Words(len(sampleFloats)) },
		func() { r.Until(0) },
	}
	for _, step := range steps {
		if step(); r.Err() != nil {
			return reads
		}
		reads++
	}
	return reads
}

func TestReaderReadsWhatTheEncodersWrite(t *testing.T) {
	r := NewReader(sample())
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<63|12345 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -77 {
		t.Errorf("Varint = %d", got)
	}
	start := r.Pos()
	if got := r.Fixed(3); !bytes.Equal(got, []byte{1, 2, 3}) || !bytes.Equal(r.Since(start), got) {
		t.Errorf("Fixed = %v, Since = %v", got, r.Since(start))
	}
	if got := r.Bytes(); string(got) != "bytes" || cap(got) != len(got) {
		t.Errorf("Bytes = %q (cap %d): want the field, capped so an append cannot reach the bytes after it", got, cap(got))
	}
	if got := r.Str(); got != "string" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Count(2); got != 2 {
		t.Errorf("Count = %d", got)
	}
	if got := r.Fixed(4); len(got) != 4 {
		t.Errorf("Fixed(4) = %v", got)
	}
	ints := make([]int64, len(sampleInts)+1)
	if p := r.Packed(len(sampleInts)); p.Len() != len(sampleInts) || p.Width() != 64 {
		t.Errorf("Packed: %d values of width %d", p.Len(), p.Width())
	} else if p.Decode(ints); !slices.Equal(ints[:len(sampleInts)], sampleInts) || ints[len(sampleInts)] != 0 {
		t.Errorf("Packed decodes to %v, want %v and dst past n untouched", ints, sampleInts)
	}
	floats := make([]float64, len(sampleFloats))
	if w := r.Words(len(sampleFloats)); w.Len() != len(sampleFloats) {
		t.Errorf("Words: %d words", w.Len())
	} else if w.Float64s(floats); !slices.Equal(floats, sampleFloats) {
		t.Errorf("Words decode to %v, want %v", floats, sampleFloats)
	}
	if got := r.Until(0); string(got) != "run" || cap(got) != len(got) {
		t.Errorf("Until = %q (cap %d)", got, cap(got))
	}
	if got := r.Rest(); len(got) != 0 {
		t.Errorf("Rest = %v", got)
	}
	if err := r.Done("sample"); err != nil {
		t.Errorf("Done: %v", err)
	}
}

// TestTruncationAtEveryPoint: cut anywhere, the walk fails at the read the
// cut falls in, every later read returns zero, and the failure is sticky.
func TestTruncationAtEveryPoint(t *testing.T) {
	full := sample()
	whole := NewReader(full)
	if n := readSample(&whole); n != sampleReads || whole.Done("sample") != nil {
		t.Fatalf("the whole sample: %d reads, %v", n, whole.Err())
	}
	prev := 0
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		n := readSample(&r)
		if n == sampleReads || n < prev {
			t.Fatalf("cut at %d of %d: %d reads succeeded (%d at the previous cut)", cut, len(full), n, prev)
		}
		prev = n
		first := r.Err()
		if !errors.Is(first, ErrTruncated) && !errors.Is(first, ErrOversize) {
			t.Fatalf("cut at %d: %v", cut, first)
		}
		if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.Uvarint() != 0 || r.Varint() != 0 ||
			r.Fixed(1) != nil || r.Bytes() != nil || r.Str() != "" || r.Count(1) != 0 || r.Until(0) != nil || r.Rest() != nil || r.Enter() {
			t.Fatalf("cut at %d: a read after the failure returned something", cut)
		}
		if p, w := r.Packed(2), r.Words(2); p.Len() != 0 || w.Len() != 0 {
			t.Fatalf("cut at %d: columns after the failure hold %d and %d values", cut, p.Len(), w.Len())
		}
		r.Fail(errors.New("later"))
		var e *Error
		if err := r.Done("sample"); !errors.As(err, &e) || e.What != "sample" || !errors.Is(err, first) {
			t.Fatalf("cut at %d: Done = %v, want the first failure %v", cut, err, first)
		}
	}
}

func TestHostileLengths(t *testing.T) {
	for _, n := range []uint64{1 << 31, 1 << 32, 1 << 62, 1 << 63, math.MaxUint64} {
		payload := append(binary.AppendUvarint(nil, n), "some bytes that do not back it"...)
		for name, read := range map[string]func(*Reader){
			"Bytes":    func(r *Reader) { r.Bytes() },
			"Str":      func(r *Reader) { _ = r.Str() },
			"Count(1)": func(r *Reader) { r.Count(1) },
			"Bound":    func(r *Reader) { r.Fixed(r.Bound(n, 1)) },
		} {
			r := NewReader(payload)
			if read(&r); !errors.Is(r.Err(), ErrOversize) {
				t.Errorf("%s with length %d: %v, want %v", name, n, r.Err(), ErrOversize)
			}
		}
	}
	r := NewReader([]byte{1, 2, 3})
	if r.Fixed(-1); !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Fixed(-1): %v", r.Err())
	}
	// A varint that never ends, and one that overflows 64 bits.
	for _, bad := range [][]byte{{0x80}, bytes.Repeat([]byte{0xff}, 11)} {
		r := NewReader(bad)
		if r.Uvarint(); !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("Uvarint(%x): %v", bad, r.Err())
		}
		r = NewReader(bad)
		if r.Varint(); !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("Varint(%x): %v", bad, r.Err())
		}
		r = NewReader(bad) // as a packed column's base
		if p := r.Packed(1); !errors.Is(r.Err(), ErrTruncated) || p.Len() != 0 {
			t.Errorf("Packed(%x): %d values, %v", bad, p.Len(), r.Err())
		}
	}
	// Packed and words columns whose claims the bytes cannot back.
	for name, tc := range map[string]struct {
		col  []byte
		read func(*Reader) int
		want error
	}{
		"width 65":              {[]byte{0, 65, 0xff}, func(r *Reader) int { return r.Packed(1).Len() }, ErrWidth},
		"n x width past bytes":  {[]byte{0, 17, 1, 2, 3}, func(r *Reader) int { return r.Packed(2).Len() }, ErrOversize},
		"n x 64 past bytes":     {append([]byte{0, 64}, make([]byte, 15)...), func(r *Reader) int { return r.Packed(2).Len() }, ErrOversize},
		"negative n":            {[]byte{0, 0}, func(r *Reader) int { return r.Packed(-1).Len() }, ErrOversize},
		"n past any column":     {[]byte{0, 1}, func(r *Reader) int { return r.Packed(1 << 62).Len() }, ErrOversize},
		"words past bytes":      {make([]byte, 15), func(r *Reader) int { return r.Words(2).Len() }, ErrOversize},
		"words of a huge n":     {make([]byte, 16), func(r *Reader) int { return r.Words(1 << 61).Len() }, ErrOversize},
		"words of a negative n": {make([]byte, 16), func(r *Reader) int { return r.Words(-2).Len() }, ErrOversize},
	} {
		r := NewReader(tc.col)
		if n := tc.read(&r); !errors.Is(r.Err(), tc.want) || n != 0 {
			t.Errorf("%s: %d values, %v; want %v", name, n, r.Err(), tc.want)
		}
	}
	r = NewReader([]byte("no delimiter"))
	if r.Until(0); !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Until without a delimiter: %v", r.Err())
	}
}

// TestPackedRoundTrip: every width from 0 to 64, at counts that end a
// column anywhere in its last word, decodes to what AppendPacked wrote —
// whole and a slice at a time — in the bytes PackedSize said, and a column
// cut short is refused.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 0; width <= 64; width++ {
		for _, n := range []int{1, 2, 7, 8, 9, 63, 64, 65, 130} {
			base := rng.Int63() - rng.Int63()
			if width > 0 { // low enough that base+distance does not wrap
				base = math.MinInt64 + int64(rng.Uint64()>>width)
			}
			xs := make([]int64, n)
			for i := range xs {
				d := rng.Uint64()
				if width < 64 {
					d &= 1<<width - 1
				}
				xs[i] = int64(uint64(base) + d)
			}
			want := width
			if width > 0 && n > 1 {
				xs[0] = int64(uint64(base) + math.MaxUint64>>(64-width)) // the widest distance
			} else {
				want = 0
			}
			xs[n-1] = base
			b, w := PackedFrame(xs)
			if b != base || w != want {
				t.Fatalf("width %d n %d: frame (%d, %d), want (%d, %d)", width, n, b, w, base, want)
			}
			enc := AppendPacked([]byte{0xaa}, xs, b, w)[1:]
			if len(enc) != PackedSize(n, b, w) {
				t.Fatalf("width %d n %d: %d bytes, PackedSize %d", width, n, len(enc), PackedSize(n, b, w))
			}
			r := NewReader(enc)
			got := make([]int64, n)
			if r.Packed(n).Decode(got); r.Done("packed") != nil || !slices.Equal(got, xs) {
				t.Fatalf("width %d n %d: decoded %v (%v), want %v", width, n, got, r.Err(), xs)
			}
			r = NewReader(enc)
			p := r.Packed(n)
			for i := 0; i < n; i += 3 { // a chunk at a time, from any bit
				j := min(i+3, n)
				chunk := make([]int64, j-i)
				if p.Slice(i, j).Decode(chunk); !slices.Equal(chunk, xs[i:j]) {
					t.Fatalf("width %d n %d: values %d to %d decode to %v, want %v", width, n, i, j, chunk, xs[i:j])
				}
			}
			if w > 0 {
				r = NewReader(enc[:len(enc)-1])
				if p := r.Packed(n); !errors.Is(r.Err(), ErrOversize) || p.Len() != 0 {
					t.Fatalf("width %d n %d: a column a byte short: %d values, %v", width, n, p.Len(), r.Err())
				}
			}
		}
	}
}

// TestCountIsBackedByBytes: a count is accepted exactly when the bytes left
// could hold that many elements of the stated least size.
func TestCountIsBackedByBytes(t *testing.T) {
	for _, minSize := range []int{1, 18, 41} {
		for _, left := range []int{0, 1, minSize - 1, minSize, 3*minSize - 1, 3 * minSize, 1000} {
			for _, n := range []uint64{0, 1, 2, 3, 4, uint64(left), 1 << 20, 1 << 26, 1 << 63} {
				r := NewReader(append(binary.AppendUvarint(nil, n), make([]byte, left)...))
				got := r.Count(minSize)
				if fits := n <= uint64(left/minSize); fits != (r.Err() == nil) || (fits && got != int(n)) || (!fits && got != 0) {
					t.Errorf("Count(%d) of %d with %d bytes left = %d, %v", minSize, n, left, got, r.Err())
				}
			}
		}
	}
}

func TestDoneRefusesTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done("pair"); !errors.Is(err, ErrTrailing) || err.Error() != "pair: codec: trailing bytes" {
		t.Errorf("Done with a byte unread = %v", err)
	}
	r = NewReader(nil)
	if err := r.Done("nothing"); err != nil {
		t.Errorf("Done on an empty, unread payload = %v", err)
	}
}

func TestDepthLimit(t *testing.T) {
	r := NewReader(nil)
	for i := 0; i < MaxDepth; i++ {
		if !r.Enter() {
			t.Fatalf("Enter refused at depth %d of %d", i+1, MaxDepth)
		}
	}
	r.Leave()
	if !r.Enter() { // siblings at the deepest level are fine
		t.Fatal("Enter refused after a Leave")
	}
	if r.Enter() || !errors.Is(r.Err(), ErrDepth) {
		t.Fatalf("Enter past MaxDepth: %v", r.Err())
	}
}

// tupleRecord is the shape of a stored tuple record (vstore.EncodeTupleRecord):
// epoch, key bytes, row bytes.
func tupleRecord() []byte {
	b := binary.BigEndian.AppendUint64(nil, 42)
	b = AppendBytes(b, []byte("\x01\x80\x00\x00\x00\x00\x00\x00\x07"))
	return AppendBytes(b, bytes.Repeat([]byte{7}, 40))
}

var sink int

func walkTupleRecord(rec []byte) int {
	r := NewReader(rec)
	r.U64()
	n := len(r.Bytes()) + len(r.Bytes())
	if r.Done("tuple record") != nil {
		return -1
	}
	return n
}

// TestReaderStaysOnTheStack: the scan decodes one of these per row.
func TestReaderStaysOnTheStack(t *testing.T) {
	rec := tupleRecord()
	if allocs := testing.AllocsPerRun(100, func() { sink += walkTupleRecord(rec) }); allocs != 0 {
		t.Errorf("walking a tuple record allocates %v times", allocs)
	}
}

func BenchmarkReader(b *testing.B) {
	rec := tupleRecord()
	b.ReportAllocs()
	b.SetBytes(int64(len(rec)))
	for i := 0; i < b.N; i++ {
		sink += walkTupleRecord(rec)
	}
}

func FuzzReader(f *testing.F) {
	f.Add(sample())
	f.Add(tupleRecord())
	f.Add(binary.AppendUvarint(nil, 1<<63))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		readSample(&r)
		if r.Pos() > len(data) {
			t.Fatalf("read %d of %d bytes", r.Pos(), len(data))
		}
	})
}

// BenchmarkPacked times a 1 024-value column of width 17 (the benchmark
// load relation's v) through AppendPacked and Decode.
func BenchmarkPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int64, 1024)
	for i := range xs {
		xs[i] = int64(rng.Intn(100_000))
	}
	base, width := PackedFrame(xs)
	enc := AppendPacked(nil, xs, base, width)
	b.Run("append", func(b *testing.B) {
		var dst []byte
		for b.Loop() {
			dst = AppendPacked(dst[:0], xs, base, width)
		}
	})
	b.Run("decode", func(b *testing.B) {
		got := make([]int64, len(xs))
		for b.Loop() {
			r := NewReader(enc)
			r.Packed(len(xs)).Decode(got)
		}
	})
}
