package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
	for _, v := range sampleInts {
		b = binary.AppendVarint(b, v) // Varints
	}
	return append(b, "run\x00"...) // Until(0)
}

// sampleInts is the column sample's Varints read: one-byte, multi-byte and
// extreme values.
var sampleInts = []int64{0, -1, 63, -64, 64, 300, -77, 1 << 40, math.MinInt64, math.MaxInt64}

// sampleReads is how many reads readSample makes of the whole sample.
const sampleReads = 11

// readSample walks sample's layout, returning how many reads it made before
// the reader failed (all of them when it did not).
func readSample(r *Reader) (reads int) {
	steps := []func(){
		func() { r.U8() }, func() { r.U32() }, func() { r.U64() }, func() { r.Uvarint() },
		func() { r.Varint() }, func() { r.Fixed(3) }, func() { r.Bytes() }, func() { _ = r.Str() },
		func() { r.Fixed(2 * r.Count(2)) }, func() { r.Varints(nil, len(sampleInts)) }, func() { r.Until(0) },
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
	if r.Varints(ints, len(sampleInts)); !slices.Equal(ints[:len(sampleInts)], sampleInts) || ints[len(sampleInts)] != 0 {
		t.Errorf("Varints = %v, want %v and dst past n untouched", ints, sampleInts)
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
		ints := []int64{7, 7}
		if r.Varints(ints, 2); ints[0] != 0 || ints[1] != 0 {
			t.Fatalf("cut at %d: Varints after the failure read %v", cut, ints)
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
		// In a column after two good values: the column fails and reads as zeros.
		r = NewReader(append([]byte{2, 4}, bad...))
		ints := make([]int64, 3)
		if r.Varints(ints, 3); !errors.Is(r.Err(), ErrTruncated) || !slices.Equal(ints, []int64{0, 0, 0}) {
			t.Errorf("Varints(02 04 %x) = %v, %v", bad, ints, r.Err())
		}
	}
	r = NewReader([]byte("no delimiter"))
	if r.Until(0); !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Until without a delimiter: %v", r.Err())
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
