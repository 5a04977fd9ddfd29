package tuple

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"orchestra/internal/codec"
)

// Batch codec. The query processor batches tuples into blocks by destination,
// compresses them using lightweight Zip-based compression, and marshals them
// in a format that exploits their commonalities (§V-A). We marshal
// column-major and encode each column for its type: ints as a frame of
// reference plus bit-packing (a column of clustered values costs the bits of
// its spread, a constant one nothing), floats as their raw 8-byte words, and
// strings as a packed column of their lengths, then their bytes back to back.
// Only those bytes go through an entropy coder: above a size threshold they
// are one flate stream per column (BestSpeed), so a batch's numbers never pay
// for one — and a column of repeated floats, which whole-batch flate used to
// shrink, costs its eight bytes a value (no workload ships one).
//
// Layout: version, flags (flagFlate: string bytes are flated), row count n
// and arity (uvarints), then per column its type tag and
//
//	Int64    a codec packed column of the n values
//	Float64  n codec words, the values' IEEE 754 bits
//	String   a codec packed column of the n lengths, their sum (uvarint),
//	         then — unless the sum is 0 — the bytes: as they are, or under
//	         flagFlate a uvarint length and a flate stream of them
//
// The same format is the wire representation of streamed query results
// (internal/server): a batch is self-describing (row count, arity, per-column
// type tags), so the serving path ships engine rows without re-encoding them
// per value. No batch is persisted: the WAL and pages hold records
// (AppendRow), so a layout change is a wire-protocol version.

const (
	batchVersion = 2
	flagFlate    = 0x01
	// maxBatchBody caps the string bytes a batch may claim — far above any
	// legitimate batch (wire batches are cut at ~256KiB), far below a
	// decompression bomb.
	maxBatchBody = 1 << 30
	// maxBatchRows and maxBatchCells bound a batch's dims. A packed column of
	// one repeated value takes no bytes whatever its length, so the bytes
	// present cannot bound n. Wire batches are cut at 4096 rows and ship
	// blocks at 1024, so the caps hold any of them up to 4096 columns wide;
	// a publish of more than 2²⁰ rows must be split.
	maxBatchRows  = 1 << 20
	maxBatchCells = 1 << 22
	// minColumnBytes is the least a column can take: a tag, a packed base
	// and a width (a string column adds its byte count).
	minColumnBytes = 3
	// maxInflateRatio is the most deflate expands: a 258-byte match in two
	// bits. A flated column claiming more bytes than that is refused before
	// anything is sized by the claim.
	maxInflateRatio = 1032
)

// AppendBatchCols appends the wire encoding of a columnar batch to dst,
// reusing dst's capacity: the batch serialized column-major, with its string
// bytes flate-compressed once its raw body reaches minCompress bytes
// (negative: never — e.g. loopback serving, where the CPU spent compressing
// exceeds the wire bytes saved). Decoding handles both forms transparently.
// Empty batches are legal.
func AppendBatchCols(dst []byte, b *Batch, minCompress int) ([]byte, error) {
	arity := 0
	if b.N > 0 {
		arity = len(b.Cols)
	}
	e := batchEncoderPool.Get().(*batchEncoder)
	defer e.release()
	// A first pass frames every column and sizes the raw body, which decides
	// flate and reserves dst once.
	e.frames = e.frames[:0]
	size, strs := uvarintLen(uint64(b.N))+uvarintLen(uint64(arity)), false
	for c := 0; c < arity; c++ {
		v := &b.Cols[c]
		if !v.T.IsValidType() {
			return nil, fmt.Errorf("tuple: batch column %d has invalid type", c)
		}
		if v.Len() != b.N {
			return nil, fmt.Errorf("tuple: batch column %d has %d values, want %d", c, v.Len(), b.N)
		}
		var f colFrame
		switch v.T {
		case Int64:
			f.base, f.width = codec.PackedFrame(v.I64)
			size += codec.PackedSize(b.N, f.base, f.width)
		case Float64:
			size += 8 * b.N
		case String:
			lo, hi := len(v.Str[0]), len(v.Str[0])
			for _, x := range v.Str {
				lo, hi = min(lo, len(x)), max(hi, len(x))
				f.raw += len(x)
			}
			f.base, f.width = int64(lo), bits.Len(uint(hi-lo))
			size += codec.PackedSize(b.N, f.base, f.width) + uvarintLen(uint64(f.raw)) + f.raw
			strs = strs || f.raw > 0
		}
		size++ // the tag
		e.frames = append(e.frames, f)
	}
	flated := strs && minCompress >= 0 && size >= minCompress
	flags := byte(0)
	if flated {
		flags = flagFlate
	}
	dst = slices.Grow(dst, 2+size)
	dst = append(dst, batchVersion, flags)
	dst = binary.AppendUvarint(dst, uint64(b.N))
	dst = binary.AppendUvarint(dst, uint64(arity))
	for c, f := range e.frames {
		v := &b.Cols[c]
		dst = append(dst, byte(v.T))
		switch v.T {
		case Int64:
			dst = codec.AppendPacked(dst, v.I64, f.base, f.width)
		case Float64:
			for _, x := range v.F64 {
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
			}
		case String:
			var lens []int64 // none to pack at width 0
			if f.width > 0 {
				lens = e.lengths(v.Str)
			}
			dst = codec.AppendPacked(dst, lens, f.base, f.width)
			dst = binary.AppendUvarint(dst, uint64(f.raw))
			if f.raw == 0 {
				break
			}
			if !flated {
				for _, x := range v.Str {
					dst = append(dst, x...)
				}
				break
			}
			var err error
			if dst, err = e.appendFlated(dst, v.Str); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// colFrame is what the encoder's first pass learns of a column: the packed
// frame of its ints or string lengths, and a string column's byte count.
type colFrame struct {
	base  int64
	width int
	raw   int
}

// batchEncoder is an encode's scratch. flate writers are expensive to
// construct (~tens of KB of window state), so they are reused across
// batches with the rest.
type batchEncoder struct {
	frames []colFrame
	lens   []int64
	raw    []byte       // a string column's bytes, back to back
	z      bytes.Buffer // their flate stream
	fw     *flate.Writer
}

var batchEncoderPool = sync.Pool{
	New: func() any {
		fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level
		}
		return &batchEncoder{fw: fw}
	},
}

// release returns the scratch to its pool, less any buffer grown past
// maxPooledScratch bytes.
func (e *batchEncoder) release() {
	if cap(e.raw) > maxPooledScratch || e.z.Cap() > maxPooledScratch {
		e.raw, e.z = nil, bytes.Buffer{}
	}
	if cap(e.lens)*8 > maxPooledScratch {
		e.lens = nil
	}
	batchEncoderPool.Put(e)
}

// lengths returns the lengths of strs, in the encoder's scratch.
func (e *batchEncoder) lengths(strs []string) []int64 {
	e.lens = e.lens[:0]
	for _, s := range strs {
		e.lens = append(e.lens, int64(len(s)))
	}
	return e.lens
}

// appendFlated appends a string column's bytes as a flated part: the stream's
// length, then the stream. If compression did not help (e.g. random
// strings) we keep it anyway: framing simplicity beats the rare byte
// savings.
func (e *batchEncoder) appendFlated(dst []byte, strs []string) ([]byte, error) {
	e.raw = e.raw[:0]
	for _, s := range strs {
		e.raw = append(e.raw, s...)
	}
	e.z.Reset()
	e.fw.Reset(&e.z)
	if _, err := e.fw.Write(e.raw); err != nil {
		return nil, fmt.Errorf("tuple: compress batch: %w", err)
	}
	if err := e.fw.Close(); err != nil {
		return nil, fmt.Errorf("tuple: compress batch: %w", err)
	}
	return codec.AppendBytes(dst, e.z.Bytes()), nil
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// IsValidType reports whether t is a known column type.
func (t Type) IsValidType() bool { return t >= Int64 && t <= String }

// Decompression reuses its state: a flate reader (its window and Huffman
// tables) comes from a pool, so inflating a column costs its bytes, not a
// fresh ~40 KiB reader.

// flateReader is a pooled decompressor with the source it reads from.
type flateReader struct {
	src bytes.Reader
	fr  io.ReadCloser
	one [1]byte // a read past the declared count
}

var flateReaderPool = sync.Pool{
	New: func() any {
		r := &flateReader{}
		r.fr = flate.NewReader(&r.src)
		return r
	},
}

// inflate inflates the flate stream src into dst, which it must fill
// exactly: a stream that ends short of len(dst) or runs past it is refused.
func inflate(dst, src []byte) error {
	r := flateReaderPool.Get().(*flateReader)
	defer flateReaderPool.Put(r)
	r.src.Reset(src)
	if err := r.fr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return fmt.Errorf("decompress string bytes: %w", err)
	}
	if _, err := io.ReadFull(r.fr, dst); err != nil {
		return fmt.Errorf("decompress %d string bytes: %w", len(dst), err)
	}
	switch n, err := r.fr.Read(r.one[:]); {
	case n > 0:
		return fmt.Errorf("string bytes decompress past their count %d", len(dst))
	case err != io.EOF:
		return fmt.Errorf("decompress %d string bytes: %w", len(dst), err)
	}
	return nil
}

// bytesPool recycles the buffer a check inflates string bytes into; one
// past maxPooledScratch bytes is left to the collector rather than pinned in
// the pool.
var bytesPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledScratch = 1 << 20

// BatchBody is a wire batch opened once: its header checked and its
// row-count/arity prologue read and bounded. Check walks the values without
// building anything; DecodeInto builds vectors from them.
//
// Its dims are bounded before any decoder allocates nRows*arity slots: every
// column takes at least minColumnBytes, so an arity the payload cannot hold
// is refused, and rows and cells are capped (a constant column's rows take
// no bytes, so the payload cannot bound them; the caps keep products far
// from overflow). Each column is bounded by its own reader before anything
// is sized by n.
type BatchBody struct {
	body   []byte // past the dims
	rows   int
	arity  int
	flated bool
}

// OpenBatch opens an encoded batch (AppendBatchCols output).
func OpenBatch(data []byte) (BatchBody, error) {
	r := codec.NewReader(data)
	version, flags := r.U8(), r.U8()
	if r.Err() != nil {
		return BatchBody{}, errors.New("tuple: batch too short")
	}
	if version != batchVersion {
		return BatchBody{}, fmt.Errorf("tuple: unknown batch version %d", version)
	}
	rows, arity := r.Uvarint(), r.Uvarint()
	var err error
	switch {
	case r.Err() != nil:
		err = r.Done("tuple: batch dims")
	case flags&^flagFlate != 0:
		err = fmt.Errorf("tuple: unknown batch flags %#x", flags)
	case rows > maxBatchRows || arity > 1<<16 || rows*arity > maxBatchCells:
		err = fmt.Errorf("tuple: implausible batch dims %d x %d", rows, arity)
	case rows > 0 && arity > uint64(len(data)-r.Pos())/minColumnBytes:
		err = fmt.Errorf("tuple: batch arity %d exceeds payload %dB", arity, len(data))
	}
	if err != nil {
		return BatchBody{}, err
	}
	return BatchBody{body: r.Rest(), rows: int(rows), arity: int(arity), flated: flags&flagFlate != 0}, nil
}

// Rows is the batch's row count.
func (bb *BatchBody) Rows() int { return bb.rows }

// Check walks every value without building anything and appends the
// column types to types (none for a batch with no rows). It is the walk
// DecodeInto and DecodeBatchAny make, with nowhere to put the values, so it
// accepts exactly what they accept (DecodeInto into an empty batch): flated
// string bytes are inflated, into a pooled buffer, and the rest is bounded.
func (bb *BatchBody) Check(types []Type) ([]Type, error) {
	d := dest{types: types}
	if err := bb.walk(&d); err != nil {
		return nil, err
	}
	return d.types, nil
}

// DecodeBatchAny decodes a wire batch straight into boxed []any rows —
// the client-side form. Row slices are carved from one backing slab, and
// each cell points into its column's slab (boxColumn), which nothing is
// sized for until every column has decoded.
func DecodeBatchAny(data []byte) ([][]any, error) {
	bb, err := OpenBatch(data)
	if err != nil {
		return nil, err
	}
	d := dest{box: true, slabs: make([]colSlab, bb.arity)}
	if err := bb.walk(&d); err != nil {
		return nil, err
	}
	rows := make([][]any, bb.rows)
	if bb.rows == 0 {
		return rows, nil
	}
	arity := bb.arity
	backing := make([]any, bb.rows*arity)
	for i := range rows {
		rows[i] = backing[i*arity : (i+1)*arity : (i+1)*arity]
	}
	for c, s := range d.slabs {
		switch {
		case s.i != nil:
			boxColumn(rows, c, s.i)
		case s.f != nil:
			boxColumn(rows, c, s.f)
		default:
			boxColumn(rows, c, s.s)
		}
	}
	return rows, nil
}

// DecodeBatchInto decodes a wire batch straight onto b's column vectors,
// appending its rows, for consumers that accumulate columnar state. A b with
// no columns yet adopts the payload's types; otherwise they must match
// positionally. On error b is restored to its prior row count. Returns the
// decoded row count.
//
// String values do not alias data, so the caller may reuse or discard the
// payload buffer afterwards: each string column's bytes are copied once, into
// one fresh string, and its values are substrings of it. A value kept past
// the batch therefore keeps its whole column's bytes alive; a holder that
// outlives the query copies them (Batch.Own).
func DecodeBatchInto(data []byte, b *Batch) (int, error) {
	bb, err := OpenBatch(data)
	if err != nil {
		return 0, err
	}
	return bb.DecodeInto(b)
}

// DecodeInto is DecodeBatchInto over an opened batch.
func (bb *BatchBody) DecodeInto(b *Batch) (int, error) {
	if bb.rows == 0 {
		return 0, nil
	}
	if len(b.Cols) == 0 && b.N == 0 {
		b.ResetTypes(make([]Type, bb.arity)) // the walk types them from the column tags
	} else if len(b.Cols) != bb.arity {
		return 0, fmt.Errorf("tuple: batch arity %d, accumulator arity %d", bb.arity, len(b.Cols))
	}
	start := b.N
	if err := bb.walk(&dest{b: b}); err != nil {
		b.Truncate(start)
		return 0, err
	}
	b.N += bb.rows
	return bb.rows, nil
}
