package tuple

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"orchestra/internal/codec"
)

// Batch codec. The query processor batches tuples into blocks by destination,
// compresses them using lightweight Zip-based compression, and marshals them
// in a format that exploits their commonalities (§V-A). We marshal
// column-major — values of one attribute are adjacent, so flate's LZ77 window
// sees their shared prefixes/structure — and compress with compress/flate.
//
// The same format is the wire representation of streamed query results
// (internal/server): a batch is self-describing (row count, arity, per-column
// type tags), so the serving path ships engine rows without re-encoding them
// per value.

const (
	batchVersion   = 1
	flagCompressed = 0x01
	// maxBatchBody caps a batch's decompressed body — far above any
	// legitimate batch (wire batches are cut at ~256KiB), far below a
	// decompression bomb.
	maxBatchBody = 1 << 30
	// maxZeroArityRows bounds the row count of a zero-arity batch, whose
	// rows occupy no payload bytes and therefore escape the dims-vs-body
	// check (wire batches are cut at 4096 rows; this is generous).
	maxZeroArityRows = 1 << 20
)

// flate writers are expensive to construct (~tens of KB of window state);
// reuse them across batches.
var flateWriterPool = sync.Pool{
	New: func() any {
		fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level
		}
		return fw
	},
}

// compressBatchTail optionally flate-compresses the batch body appended
// after the two header bytes at mark. If compression did not help (e.g.
// random strings), we keep it anyway: framing simplicity beats the rare
// byte savings.
func compressBatchTail(body []byte, mark, minCompress int) ([]byte, error) {
	rawLen := len(body) - mark - 2
	if minCompress < 0 || rawLen < minCompress {
		return body, nil
	}
	var cbuf bytes.Buffer
	cbuf.Grow(rawLen / 2)
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(&cbuf)
	if _, err := fw.Write(body[mark+2:]); err != nil {
		flateWriterPool.Put(fw)
		return nil, fmt.Errorf("tuple: compress batch: %w", err)
	}
	if err := fw.Close(); err != nil {
		flateWriterPool.Put(fw)
		return nil, fmt.Errorf("tuple: compress batch: %w", err)
	}
	flateWriterPool.Put(fw)
	body = body[:mark+2]
	body[mark+1] = flagCompressed
	return append(body, cbuf.Bytes()...), nil
}

// Small append helpers of the batch encoder (colbatch.go).

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

func appendFloat64(dst []byte, f float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
	return append(dst, b[:]...)
}

// IsValidType reports whether t is a known column type.
func (t Type) IsValidType() bool { return t >= Int64 && t <= String }

// Decompression reuses its state too: a flate reader (its window and
// Huffman tables) and the buffer it inflates into come from pools, so a
// decoder's cost is the bytes it reads, not a fresh ~40 KiB reader and a
// buffer grown from nothing per batch.

// flateReader is a pooled decompressor with the source it reads from.
type flateReader struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var flateReaderPool = sync.Pool{
	New: func() any {
		r := &flateReader{}
		r.fr = flate.NewReader(&r.src)
		return r
	},
}

// bodyBufPool recycles decompressed bodies; one past maxPooledBody is left
// to the collector rather than pinned in the pool.
var bodyBufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// inflateBatch decompresses a batch body into a pooled buffer. The bound is
// checked as the body grows: flate expands up to ~1032x, so a small
// malicious frame could otherwise balloon to tens of GB before the dims
// guard ever runs.
func inflateBatch(src []byte) (*[]byte, error) {
	r := flateReaderPool.Get().(*flateReader)
	defer flateReaderPool.Put(r)
	r.src.Reset(src)
	if err := r.fr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return nil, fmt.Errorf("tuple: decompress batch: %w", err)
	}
	buf := bodyBufPool.Get().(*[]byte)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.fr.Read(b[len(b):min(cap(b), maxBatchBody+1)])
		b = b[:len(b)+n]
		*buf = b
		switch {
		case len(b) > maxBatchBody:
			err = fmt.Errorf("tuple: batch decompresses past %d bytes", maxBatchBody)
		case err == io.EOF:
			return buf, nil
		case err == nil:
			continue
		default:
			err = fmt.Errorf("tuple: decompress batch: %w", err)
		}
		putBodyBuf(buf)
		return nil, err
	}
}

func putBodyBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyBufPool.Put(buf)
	}
}

// BatchBody is a wire batch opened once: its header checked, its body
// decompressed (into a pooled buffer, when it was sent compressed) and its
// row-count/arity prologue read and bounds-checked. Check walks the values
// without building anything; DecodeInto builds vectors from them. A caller
// that opens a batch must Release it, after which nothing may read it.
//
// A decompressed body bounds the values it can carry: every value costs at
// least one byte, so dims the payload cannot possibly hold are refused
// before any decoder allocates nRows*arity slots, and zero-arity rows —
// which occupy no payload bytes and escape that bound — are capped
// separately (the dims caps keep products far from overflow).
type BatchBody struct {
	body  []byte
	buf   *[]byte // the pooled buffer body lives in; nil for a raw batch
	off   int     // past the dims
	rows  int
	arity int
}

// OpenBatch opens an encoded batch (AppendBatchCols output).
func OpenBatch(data []byte) (BatchBody, error) {
	h := codec.NewReader(data)
	version, flags := h.U8(), h.U8()
	switch {
	case h.Err() != nil:
		return BatchBody{}, errors.New("tuple: batch too short")
	case version != batchVersion:
		return BatchBody{}, fmt.Errorf("tuple: unknown batch version %d", version)
	}
	bb := BatchBody{body: h.Rest()}
	if flags&flagCompressed != 0 {
		buf, err := inflateBatch(bb.body)
		if err != nil {
			return BatchBody{}, err
		}
		bb.body, bb.buf = *buf, buf
	}
	r := codec.NewReader(bb.body)
	rows, arity := r.Uvarint(), r.Uvarint()
	var err error
	switch {
	case r.Err() != nil:
		err = r.Done("tuple: batch dims")
	case rows > 1<<28 || arity > 1<<16:
		err = fmt.Errorf("tuple: implausible batch dims %d x %d", rows, arity)
	case arity == 0 && rows > maxZeroArityRows:
		err = fmt.Errorf("tuple: %d zero-arity batch rows exceed limit", rows)
	case rows*arity > uint64(len(bb.body)-r.Pos()): // every value takes a byte
		err = fmt.Errorf("tuple: batch dims %d x %d exceed payload %dB", rows, arity, len(bb.body))
	}
	if err != nil {
		bb.Release()
		return BatchBody{}, err
	}
	bb.off, bb.rows, bb.arity = r.Pos(), int(rows), int(arity)
	return bb, nil
}

// BatchCompressed reports whether an encoded batch's body is flate
// compressed (false for anything too short to say).
func BatchCompressed(data []byte) bool { return len(data) >= 2 && data[1]&flagCompressed != 0 }

// Rows is the batch's row count.
func (bb *BatchBody) Rows() int { return bb.rows }

// Release returns the decompression buffer to its pool.
func (bb *BatchBody) Release() {
	if bb.buf != nil {
		*bb.buf = bb.body[:0]
		putBodyBuf(bb.buf)
	}
	*bb = BatchBody{}
}

// Check walks every value without building anything and appends the
// column types to types (none for a batch with no rows). It is the walk
// DecodeInto and DecodeBatchAny make, with nowhere to put the values, so it
// accepts exactly what they accept (DecodeInto into an empty batch).
func (bb *BatchBody) Check(types []Type) ([]Type, error) {
	d := dest{types: types}
	if err := bb.walk(&d); err != nil {
		return nil, err
	}
	return d.types, nil
}

// DecodeBatchAny decodes a wire batch straight into boxed []any rows —
// the client-side form. Row slices are carved from one backing slab.
func DecodeBatchAny(data []byte) ([][]any, error) {
	bb, err := OpenBatch(data)
	if err != nil {
		return nil, err
	}
	defer bb.Release()
	rows := make([][]any, bb.rows)
	if bb.rows == 0 {
		return rows, nil
	}
	arity := bb.arity
	backing := make([]any, bb.rows*arity)
	for i := range rows {
		rows[i] = backing[i*arity : (i+1)*arity : (i+1)*arity]
	}
	if err := bb.walk(&dest{boxed: rows}); err != nil {
		return nil, err
	}
	return rows, nil
}

// DecodeBatchInto decodes a wire batch straight onto b's column vectors,
// appending its rows, for consumers that accumulate columnar state. A b with no columns yet adopts
// the payload's types; otherwise they must match positionally. On error b
// is restored to its prior row count. Returns the decoded row count.
//
// String values copy out of data (unlike DecodeRowCols), so the caller may
// reuse or discard the payload buffer afterwards.
func DecodeBatchInto(data []byte, b *Batch) (int, error) {
	bb, err := OpenBatch(data)
	if err != nil {
		return 0, err
	}
	defer bb.Release()
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
