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
// reuse them across batches. Readers are cheap but reusable too.
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

// batchBody validates the two header bytes and returns the (decompressed)
// body shared by the batch decoders.
func batchBody(data []byte) ([]byte, error) {
	if len(data) < 2 {
		return nil, errors.New("tuple: batch too short")
	}
	if data[0] != batchVersion {
		return nil, fmt.Errorf("tuple: unknown batch version %d", data[0])
	}
	flags := data[1]
	body := data[2:]
	if flags&flagCompressed != 0 {
		fr := flate.NewReader(bytes.NewReader(body))
		// Bound decompression before reading: flate expands up to ~1032x,
		// so a small malicious frame could otherwise balloon to tens of
		// GB before the dims guard below ever runs.
		decompressed, err := io.ReadAll(io.LimitReader(fr, maxBatchBody+1))
		if err != nil {
			return nil, fmt.Errorf("tuple: decompress batch: %w", err)
		}
		if len(decompressed) > maxBatchBody {
			return nil, fmt.Errorf("tuple: batch decompresses past %d bytes", maxBatchBody)
		}
		if err := fr.Close(); err != nil {
			return nil, fmt.Errorf("tuple: decompress batch: %w", err)
		}
		body = decompressed
	}
	return body, nil
}

// batchDims validates the header, decompresses the body, and reads +
// bounds-checks the row-count/arity prologue shared by the batch
// decoders; off points past the dims. A decompressed body bounds the
// values it can carry: every value costs at least one byte, so dims the
// payload cannot possibly hold are rejected before any decoder
// allocates nRows*arity slots, and zero-arity rows — which occupy no
// payload bytes and escape that bound — are capped separately (guards
// fuzzed/malicious headers; the dims caps keep products far from
// overflow).
func batchDims(data []byte) (body []byte, off, nRows, arity int, err error) {
	body, err = batchBody(data)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	r, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, 0, 0, 0, errors.New("tuple: bad uvarint in batch")
	}
	off = n
	a, n := binary.Uvarint(body[off:])
	if n <= 0 {
		return nil, 0, 0, 0, errors.New("tuple: bad uvarint in batch")
	}
	off += n
	if r > 1<<28 || a > 1<<16 {
		return nil, 0, 0, 0, fmt.Errorf("tuple: implausible batch dims %d x %d", r, a)
	}
	if a > 0 && r*a > uint64(len(body)) {
		return nil, 0, 0, 0, fmt.Errorf("tuple: batch dims %d x %d exceed payload %dB", r, a, len(body))
	}
	if a == 0 && r > maxZeroArityRows {
		return nil, 0, 0, 0, fmt.Errorf("tuple: %d zero-arity batch rows exceed limit", r)
	}
	return body, off, int(r), int(a), nil
}

// DecodeBatchAny decodes a wire batch straight into boxed []any rows —
// the client-side form.
// Row slices are carved from one backing slab.
func DecodeBatchAny(data []byte) ([][]any, error) {
	body, off, nRows, arity, err := batchDims(data)
	if err != nil {
		return nil, err
	}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, errors.New("tuple: bad uvarint in batch")
		}
		off += n
		return v, nil
	}
	rows := make([][]any, nRows)
	if nRows == 0 {
		return rows, nil
	}
	backing := make([]any, nRows*arity)
	for i := range rows {
		rows[i] = backing[i*arity : (i+1)*arity : (i+1)*arity]
	}
	for c := 0; c < arity; c++ {
		if off >= len(body) {
			return nil, errors.New("tuple: truncated batch column header")
		}
		t := Type(body[off])
		off++
		if !t.IsValidType() {
			return nil, fmt.Errorf("tuple: bad column type %d in batch", t)
		}
		for r := 0; r < nRows; r++ {
			switch t {
			case Int64:
				v, n := binary.Varint(body[off:])
				if n <= 0 {
					return nil, errors.New("tuple: bad varint in batch")
				}
				off += n
				rows[r][c] = v
			case Float64:
				if off+8 > len(body) {
					return nil, errors.New("tuple: truncated float in batch")
				}
				rows[r][c] = math.Float64frombits(binary.BigEndian.Uint64(body[off:]))
				off += 8
			case String:
				l, err := readUvarint()
				if err != nil {
					return nil, err
				}
				if l > uint64(len(body)-off) {
					return nil, errors.New("tuple: truncated string in batch")
				}
				rows[r][c] = string(body[off : off+int(l)])
				off += int(l)
			}
		}
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
	body, off, nRows, arity, err := batchDims(data)
	if err != nil {
		return 0, err
	}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, errors.New("tuple: bad uvarint in batch")
		}
		off += n
		return v, nil
	}
	if nRows == 0 {
		return 0, nil
	}
	if len(b.Cols) == 0 && b.N == 0 {
		types := make([]Type, arity)
		for i := range types {
			types[i] = Type(0) // fixed up below from the column headers
		}
		b.ResetTypes(types)
	} else if len(b.Cols) != arity {
		return 0, fmt.Errorf("tuple: batch arity %d, accumulator arity %d", arity, len(b.Cols))
	}
	start := b.N
	fail := func(err error) (int, error) {
		b.Truncate(start)
		return 0, err
	}
	for c := 0; c < arity; c++ {
		if off >= len(body) {
			return fail(errors.New("tuple: truncated batch column header"))
		}
		t := Type(body[off])
		off++
		if !t.IsValidType() {
			return fail(fmt.Errorf("tuple: bad column type %d in batch", t))
		}
		v := &b.Cols[c]
		if v.T == 0 && start == 0 {
			v.T = t
		} else if v.T != t {
			return fail(fmt.Errorf("tuple: batch column %d type %v, accumulator %v", c, t, v.T))
		}
		for r := 0; r < nRows; r++ {
			switch t {
			case Int64:
				x, n := binary.Varint(body[off:])
				if n <= 0 {
					return fail(errors.New("tuple: bad varint in batch"))
				}
				off += n
				v.I64 = append(v.I64, x)
			case Float64:
				if off+8 > len(body) {
					return fail(errors.New("tuple: truncated float in batch"))
				}
				v.F64 = append(v.F64, math.Float64frombits(binary.BigEndian.Uint64(body[off:])))
				off += 8
			case String:
				l, err := readUvarint()
				if err != nil {
					return fail(err)
				}
				if l > uint64(len(body)-off) {
					return fail(errors.New("tuple: truncated string in batch"))
				}
				v.Str = append(v.Str, string(body[off:off+int(l)]))
				off += int(l)
			}
		}
	}
	b.N += nRows
	return nRows, nil
}
