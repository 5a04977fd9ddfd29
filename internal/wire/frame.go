package wire

// Result streams. A query is answered by the frame sequence
//
//	Schema(id, columns) Batch(id, rows)* End(id, tail|error)
//
// where each Batch carries a column-major tuple batch (tuple.AppendBatchCols
// format: row count, arity, per-column type tags, optional flate). A
// query that fails before producing rows is answered by its End frame
// alone. Frames of concurrent streams interleave freely on a connection —
// every frame carries its request ID. Backpressure is credit-based: the
// server may have at most CreditWindow un-acknowledged batch frames in
// flight per stream and the client returns one credit per batch it
// consumes (Credit frames), so a slow reader bounds server-side buffering
// at CreditWindow × batch size.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"orchestra/internal/codec"
	"orchestra/internal/obs"
	"orchestra/internal/tuple"
)

// FrameKind is the byte after a frame's length header; it tags the
// payload that follows.
type FrameKind byte

const (
	// FrameJSON is a JSON Request (client) or Response (server).
	FrameJSON FrameKind = 0
	// FrameSchema opens a result stream: request ID + column names.
	FrameSchema FrameKind = 1
	// FrameBatch carries one columnar row batch: request ID + batch.
	FrameBatch FrameKind = 2
	// FrameEnd closes a result stream: request ID + JSON StreamEnd.
	FrameEnd FrameKind = 3
	// FrameCredit grants stream flow-control credits: request ID + count.
	FrameCredit FrameKind = 4
	// FrameCancel abandons a result stream: request ID only. The server
	// stops emitting batches, releases the query's resources, and still
	// terminates the stream with an End frame (code "cancelled"), so the
	// connection remains usable. A cancel for an unknown or already-ended
	// stream is a no-op.
	FrameCancel FrameKind = 5
	// FramePublish carries one publish as a typed column-major batch:
	// request ID + publish ID + relation + tuple batch, answered with a
	// JSON Response.
	FramePublish FrameKind = 6
)

func (k FrameKind) String() string {
	switch k {
	case FrameJSON:
		return "json"
	case FrameSchema:
		return "schema"
	case FrameBatch:
		return "batch"
	case FrameEnd:
		return "end"
	case FrameCredit:
		return "credit"
	case FrameCancel:
		return "cancel"
	case FramePublish:
		return "publish"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// CompressMin is the raw batch size at which flate compression of string
// bytes kicks in, for result batches and publish frames alike; small
// batches are cheaper to send than to compress. A raw body counts ints
// packed to their spread, about three quarters of the bytes a row took
// when every value was a varint, so a few-hundred-row answer of the load
// relation reaches 2 KiB but not the 4 KiB this once was.
const CompressMin = 2 << 10

// StreamEnd is the JSON payload of a FrameEnd: the query's terminal
// status and provenance/epoch metadata (or its error).
type StreamEnd struct {
	Error *Error `json:"error,omitempty"`
	QueryTail
	// Rows and Batches summarize the stream for integrity checks.
	Rows    int64 `json:"rows,omitempty"`
	Batches int   `json:"batches,omitempty"`
}

// QueryTail is the terminal metadata of a query — everything about the
// answer except the rows themselves. The JSON tags are its wire form
// inside a StreamEnd frame.
type QueryTail struct {
	Epoch    uint64 `json:"epoch,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Phases   uint32 `json:"phases,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	Plan     string `json:"plan,omitempty"`
	// TraceID/Trace carry the query's span tree when tracing was
	// requested.
	TraceID string    `json:"trace_id,omitempty"`
	Trace   *obs.Span `json:"trace,omitempty"`
	// Streamed counts rows that were emitted to the stream *during*
	// execution (zero on the collect-then-emit path). Nonzero means the
	// query ran on the streaming pushdown path end to end.
	Streamed int64 `json:"streamed,omitempty"`
}

// --- raw frame I/O ---

// ReadRawFrame reads one frame and returns its kind and payload. A
// length above maxFrame returns a *FrameSizeError before anything is
// allocated; the connection cannot be re-synchronized afterwards.
func ReadRawFrame(r io.Reader, maxFrame int64) (FrameKind, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	h := codec.NewReader(hdr[:])
	n := h.U32()
	if int64(n) > maxFrame {
		return 0, nil, &FrameSizeError{Size: int64(n), Max: maxFrame}
	}
	if n == 0 {
		return 0, nil, ErrEmptyFrame
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return FrameKind(body[0]), body[1:], nil
}

// ErrEmptyFrame reports a frame with no kind byte.
var ErrEmptyFrame = errors.New("server: empty frame")

// FrameWireSize is the number of bytes a frame with this payload occupies
// on the wire (length header and kind byte included).
func FrameWireSize(payload []byte) int64 { return int64(5 + len(payload)) }

// BeginFrame appends a placeholder header + kind byte to dst and returns
// the extended slice plus the header offset for FinishFrame.
func BeginFrame(dst []byte, kind FrameKind) ([]byte, int) {
	mark := len(dst)
	return append(dst, 0, 0, 0, 0, byte(kind)), mark
}

// FinishFrame back-fills the length header begun at mark.
func FinishFrame(dst []byte, mark int, maxFrame int64) ([]byte, error) {
	n := len(dst) - mark - 4 // kind byte + payload
	if int64(n) > maxFrame {
		return nil, &FrameSizeError{Size: int64(n), Max: maxFrame}
	}
	binary.BigEndian.PutUint32(dst[mark:mark+4], uint32(n))
	return dst, nil
}

// AppendBinaryFrame appends one frame of the given kind carrying payload.
func AppendBinaryFrame(dst []byte, kind FrameKind, payload []byte, maxFrame int64) ([]byte, error) {
	dst, mark := BeginFrame(dst, kind)
	dst = append(dst, payload...)
	return FinishFrame(dst, mark, maxFrame)
}

// AppendJSONFrame appends a FrameJSON frame carrying v (a Request or a
// Response).
func AppendJSONFrame(dst []byte, v any, maxFrame int64) ([]byte, error) {
	dst, mark := BeginFrame(dst, FrameJSON)
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return FinishFrame(append(dst, body...), mark, maxFrame)
}

// --- stream frame payload codecs ---
//
// Every stream payload begins with the 8-byte big-endian request ID.

// AppendSchemaPayload encodes a FrameSchema payload.
func AppendSchemaPayload(dst []byte, id uint64, cols []string) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// DecodeSchemaPayload reverses AppendSchemaPayload.
func DecodeSchemaPayload(p []byte) (id uint64, cols []string, err error) {
	r := codec.NewReader(p)
	id = r.U64()
	// Count bounds the names by the bytes that back them (one each, for its
	// length); a batch's arity bound keeps the slice headers from
	// outweighing a large frame sixteen to one.
	n := r.Count(1)
	if n > 1<<16 {
		return 0, nil, fmt.Errorf("server: schema frame of %d columns", n)
	}
	cols = make([]string, 0, n)
	for range n {
		cols = append(cols, r.Str())
	}
	if err := r.Done("server: schema frame"); err != nil {
		return 0, nil, err
	}
	return id, cols, nil
}

// AppendCreditPayload encodes a FrameCredit payload granting n credits.
func AppendCreditPayload(dst []byte, id uint64, n int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	return binary.AppendUvarint(dst, uint64(n))
}

// DecodeCreditPayload reverses AppendCreditPayload.
func DecodeCreditPayload(p []byte) (id uint64, n int, err error) {
	r := codec.NewReader(p)
	id = r.U64()
	v := r.Uvarint()
	if err := r.Done("server: credit frame"); err != nil {
		return 0, 0, err
	}
	if v == 0 || v > 1<<20 {
		return 0, 0, fmt.Errorf("server: bad credit frame: %d credits", v)
	}
	return id, int(v), nil
}

// AppendCancelPayload encodes a FrameCancel payload.
func AppendCancelPayload(dst []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, id)
}

// AppendPublishPayload encodes a FramePublish payload: request ID, the
// publish idempotency ID (0 = none), relation name, and the rows as one
// column-major tuple batch, flate-compressed past the same threshold as
// result batches.
func AppendPublishPayload(dst []byte, id, pubID uint64, relation string, rows *tuple.Batch) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, pubID)
	dst = binary.AppendUvarint(dst, uint64(len(relation)))
	dst = append(dst, relation...)
	return tuple.AppendBatchCols(dst, rows, CompressMin)
}

// DecodePublishPayload reverses AppendPublishPayload. The rows come back
// boxed: the store keeps one record per tuple, so this is the edge where a
// published batch becomes rows.
func DecodePublishPayload(p []byte) (id, pubID uint64, relation string, rows []tuple.Row, err error) {
	r := codec.NewReader(p)
	id, pubID = r.U64(), r.U64()
	rel := r.Bytes()
	enc := r.Rest()
	if err := r.Done("server: publish frame"); err != nil {
		return 0, 0, "", nil, err
	}
	if len(rel) > tuple.MaxRelationNameLen {
		return 0, 0, "", nil, errors.New("server: bad publish frame relation")
	}
	var b tuple.Batch
	if _, err := tuple.DecodeBatchInto(enc, &b); err != nil {
		return 0, 0, "", nil, fmt.Errorf("server: bad publish frame batch: %w", err)
	}
	return id, pubID, string(rel), b.Rows(), nil
}

// splitStreamID splits the leading request ID off a stream payload of the
// kind what names.
func splitStreamID(p []byte, what string) (uint64, []byte, error) {
	r := codec.NewReader(p)
	id := r.U64()
	rest := r.Rest()
	return id, rest, r.Done(what)
}

// StreamFrameID reads the request ID of any stream frame payload.
func StreamFrameID(p []byte) (uint64, error) {
	id, _, err := splitStreamID(p, "server: stream frame")
	return id, err
}

// DecodeBatchPayloadAny decodes a FrameBatch payload straight into boxed
// []any rows — the client's consumption form.
func DecodeBatchPayloadAny(p []byte) (id uint64, rows [][]any, err error) {
	id, rest, err := splitStreamID(p, "server: batch frame")
	if err != nil {
		return 0, nil, err
	}
	rows, err = tuple.DecodeBatchAny(rest)
	return id, rows, err
}

// DecodeEndPayload decodes a FrameEnd payload.
func DecodeEndPayload(p []byte) (id uint64, end *StreamEnd, err error) {
	id, rest, err := splitStreamID(p, "server: end frame")
	if err != nil {
		return 0, nil, err
	}
	end = &StreamEnd{}
	if err := json.Unmarshal(rest, end); err != nil {
		return 0, nil, fmt.Errorf("server: bad end frame: %w", err)
	}
	return id, end, nil
}
