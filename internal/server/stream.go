package server

// The server side of a result stream (the frame sequence is specified in
// internal/wire): the writer that stages a query's answer into batch
// frames under the stream's credit window.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// Where a stream cuts its batch frames. Every writer cuts the same, so a
// view entry's memo serves every hit.
const (
	// streamBatchBytes is the target encoded size of one batch frame
	// (pre-compression), far enough under wire.MaxFrame that incompressible
	// rows still fit.
	streamBatchBytes = 256 << 10
	// maxStreamBatchRows caps rows per batch frame so decode-side
	// allocations stay bounded regardless of row width.
	maxStreamBatchRows = 4096
)

// frameCap bounds every frame a session reads or writes: wire.MaxFrame.
// It is a variable only so that tests reach the refusals of a frame past
// the cap without building one of 64 MiB, and atomic so that a test may
// lower it while sessions of earlier tests still wind down.
var frameCap atomic.Int64

func init() { frameCap.Store(wire.MaxFrame) }

// frameBufPool recycles frame build buffers across requests and batches.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 8<<10)
		return &b
	},
}

// maxPooledFrameBuf bounds what returns to the pool: one huge frame must
// not permanently pin its capacity in every session.
const maxPooledFrameBuf = 1 << 20

func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) > maxPooledFrameBuf {
		return // let the outlier be collected
	}
	*b = (*b)[:0]
	frameBufPool.Put(b)
}

// --- server-side stream writer ---

// streamWriter emits one query's result stream over a session. It is the
// ResultStream backends (and, for plans that stream during execution,
// the engine's ship consumer) hand chunks to: the writer sends the schema
// frame before the first chunk — or at the end, for an empty answer —
// re-chunks into size-bounded, type-homogeneous wire batches, encodes
// each into a pooled buffer, and blocks for flow-control credit when the
// window is exhausted. Calls are serialized by the caller.
type streamWriter struct {
	ctx     context.Context
	sess    *session
	id      uint64
	credits chan uint64 // replenished by the session's read loop

	cols    []string // announced by Columns, sent by begin
	started bool     // schema frame sent
	avail   int      // send credits remaining
	rows    int64
	batches int

	// Time spent inside StreamCols, for the stream.write span:
	// a sum over calls (they interleave with execution on the streamed
	// path), with the first call's start as the span's origin.
	writeStart time.Time
	writeDur   time.Duration
	writeCalls int64

	// cancelled latches when a FrameCancel arrives; cancelFn (set by
	// dispatchStream before the stream registers) aborts the query
	// context so a running execution or a credit wait unblocks.
	cancelled atomic.Bool
	cancelFn  context.CancelFunc

	// onFirst (set by dispatchStream) fires once, after the first batch
	// frame reaches the session writer — the server's first-byte moment
	// for latency accounting.
	onFirst func()

	// pendCols stages rows toward the next batch frame; slice is the
	// scratch view used to carve spans off inbound batches.
	pendCols *tuple.Batch
	slice    tuple.Batch
	pendSize int          // size hint of pendCols
	sig      []tuple.Type // type signature of pendCols
	sigFixed int          // bytes per row when sig has no strings (else 0)

	// rec, while set, receives a copy of every batch body flushCols sends:
	// a view entry's memo being recorded (viewEntry.emit).
	rec *viewFrames
}

func newStreamWriter(ctx context.Context, sess *session, id uint64) *streamWriter {
	return &streamWriter{
		ctx:  ctx,
		sess: sess,
		id:   id,
		// Sized to the window: a well-behaved client never has more
		// un-drained credits in flight than un-acknowledged batches, so
		// nothing legitimate is ever dropped by credit().
		credits: make(chan uint64, wire.CreditWindow),
		avail:   wire.CreditWindow,
	}
}

// Columns implements ResultStream: records the result shape for the
// schema frame.
func (w *streamWriter) Columns(cols []string) { w.cols = cols }

// begin sends the schema frame if it has not gone out yet.
func (w *streamWriter) begin() error {
	if w.started {
		return nil
	}
	w.started = true
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	dst, mark := wire.BeginFrame((*buf)[:0], wire.FrameSchema)
	dst = wire.AppendSchemaPayload(dst, w.id, w.cols)
	dst, err := wire.FinishFrame(dst, mark, frameCap.Load())
	if err != nil {
		return err
	}
	*buf = dst[:0]
	return w.sess.write(dst)
}

// timeWrite accounts one emission call toward the stream.write span.
func (w *streamWriter) timeWrite(t0 time.Time) {
	if w.writeCalls == 0 {
		w.writeStart = t0
	}
	w.writeCalls++
	w.writeDur += time.Since(t0)
}

// stagingBatchPool recycles the columnar staging buffers across streams.
var stagingBatchPool = sync.Pool{New: func() any { return &tuple.Batch{} }}

// StreamCols implements ResultStream: stages a batch for emission,
// carving frame-sized spans straight off the column vectors — no row is
// materialized anywhere on this path. A batch whose type signature
// differs from the staged rows' starts a new frame (a wire batch is
// type-homogeneous). The batch is borrowed: the caller may reuse it once
// the call returns.
func (w *streamWriter) StreamCols(b *tuple.Batch) error {
	if b.N == 0 {
		return nil
	}
	defer w.timeWrite(time.Now())
	if err := w.begin(); err != nil {
		return err
	}
	if w.pendCols == nil {
		w.pendCols = stagingBatchPool.Get().(*tuple.Batch)
		w.pendCols.ResetTypes(nil)
	}
	types := b.Types()
	for i := 0; i < b.N; {
		if w.pendCols.N == 0 {
			w.setSigTypes(types)
		} else if !w.colSigMatches(types) {
			if err := w.flushCols(); err != nil {
				return err
			}
			w.setSigTypes(types)
		}
		j := i
		budget := streamBatchBytes - w.pendSize
		roomRows := maxStreamBatchRows - w.pendCols.N
		if fixed := w.sigFixed; fixed > 0 {
			// The row that crosses the target still goes into the batch,
			// mirroring the variable-width path's append-then-check cut.
			n := budget/fixed + 1
			if n > roomRows {
				n = roomRows
			}
			if j += n; j > b.N {
				j = b.N
			}
			w.pendSize += (j - i) * fixed
		} else {
			for j < b.N && budget > 0 && j-i < roomRows {
				h := w.colRowSizeHint(b, j)
				w.pendSize += h
				budget -= h
				j++
			}
		}
		if j > i {
			b.Slice(i, j, &w.slice)
			if err := w.pendCols.AppendBatchInto(&w.slice); err != nil {
				return err
			}
		}
		i = j
		if w.pendSize >= streamBatchBytes || w.pendCols.N >= maxStreamBatchRows || i < b.N {
			if err := w.flushCols(); err != nil {
				return err
			}
		}
	}
	// The opening frame is cut at the first emission boundary rather than
	// held for a full target-size batch: time-to-first-byte matters more
	// than frame efficiency for the first frame, and a streamed backend's
	// first chunk may otherwise sit staged while the scan fills the target.
	// Steady-state frames keep the streamBatchBytes/maxStreamBatchRows cut.
	if w.batches == 0 && w.pendCols != nil && w.pendCols.N > 0 {
		return w.flushCols()
	}
	return nil
}

// StreamEncoded implements engine.FrameSink: a block a fragment encoded
// (tuple.AppendBatchCols layout, checked by the engine) goes out as one
// batch frame, its bytes as they are (writeEncoded). It refuses — false,
// nothing sent — a batch past the batch cut; the engine decodes that and
// hands it to StreamCols. A block's flated string bytes go out as they are
// even when the server never compresses: that setting saves the server's CPU,
// and the fragment that encoded the block has already spent it.
func (w *streamWriter) StreamEncoded(batch []byte, rows int) (bool, error) {
	if len(batch) > streamBatchBytes {
		return false, nil
	}
	defer w.timeWrite(time.Now())
	err := w.writeEncoded(batch, rows)
	return err == nil, err
}

// writeFrames sends a view memo's bodies, each as writeEncoded sends one.
func (w *streamWriter) writeFrames(m *viewFrames) error {
	defer w.timeWrite(time.Now())
	for _, f := range m.frames {
		if err := w.writeEncoded(f.body, f.rows); err != nil {
			return err
		}
	}
	return nil
}

// writeEncoded sends one encoded batch body as a batch frame. Staged rows
// are flushed ahead of it, and it waits for credit, counts toward the End
// frame's totals and honours a cancel like any frame.
func (w *streamWriter) writeEncoded(body []byte, rows int) error {
	if err := w.begin(); err != nil {
		return err
	}
	if err := w.flushCols(); err != nil { // cancelled: errStreamCancelled
		return err
	}
	if err := w.waitCredit(); err != nil {
		return err
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	dst, mark := wire.BeginFrame((*buf)[:0], wire.FrameBatch)
	dst = binary.BigEndian.AppendUint64(dst, w.id)
	dst, err := wire.FinishFrame(append(dst, body...), mark, frameCap.Load())
	if err != nil {
		return err
	}
	w.rows += int64(rows)
	w.batches++
	*buf = dst[:0]
	return w.writeBatchFrame(dst)
}

// setSigTypes records the type signature (and fixed row width, when no
// string column exists) of the batch about to be staged. Strings use
// per-row hints (colRowSizeHint).
func (w *streamWriter) setSigTypes(types []tuple.Type) {
	w.pendCols.ResetTypes(types) // empty here: first use, or just flushed
	w.sig = append(w.sig[:0], types...)
	fixed, variable := 0, false
	for _, t := range types {
		switch t {
		case tuple.Int64:
			fixed += 5
		case tuple.Float64:
			fixed += 8
		default:
			variable = true
		}
	}
	if variable {
		fixed = 0
	}
	w.sigFixed = fixed
}

// colSigMatches reports whether the inbound batch's types match the
// staged signature.
func (w *streamWriter) colSigMatches(types []tuple.Type) bool {
	if len(types) != len(w.sig) {
		return false
	}
	for i, t := range types {
		if t != w.sig[i] {
			return false
		}
	}
	return true
}

// colRowSizeHint estimates row i's encoded size from the column vectors.
func (w *streamWriter) colRowSizeHint(b *tuple.Batch, i int) int {
	n := 0
	for c := range b.Cols {
		switch b.Cols[c].T {
		case tuple.Int64:
			n += 5
		case tuple.Float64:
			n += 8
		case tuple.String:
			n += len(b.Cols[c].Str[i]) + 2
		}
	}
	return n
}

// flushCols encodes and sends the staged rows as one batch frame, straight
// from the vectors, waiting for a flow-control credit first.
func (w *streamWriter) flushCols() error {
	if w.cancelled.Load() {
		if w.pendCols != nil {
			w.pendCols.Truncate(0)
		}
		w.pendSize = 0
		return errStreamCancelled
	}
	if w.pendCols == nil || w.pendCols.N == 0 {
		return nil
	}
	if err := w.waitCredit(); err != nil {
		return err
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	dst, mark := wire.BeginFrame((*buf)[:0], wire.FrameBatch)
	dst = binary.BigEndian.AppendUint64(dst, w.id)
	body := len(dst)
	dst, err := tuple.AppendBatchCols(dst, w.pendCols, wire.CompressMin)
	if err != nil {
		return err
	}
	dst, err = wire.FinishFrame(dst, mark, frameCap.Load())
	if err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.frames = append(w.rec.frames, viewFrame{body: append([]byte(nil), dst[body:]...), rows: w.pendCols.N})
	}
	w.rows += int64(w.pendCols.N)
	w.batches++
	w.pendCols.Truncate(0)
	w.pendSize = 0
	*buf = dst[:0]
	return w.writeBatchFrame(dst)
}

// releaseStaging returns the columnar staging buffer to the pool (the
// stream has ended; nothing further will be staged).
func (w *streamWriter) releaseStaging() {
	if w.pendCols != nil {
		w.pendCols.Truncate(0)
		w.pendCols.ClearStrings() // don't pin result strings while pooled
		stagingBatchPool.Put(w.pendCols)
		w.pendCols = nil
	}
}

// errStreamCancelled aborts emission after a client cancel; dispatch
// maps it onto the "cancelled" End code.
var errStreamCancelled = errors.New("server: stream cancelled by client")

// cancelReq handles an inbound FrameCancel: further emission is dropped
// and the query context aborts (stopping execution or a credit wait).
func (w *streamWriter) cancelReq() {
	w.cancelled.Store(true)
	if w.cancelFn != nil {
		w.cancelFn()
	}
}

// writeBatchFrame sends one encoded batch frame and fires the first-batch
// hook once the first frame has actually reached the session writer.
func (w *streamWriter) writeBatchFrame(dst []byte) error {
	if err := w.sess.write(dst); err != nil {
		return err
	}
	if w.onFirst != nil {
		w.onFirst()
		w.onFirst = nil
	}
	return nil
}

// RowsStaged reports how many result rows the writer has accepted so far
// — flushed frames plus rows still staged toward the next one. Exact at
// any point where the backend is not mid-call (the dispatcher reads it
// after the backend returns, before the final flush in end()).
func (w *streamWriter) RowsStaged() int64 {
	n := w.rows
	if w.pendCols != nil {
		n += int64(w.pendCols.N)
	}
	return n
}

// waitCredit consumes one send credit, blocking on the client when the
// window is exhausted. Bounded by the request context (so an abandoned
// stream times out) and the session lifetime (so a dead connection
// unblocks immediately).
func (w *streamWriter) waitCredit() error {
	for w.avail <= 0 {
		select {
		case n := <-w.credits:
			w.avail += int(n)
		case <-w.ctx.Done():
			return wire.Errorf(wire.CodeTimeout, "stream stalled awaiting credit: %v", w.ctx.Err())
		case <-w.sess.ctx.Done():
			return errors.New("server: session closed mid-stream")
		}
	}
	// Drain any credits that arrived while we were sending.
	for {
		select {
		case n := <-w.credits:
			w.avail += int(n)
		default:
			w.avail--
			return nil
		}
	}
}

// end flushes pending rows and sends the terminal frame; a successful
// stream that never emitted a chunk gets its schema frame here. When the
// stream failed before producing its schema frame, the End frame is the
// first and only frame — clients handle End-before-Schema.
//
// beforeEnd (optional) runs after the final flush, with the stream's final
// outcome, but before the End frame is written: the dispatcher unregisters
// the stream and counts the op there, so by the time a client sees End —
// and may immediately reuse the request ID on its next query, or ask for
// status — the ID is already free and the query already counted. (Doing
// either after the write raced exactly that.)
func (w *streamWriter) end(tail *wire.StreamEnd, beforeEnd func(failed bool)) error {
	if tail.Error == nil {
		err := w.begin()
		if err == nil {
			err = w.flushCols()
		}
		if err != nil {
			if errors.Is(err, errStreamCancelled) {
				tail = &wire.StreamEnd{Error: wire.Errorf(wire.CodeCancelled, "stream cancelled by client")}
			} else {
				// Credit starvation or encode failure: degrade to an error end.
				tail = &wire.StreamEnd{Error: toWireError(w.ctx, err)}
			}
		}
	}
	w.releaseStaging()
	if beforeEnd != nil {
		beforeEnd(tail.Error != nil)
	}
	tail.Rows = w.rows
	tail.Batches = w.batches
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	dst, mark := wire.BeginFrame((*buf)[:0], wire.FrameEnd)
	dst = binary.BigEndian.AppendUint64(dst, w.id)
	body, err := json.Marshal(tail)
	if err != nil {
		return err
	}
	dst, err = wire.FinishFrame(append(dst, body...), mark, frameCap.Load())
	if err != nil {
		return err
	}
	*buf = dst[:0]
	return w.sess.write(dst)
}

// credit is called by the session read loop when a FrameCredit arrives.
func (w *streamWriter) credit(n uint64) {
	select {
	case w.credits <- n:
	default:
		// Window is bounded; a client flooding credits beyond the buffer
		// is misbehaving — dropping extras only ever slows its stream.
	}
}
