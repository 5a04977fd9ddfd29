package server

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// streamStub is a backend emitting scripted batches.
type streamStub struct {
	stubBackend
	cols    []string
	batches []*tuple.Batch
	tail    wire.QueryTail
	gate    chan struct{} // when set, received before each batch
}

// batchOf builds a batch from rows of one type signature.
func batchOf(rows ...tuple.Row) *tuple.Batch {
	b := &tuple.Batch{}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			panic(err)
		}
	}
	return b
}

func (b *streamStub) QueryStream(ctx context.Context, req *wire.QueryRequest, out ResultStream) (*wire.QueryTail, error) {
	out.Columns(b.cols)
	for _, batch := range b.batches {
		if b.gate != nil {
			select {
			case <-b.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err := out.StreamCols(batch); err != nil {
			return nil, err
		}
	}
	t := b.tail
	return &t, nil
}

func TestHelloNegotiation(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{StreamWindow: 6})
	h := dialRaw(t, s).hello(&wire.HelloRequest{Version: wire.ProtocolVersion, MaxFrame: 1 << 20, Window: 4})
	if h.Version != wire.ProtocolVersion {
		t.Fatalf("version %d", h.Version)
	}
	if h.MaxFrame != 1<<20 {
		t.Fatalf("max frame %d, want the client's lower 1MiB", h.MaxFrame)
	}
	if h.Window != 4 {
		t.Fatalf("window %d, want min(4, 6)", h.Window)
	}
	if h := dialRaw(t, s).hello(&wire.HelloRequest{Version: wire.ProtocolVersion, MaxFrame: 16}); h.MaxFrame != wire.MinFrame {
		t.Fatalf("max frame %d, want the %d floor", h.MaxFrame, wire.MinFrame)
	}
	// Hello is accounted like any op.
	if st := s.Stats(); st.Ops[wire.OpHello].Count != 2 {
		t.Fatalf("hello count %d", st.Ops[wire.OpHello].Count)
	}
}

// TestStreamedQueryFrames drives the full frame sequence against a
// scripted backend and checks shape, content, and IDs.
func TestStreamedQueryFrames(t *testing.T) {
	rows := func(lo, hi int) []tuple.Row {
		var out []tuple.Row
		for i := lo; i < hi; i++ {
			out = append(out, tuple.Row{tuple.I(int64(i)), tuple.S("v")})
		}
		return out
	}
	stub := &streamStub{
		cols:    []string{"a", "b"},
		batches: []*tuple.Batch{batchOf(rows(0, 10)...), batchOf(rows(10, 25)...)},
		tail:    wire.QueryTail{Epoch: 42, Phases: 1},
	}
	conn := dialTest(t, startTestServer(t, stub, Config{}))
	const reqID = 777
	conn.query(reqID, "q")
	kind, payload := conn.frame()
	if kind != wire.FrameSchema {
		t.Fatalf("first frame %v, want schema", kind)
	}
	id, cols, err := wire.DecodeSchemaPayload(payload)
	if err != nil || id != reqID {
		t.Fatalf("schema: id=%d err=%v", id, err)
	}
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("cols %v", cols)
	}
	r := conn.await(reqID)
	if r.end.Error != nil || r.end.Epoch != 42 || r.end.Rows != 25 {
		t.Fatalf("end: %+v", r.end)
	}
	if len(r.rows) != 25 {
		t.Fatalf("streamed %d rows, want 25", len(r.rows))
	}
	for i, row := range r.rows {
		if row[0].I64 != int64(i) || row[1].Str != "v" {
			t.Fatalf("row %d: %v", i, row)
		}
	}
}

// TestStreamCreditBackpressure negotiates a window of 1 and shows (a)
// the server stalls after one un-acknowledged batch, (b) other requests
// still interleave on the connection mid-stream, and (c) credits resume
// the stream to completion.
func TestStreamCreditBackpressure(t *testing.T) {
	big := make([]tuple.Row, 2000)
	for i := range big {
		big[i] = tuple.Row{tuple.I(int64(i)), tuple.S("padpadpadpadpadpadpadpad")}
	}
	stub := &streamStub{
		cols:    []string{"a", "b"},
		batches: []*tuple.Batch{batchOf(big[:700]...), batchOf(big[700:1400]...), batchOf(big[1400:]...)},
	}
	conn := dialRaw(t, startTestServer(t, stub, Config{}))
	// Negotiate a small frame cap so the byte target (maxFrame/4 = 16KiB)
	// cuts the ~70KiB result into several wire batches; window 1 then
	// stalls the stream after each un-credited batch.
	if h := conn.hello(&wire.HelloRequest{Version: wire.ProtocolVersion, Window: 1, MaxFrame: 64 << 10}); h.Window != 1 {
		t.Fatalf("window %d", h.Window)
	}
	const reqID = 9
	conn.query(reqID, "q")
	// Schema, then exactly one batch; the server now owes us nothing
	// until we grant credit.
	if kind, _ := conn.frame(); kind != wire.FrameSchema {
		t.Fatalf("kind=%v", kind)
	}
	kind, payload := conn.frame()
	if kind != wire.FrameBatch {
		t.Fatalf("kind=%v", kind)
	}
	_, rows1, err := decodeBatchPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: a ping mid-stream gets its response while the stream
	// is stalled on credit.
	conn.send(&wire.Request{ID: 10, Op: wire.OpPing})
	if r := conn.next(); r.id != 10 || r.err() != nil {
		t.Fatalf("interleaved ping: %+v", r)
	}
	// Grant the first batch's credit; next() grants the rest.
	conn.sendFrame(wire.FrameCredit, wire.AppendCreditPayload(nil, reqID, 1))
	r := conn.await(reqID)
	if r.end.Error != nil || int(r.end.Rows) != len(big) || r.end.Batches < 3 {
		t.Fatalf("end: %+v", r.end)
	}
	if total := len(rows1) + len(r.rows); total != len(big) {
		t.Fatalf("streamed %d rows, want %d", total, len(big))
	}
}

// TestStreamBatchSignatureChange: consecutive batches with different type
// signatures are cut into separate, type-homogeneous frames — never
// co-batched or dropped — even when both would fit one frame.
func TestStreamBatchSignatureChange(t *testing.T) {
	batches := []*tuple.Batch{
		batchOf(tuple.Row{tuple.I(1)}, tuple.Row{tuple.I(2)}),
		batchOf(tuple.Row{tuple.S("s3")}),
		batchOf(tuple.Row{tuple.S("s4")}, tuple.Row{tuple.S("s5")}),
		batchOf(tuple.Row{tuple.F(6)}),
	}
	var want []tuple.Row
	for _, b := range batches {
		want = append(want, b.Rows()...)
	}
	stub := &streamStub{cols: []string{"x"}, batches: batches}
	conn := dialTest(t, startTestServer(t, stub, Config{StreamWindow: 64}))
	conn.query(1, "q")
	r := conn.await(1)
	if r.err() != nil {
		t.Fatalf("stream failed: %v", r.err())
	}
	// The opening frame is cut eagerly; the two string batches share one.
	if r.end.Batches != 3 {
		t.Fatalf("%d batch frames, want 3 (int | string | float)", r.end.Batches)
	}
	if len(r.rows) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(r.rows), len(want))
	}
	for i := range want {
		if !r.rows[i].Equal(want[i]) || r.rows[i][0].T != want[i][0].T {
			t.Fatalf("row %d: %v (type %v) != %v", i, r.rows[i], r.rows[i][0].T, want[i])
		}
	}
}

// TestInboundFrameTooLarge: the server reports frame_too_large before
// closing instead of silently dropping the connection.
func TestInboundFrameTooLarge(t *testing.T) {
	conn := dialTest(t, startTestServer(t, &stubBackend{}, Config{MaxFrame: wire.MinFrame}))
	conn.query(1, strings.Repeat("x", 2*wire.MinFrame))
	if r := conn.next(); r.err() == nil || r.err().Code != wire.CodeFrameTooLarge {
		t.Fatalf("got %+v, want frame_too_large", r.err())
	}
	// The connection is closed afterwards (framing lost).
	if _, _, err := wire.ReadRawFrame(conn.br, wire.MaxFrame); err == nil {
		t.Fatal("connection survived unreadable frame")
	}
}

// TestStreamingPastFrameCap: a result far over the frame cap streams to
// completion, because only each batch frame is bounded.
func TestStreamingPastFrameCap(t *testing.T) {
	var rows []tuple.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, tuple.Row{tuple.I(int64(i)), tuple.S("pad pad pad pad pad pad")})
	}
	stub := &streamStub{cols: []string{"a", "b"}, batches: []*tuple.Batch{batchOf(rows...)}}
	conn := dialTest(t, startTestServer(t, stub, Config{MaxFrame: 16 << 10}))
	conn.query(2, "big")
	r := conn.await(2)
	if r.err() != nil || len(r.rows) != len(rows) {
		t.Fatalf("streamed %d rows, want %d (end %+v)", len(r.rows), len(rows), r.end)
	}
	if r.end.Batches < 4 {
		t.Fatalf("a %d-row result crossed a 16KiB frame cap in %d batches", len(rows), r.end.Batches)
	}
}

// TestStreamCancelFrame: a cancel frame stops server-side emission, the
// stream still terminates with a "cancelled" End frame, the admission
// slot is returned, and the connection remains usable for further
// requests.
func TestStreamCancelFrame(t *testing.T) {
	// Rows big enough that each backend batch crosses the writer's flush
	// threshold (256 KiB), so batch frames go out before stream end.
	pad := strings.Repeat("p", 400)
	big := make([]tuple.Row, 3000)
	for i := range big {
		big[i] = tuple.Row{tuple.I(int64(i)), tuple.S(pad)}
	}
	gate := make(chan struct{}, 1)
	stub := &streamStub{
		cols:    []string{"a", "b"},
		batches: []*tuple.Batch{batchOf(big[:1000]...), batchOf(big[1000:2000]...), batchOf(big[2000:]...)},
		gate:    gate,
	}
	s := startTestServer(t, stub, Config{StreamWindow: 1})
	conn := dialTest(t, s)

	const reqID = 11
	conn.query(reqID, "q")
	gate <- struct{}{} // release the first backend batch
	if kind, _ := conn.frame(); kind != wire.FrameSchema {
		t.Fatalf("first frame %v, want schema", kind)
	}
	// The first batch arrives; the window of 1 then stalls the writer
	// while the backend waits on its gate.
	kind, payload := conn.frame()
	if kind != wire.FrameBatch {
		t.Fatalf("second frame %v, want batch", kind)
	}
	if id, _, err := decodeBatchPayload(payload); err != nil || id != reqID {
		t.Fatalf("batch id=%d err=%v", id, err)
	}

	// Abandon the stream: no credits, just a cancel frame. Everything up
	// to End is drained; End must carry the cancelled code.
	conn.sendFrame(wire.FrameCancel, wire.AppendCancelPayload(nil, reqID))
	for kind == wire.FrameBatch { // batches in flight before the cancel landed
		kind, payload = conn.frame()
	}
	if kind != wire.FrameEnd {
		t.Fatalf("terminal frame %v, want end", kind)
	}
	id, end, err := wire.DecodeEndPayload(payload)
	if err != nil || id != reqID {
		t.Fatalf("end: id=%d err=%v", id, err)
	}
	if end.Error == nil || end.Error.Code != wire.CodeCancelled {
		t.Fatalf("end error %+v, want code %q", end.Error, wire.CodeCancelled)
	}

	// The admission slot came back.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().InFlightQueries != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight queries stuck at %d after cancel", s.Stats().InFlightQueries)
		}
		time.Sleep(time.Millisecond)
	}

	// The connection remains usable, and a cancel for an unknown stream is
	// ignored, not fatal.
	conn.send(&wire.Request{ID: 12, Op: wire.OpPing})
	conn.sendFrame(wire.FrameCancel, wire.AppendCancelPayload(nil, 9999))
	conn.send(&wire.Request{ID: 13, Op: wire.OpPing})
	for _, id := range []uint64{12, 13} {
		if r := conn.await(id); r.err() != nil {
			t.Fatalf("ping %d after cancel: %+v", id, r.err())
		}
	}
}

// TestProtocolConformance pins the session's reaction to every way a
// peer can depart from the protocol, and the two guarantees a
// well-formed peer relies on at its edges.
func TestProtocolConformance(t *testing.T) {
	rawHeader := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	jsonFrame := func(req *wire.Request) []byte {
		frame, err := wire.AppendJSONFrame(nil, req, wire.MaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	for _, tc := range []struct {
		name  string
		hello bool   // perform the handshake first
		bytes []byte // then write these
		code  string // the typed error that must come back before the close
	}{
		{"non-hello first frame", false, jsonFrame(&wire.Request{ID: 1, Op: wire.OpPing}), wire.CodeBadRequest},
		{"non-JSON first frame", false, append(rawHeader(9), append([]byte{byte(wire.FrameCancel)}, make([]byte, 8)...)...), wire.CodeBadRequest},
		{"wrong version", false, jsonFrame(&wire.Request{ID: 1, Op: wire.OpHello, Hello: &wire.HelloRequest{Version: wire.ProtocolVersion - 1}}), wire.CodeBadRequest},
		{"unknown frame kind", true, append(rawHeader(2), 0x7f, 0), wire.CodeBadRequest},
		{"server-only frame kind", true, append(rawHeader(9), append([]byte{byte(wire.FrameEnd)}, make([]byte, 8)...)...), wire.CodeBadRequest},
		{"empty frame", true, rawHeader(0), wire.CodeBadRequest},
		{"malformed JSON", true, append(rawHeader(2), byte(wire.FrameJSON), '{'), wire.CodeBadRequest},
		{"short credit frame", true, append(rawHeader(3), byte(wire.FrameCredit), 1, 2), wire.CodeBadRequest},
		{"oversize inbound frame", true, rawHeader(wire.MinFrame + 1), wire.CodeFrameTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startTestServer(t, &stubBackend{}, Config{MaxFrame: wire.MinFrame})
			conn := dialRaw(t, s)
			if tc.hello {
				conn.hello(&wire.HelloRequest{Version: wire.ProtocolVersion})
			}
			if _, err := conn.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			if r := conn.next(); r.err() == nil || r.err().Code != tc.code {
				t.Fatalf("got %+v, want %s", r.err(), tc.code)
			}
			if _, _, err := wire.ReadRawFrame(conn.br, wire.MaxFrame); err == nil {
				t.Fatal("connection survived a protocol violation")
			}
			// Only that session ended.
			dialTest(t, s).send(&wire.Request{ID: 2, Op: wire.OpPing})
		})
	}

	t.Run("duplicate stream id", func(t *testing.T) {
		// A second query reusing an active stream's ID is refused with an
		// error End frame (its frames would be un-demultiplexable), and
		// the first stream is unaffected.
		rows := []tuple.Row{{tuple.I(0)}, {tuple.I(1)}, {tuple.I(2)}, {tuple.I(3)}}
		gate := make(chan struct{})
		started := make(chan struct{})
		stub := &streamStub{cols: []string{"x"}, batches: []*tuple.Batch{batchOf(rows...)}, gate: gate}
		s := startTestServer(t, stub, Config{MaxConcurrentQueries: 4, OnQueryStart: func() { close(started) }})
		conn := dialTest(t, s)
		conn.query(5, "q")
		<-started // the first stream holds ID 5, parked before its batch
		conn.query(5, "q")
		kind, payload := conn.frame()
		if kind != wire.FrameEnd {
			t.Fatalf("kind=%v, want the refusal's End", kind)
		}
		if _, end, err := wire.DecodeEndPayload(payload); err != nil || end.Error == nil || end.Error.Code != wire.CodeBadRequest {
			t.Fatalf("end %+v err=%v, want bad_request", end, err)
		}
		close(gate)
		if r := conn.await(5); r.err() != nil || len(r.rows) != len(rows) {
			t.Fatalf("first stream: %d rows, end %+v", len(r.rows), r.end)
		}
	})

	t.Run("publish coercion and rejection", testPublishFrame)

	t.Run("zero-row query", func(t *testing.T) {
		// An empty answer still owes the client Schema, then End.
		stub := &streamStub{cols: []string{"a", "b"}, tail: wire.QueryTail{Epoch: 5}}
		conn := dialTest(t, startTestServer(t, stub, Config{}))
		conn.query(8, "q")
		if kind, _ := conn.frame(); kind != wire.FrameSchema {
			t.Fatalf("first frame %v, want schema", kind)
		}
		kind, payload := conn.frame()
		if kind != wire.FrameEnd {
			t.Fatalf("second frame %v, want end", kind)
		}
		if _, end, err := wire.DecodeEndPayload(payload); err != nil || end.Error != nil || end.Rows != 0 || end.Epoch != 5 {
			t.Fatalf("end %+v err=%v", end, err)
		}
	})
}
