package server

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
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

// TestHelloChecksOnlyVersion: the server answers a hello of its version
// with exactly {"version":5} (wire.TestHelloGoldenBytes pins both frames),
// and refuses a version-4 hello that still offers a frame cap and a
// window. Hello is accounted like any op.
func TestHelloChecksOnlyVersion(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	conn := dialRaw(t, s)
	conn.send(&wire.Request{ID: 1, Op: wire.OpHello, Hello: &wire.HelloRequest{Version: wire.ProtocolVersion}})
	if kind, payload := conn.frame(); kind != wire.FrameJSON || string(payload) != `{"id":1,"hello":{"version":5}}` {
		t.Fatalf("hello answered with a %v frame %s", kind, payload)
	}
	old := dialRaw(t, s)
	old.sendFrame(wire.FrameJSON, []byte(`{"id":1,"op":"hello","hello":{"version":4,"max_frame":65536,"window":4}}`))
	if r := old.next(); r.err() == nil || r.err().Code != wire.CodeBadRequest {
		t.Fatalf("a version-4 hello got %+v, want bad_request", r.resp)
	}
	if st := s.Stats().Ops[wire.OpHello]; st.Count != 2 || st.Errors != 1 {
		t.Fatalf("hello counted %d times, %d errors; want 2 and 1", st.Count, st.Errors)
	}
}

// windowStub answers with more batch frames than the credit window: one
// backend batch of rows (i, "v"), which the writer cuts at
// maxStreamBatchRows.
func windowStub() (*streamStub, int) {
	const frames = wire.CreditWindow + 2
	var rows []tuple.Row
	for i := 0; i < frames*maxStreamBatchRows; i++ {
		rows = append(rows, tuple.Row{tuple.I(int64(i)), tuple.S("v")})
	}
	return &streamStub{cols: []string{"a", "b"}, batches: []*tuple.Batch{batchOf(rows...)}, tail: wire.QueryTail{Epoch: 42, Phases: 1}}, frames
}

// readBatches reads n batch frames of stream id, granting no credit, and
// returns their rows.
func readBatches(t *testing.T, conn *testConn, id uint64, n int) []tuple.Row {
	t.Helper()
	var rows []tuple.Row
	for i := 0; i < n; i++ {
		kind, payload := conn.frame()
		if kind != wire.FrameBatch {
			t.Fatalf("frame %d: %v, want batch", i, kind)
		}
		got, part, err := decodeBatchPayload(payload)
		if err != nil || got != id {
			t.Fatalf("batch %d: id %d, %v", i, got, err)
		}
		rows = append(rows, part...)
	}
	return rows
}

// assertStalled checks that nothing arrives on conn for a while: the
// stream waits on credit.
func assertStalled(t *testing.T, conn *testConn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var ne net.Error
	if kind, _, err := wire.ReadRawFrame(conn.br, wire.MaxFrame); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("a %v frame (%v) arrived past the credit window of %d", kind, err, wire.CreditWindow)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
}

// TestStreamedQueryFrames drives the full frame sequence against a
// scripted backend whose answer takes more batch frames than the credit
// window: Schema, exactly wire.CreditWindow batches, a stall until credit
// arrives, then the rest and End, with IDs, shape and every row intact.
func TestStreamedQueryFrames(t *testing.T) {
	stub, frames := windowStub()
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
	rows := readBatches(t, conn, reqID, wire.CreditWindow)
	assertStalled(t, conn)
	conn.sendFrame(wire.FrameCredit, wire.AppendCreditPayload(nil, reqID, wire.CreditWindow))
	r := conn.await(reqID)
	want := stub.batches[0].N
	if r.end.Error != nil || r.end.Epoch != 42 || r.end.Rows != int64(want) || r.end.Batches != frames {
		t.Fatalf("end: %+v, want %d rows in %d frames", r.end, want, frames)
	}
	rows = append(rows, r.rows...)
	if len(rows) != want {
		t.Fatalf("streamed %d rows, want %d", len(rows), want)
	}
	for i, row := range rows {
		if row[0].I64 != int64(i) || row[1].Str != "v" {
			t.Fatalf("row %d: %v", i, row)
		}
	}
}

// TestStreamCreditBackpressure shows (a) the server stalls once a
// stream has a window of un-credited batches in flight, (b) other
// requests still interleave on the connection mid-stream, and (c)
// credits resume the stream to completion.
func TestStreamCreditBackpressure(t *testing.T) {
	stub, frames := windowStub()
	conn := dialTest(t, startTestServer(t, stub, Config{}))
	const reqID = 9
	conn.query(reqID, "q")
	if kind, _ := conn.frame(); kind != wire.FrameSchema {
		t.Fatalf("kind=%v", kind)
	}
	rows := readBatches(t, conn, reqID, wire.CreditWindow)
	// Interleave: a ping mid-stream gets its response while the stream
	// is stalled on credit — the response is the next frame.
	conn.send(&wire.Request{ID: 10, Op: wire.OpPing})
	if r := conn.next(); r.id != 10 || r.err() != nil {
		t.Fatalf("interleaved ping: %+v", r)
	}
	// Grant one credit at a time: each lets exactly one more batch out.
	conn.sendFrame(wire.FrameCredit, wire.AppendCreditPayload(nil, reqID, 1))
	rows = append(rows, readBatches(t, conn, reqID, 1)...)
	assertStalled(t, conn)
	conn.sendFrame(wire.FrameCredit, wire.AppendCreditPayload(nil, reqID, wire.CreditWindow))
	r := conn.await(reqID)
	if r.end.Error != nil || r.end.Batches != frames || len(rows)+len(r.rows) != stub.batches[0].N {
		t.Fatalf("end: %+v after %d rows", r.end, len(rows)+len(r.rows))
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
	conn := dialTest(t, startTestServer(t, stub, Config{}))
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
// closing instead of silently dropping the connection. A length header
// past wire.MaxFrame is refused before its body is read, so none is sent.
func TestInboundFrameTooLarge(t *testing.T) {
	conn := dialTest(t, startTestServer(t, &stubBackend{}, Config{}))
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if r := conn.next(); r.err() == nil || r.err().Code != wire.CodeFrameTooLarge {
		t.Fatalf("got %+v, want frame_too_large", r.err())
	}
	// The connection is closed afterwards (framing lost).
	if _, _, err := wire.ReadRawFrame(conn.br, wire.MaxFrame); err == nil {
		t.Fatal("connection survived unreadable frame")
	}
}

// TestStreamingPastFrameCap: a result many times a batch frame's size
// streams to completion in frames cut at streamBatchBytes, because the
// frame cap bounds each batch frame, never the result.
func TestStreamingPastFrameCap(t *testing.T) {
	pad := strings.Repeat("p", 400)
	var rows []tuple.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, tuple.Row{tuple.I(int64(i)), tuple.S(pad)})
	}
	stub := &streamStub{cols: []string{"a", "b"}, batches: []*tuple.Batch{batchOf(rows...)}}
	conn := dialTest(t, startTestServer(t, stub, Config{}))
	conn.query(2, "big")
	r := conn.await(2)
	if r.err() != nil || len(r.rows) != len(rows) {
		t.Fatalf("streamed %d rows, want %d (end %+v)", len(r.rows), len(rows), r.end)
	}
	if r.end.Batches < 4 {
		t.Fatalf("a %d-row result of about 1.2 MB crossed a %d-byte batch cut in %d batches", len(rows), streamBatchBytes, r.end.Batches)
	}
}

// TestEndFrameFallback: a stream whose End frame will not encode under the
// frame cap — here a plan longer than the cap — still ends, with a minimal
// frame_too_large End, and the connection stays usable.
func TestEndFrameFallback(t *testing.T) {
	stub := &streamStub{cols: []string{"a"}, batches: []*tuple.Batch{batchOf(tuple.Row{tuple.I(1)})}, tail: wire.QueryTail{Plan: strings.Repeat("p", 8<<10)}}
	lowerFrameCap(t, 4<<10)
	conn := dialTest(t, startTestServer(t, stub, Config{}))
	conn.query(1, "q")
	r := conn.await(1)
	if r.err() == nil || r.err().Code != wire.CodeFrameTooLarge || len(r.rows) != 1 {
		t.Fatalf("end %+v after %d rows, want frame_too_large after 1", r.end, len(r.rows))
	}
	conn.send(&wire.Request{ID: 2, Op: wire.OpPing})
	if r := conn.await(2); r.err() != nil {
		t.Fatalf("ping after the fallback: %v", r.err())
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
	s := startTestServer(t, stub, Config{})
	conn := dialTest(t, s)

	const reqID = 11
	conn.query(reqID, "q")
	gate <- struct{}{} // release the first backend batch
	if kind, _ := conn.frame(); kind != wire.FrameSchema {
		t.Fatalf("first frame %v, want schema", kind)
	}
	// The first batch arrives; the backend then waits on its gate.
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
		{"oversize inbound frame", true, rawHeader(wire.MaxFrame + 1), wire.CodeFrameTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startTestServer(t, &stubBackend{}, Config{})
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
