package server

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"orchestra/internal/tuple"
)

// colsStreamStub is a backend that emits columnar batches.
type colsStreamStub struct {
	stubBackend
	cols    []string
	batches []*tuple.Batch
	tail    QueryTail
}

func (b *colsStreamStub) QueryStream(ctx context.Context, req *QueryRequest, out ResultStream) (*QueryTail, error) {
	out.Columns(b.cols)
	for _, batch := range b.batches {
		if err := out.StreamCols(batch); err != nil {
			return nil, err
		}
	}
	t := b.tail
	return &t, nil
}

// identRows builds a deterministic mixed-width row set: int, float, and a
// string column whose lengths vary, so both the fixed-width and the
// per-row-hint cut paths run.
func identRows(n int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{
			tuple.I(int64(i * 7)),
			tuple.F(float64(i) / 3),
			tuple.S(fmt.Sprintf("value-%d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxx"[:i%29])),
		}
	}
	return rows
}

// identRowsFixed is the all-fixed-width variant (no string column).
func identRowsFixed(n int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.F(float64(i) * 1.5), tuple.I(int64(i % 3))}
	}
	return rows
}

func batchesOf(t *testing.T, rows []tuple.Row, sizes ...int) []*tuple.Batch {
	t.Helper()
	var out []*tuple.Batch
	lo := 0
	for _, n := range sizes {
		hi := lo + n
		if hi > len(rows) {
			hi = len(rows)
		}
		b := &tuple.Batch{}
		types := make([]tuple.Type, len(rows[0]))
		for i, v := range rows[0] {
			types[i] = v.T
		}
		b.ResetTypes(types)
		for _, r := range rows[lo:hi] {
			if err := b.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, b)
		lo = hi
	}
	if lo < len(rows) {
		t.Fatalf("sizes cover %d of %d rows", lo, len(rows))
	}
	return out
}

// capturedFrame is one raw frame read off a streamed query.
type capturedFrame struct {
	kind    FrameKind
	payload []byte
}

// captureStream runs one query against backend and returns every frame
// until (and including) End. window is made large enough that no credits
// are needed.
func captureStream(t *testing.T, backend Backend, reqID uint64) []capturedFrame {
	t.Helper()
	conn := dialRaw(t, startTestServer(t, backend, Config{MaxFrame: 64 << 10, StreamWindow: 4096}))
	conn.hello(&HelloRequest{Version: ProtocolVersion, Window: 4096})
	conn.query(reqID, "q")
	var frames []capturedFrame
	for {
		kind, payload := conn.frame()
		frames = append(frames, capturedFrame{kind, payload})
		if kind == FrameEnd {
			return frames
		}
	}
}

// TestStreamFramesRowVsBatchIdentical asserts the acceptance-critical
// property of the columnar wire path: for identical result content, the
// row-fed and batch-fed stream writers emit byte-identical frames —
// same chunk cuts, same encodings, same compression decisions.
func TestStreamFramesRowVsBatchIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows []tuple.Row
	}{
		{"variable-width", identRows(3000)},
		{"fixed-width", identRowsFixed(5000)},
		{"single-row", identRows(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const reqID = 4242
			rowStub := &streamStub{
				cols:    []string{"a", "b", "c"},
				batches: [][]tuple.Row{tc.rows[:len(tc.rows)/3], tc.rows[len(tc.rows)/3:]},
				tail:    QueryTail{Epoch: 9},
			}
			colStub := &colsStreamStub{
				cols:    []string{"a", "b", "c"},
				batches: batchesOf(t, tc.rows, len(tc.rows)/3, len(tc.rows)-len(tc.rows)/3),
				tail:    QueryTail{Epoch: 9},
			}
			rowFrames := captureStream(t, rowStub, reqID)
			colFrames := captureStream(t, colStub, reqID)
			if len(rowFrames) != len(colFrames) {
				t.Fatalf("row path emitted %d frames, batch path %d", len(rowFrames), len(colFrames))
			}
			if len(rowFrames) < 3 && tc.name != "single-row" {
				t.Fatalf("only %d frames: workload too small to exercise chunking", len(rowFrames))
			}
			for i := range rowFrames {
				if rowFrames[i].kind != colFrames[i].kind {
					t.Fatalf("frame %d: kind %v vs %v", i, rowFrames[i].kind, colFrames[i].kind)
				}
				if !bytes.Equal(rowFrames[i].payload, colFrames[i].payload) {
					t.Fatalf("frame %d (%v): payloads differ (%d vs %d bytes)",
						i, rowFrames[i].kind, len(rowFrames[i].payload), len(colFrames[i].payload))
				}
			}
		})
	}
}

// publishRecorder coerces publishes onto a fixed schema, as the real
// backends do, and captures what it was handed.
type publishRecorder struct {
	stubBackend
	schema   *tuple.Schema
	relation string
	pubID    uint64
	rows     []tuple.Row
}

func (b *publishRecorder) Publish(ctx context.Context, req *PublishRequest) (tuple.Epoch, error) {
	if err := CoerceTypedRows(b.schema, req.TypedRows); err != nil {
		return 0, err
	}
	b.relation, b.pubID, b.rows = req.Relation, req.PublishID, req.TypedRows
	return 7, nil
}

// testPublishFrame (a TestProtocolConformance case): a publish is one
// typed batch frame. Numeric columns are stored per the schema whichever
// numeric type the frame carried (a client sends a column mixing ints and
// floats as floats); a frame the schema cannot take, or one that does not
// decode, fails only its request.
func testPublishFrame(t *testing.T) {
	rec := &publishRecorder{schema: tuple.MustSchema("inv", []tuple.Column{
		{Name: "item", Type: tuple.String}, {Name: "qty", Type: tuple.Int64}, {Name: "price", Type: tuple.Float64},
	})}
	conn := dialTest(t, startTestServer(t, rec, Config{}))
	publish := func(id uint64, rows []tuple.Row) *reply {
		payload, err := AppendPublishPayload(nil, id, 1000+id, "inv", rows)
		if err != nil {
			t.Fatal(err)
		}
		conn.sendFrame(FramePublish, payload)
		return conn.await(id)
	}

	// qty arrives as integral floats (an int/float mix, widened), price as
	// ints: both land in the schema's types.
	r := publish(31, []tuple.Row{
		{tuple.S("bolt"), tuple.F(90), tuple.I(10)},
		{tuple.S("nut"), tuple.F(120), tuple.I(25)},
	})
	if r.err() != nil || r.resp.Epoch != 7 {
		t.Fatalf("publish response: %+v", r.resp)
	}
	if rec.relation != "inv" || rec.pubID != 1031 || len(rec.rows) != 2 {
		t.Fatalf("backend saw relation=%q pubID=%d rows=%v", rec.relation, rec.pubID, rec.rows)
	}
	if got := rec.rows[1]; !got.Equal(tuple.Row{tuple.S("nut"), tuple.I(120), tuple.F(25)}) || got[1].T != tuple.Int64 || got[2].T != tuple.Float64 {
		t.Fatalf("stored row %v, want it in the schema's types", got)
	}

	// A string in the int column, a fractional value in the int column,
	// and a frame with an ID but no relation or batch: bad_request each,
	// on the request's own ID.
	for id, rows := range map[uint64][]tuple.Row{
		32: {{tuple.S("bad"), tuple.S("not-an-int"), tuple.F(1)}},
		33: {{tuple.S("bad"), tuple.F(1.5), tuple.F(1)}},
	} {
		if r := publish(id, rows); r.err() == nil || r.err().Code != CodeBadRequest {
			t.Fatalf("publish %d: %+v, want bad_request", id, r.err())
		}
	}
	conn.sendFrame(FramePublish, AppendCancelPayload(nil, 34))
	if r := conn.await(34); r.err() == nil || r.err().Code != CodeBadRequest {
		t.Fatalf("malformed publish: %+v, want bad_request", r.err())
	}
	// The connection is still usable.
	conn.send(&Request{ID: 35, Op: OpPing})
	if r := conn.await(35); r.err() != nil {
		t.Fatalf("ping after rejected publishes: %+v", r.err())
	}
}
