package server

import (
	"context"
	"testing"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// publishRecorder coerces publishes onto a fixed schema, as the real
// backends do, and captures what it was handed.
type publishRecorder struct {
	stubBackend
	schema   *tuple.Schema
	relation string
	pubID    uint64
	rows     []tuple.Row
}

func (b *publishRecorder) Publish(ctx context.Context, req *wire.PublishRequest) (tuple.Epoch, error) {
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
		payload, err := wire.AppendPublishPayload(nil, id, 1000+id, "inv", rowBatch(t, rows))
		if err != nil {
			t.Fatal(err)
		}
		conn.sendFrame(wire.FramePublish, payload)
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
		if r := publish(id, rows); r.err() == nil || r.err().Code != wire.CodeBadRequest {
			t.Fatalf("publish %d: %+v, want bad_request", id, r.err())
		}
	}
	conn.sendFrame(wire.FramePublish, wire.AppendCancelPayload(nil, 34))
	if r := conn.await(34); r.err() == nil || r.err().Code != wire.CodeBadRequest {
		t.Fatalf("malformed publish: %+v, want bad_request", r.err())
	}
	// The connection is still usable.
	conn.send(&wire.Request{ID: 35, Op: wire.OpPing})
	if r := conn.await(35); r.err() != nil {
		t.Fatalf("ping after rejected publishes: %+v", r.err())
	}
}
