package orchestra

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// wireAnswer is a served query as its frames arrived.
type wireAnswer struct {
	rows      [][]any
	frameRows []int // rows per batch frame, in order
	flated    []int // rows of each batch frame whose string bytes are flated
	plan      string
	cached    bool
}

// rawServedQuery runs sql over a raw protocol connection to addr, granting
// a credit per batch frame, so a test sees the frames themselves.
func rawServedQuery(t *testing.T, addr, sql string) *wireAnswer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	send := func(frame []byte, err error) {
		t.Helper()
		if err == nil {
			_, err = conn.Write(frame)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	send(wire.AppendJSONFrame(nil, &wire.Request{ID: 1, Op: wire.OpHello,
		Hello: &wire.HelloRequest{Version: wire.ProtocolVersion}}, wire.MaxFrame))
	if kind, _, err := wire.ReadRawFrame(br, wire.MaxFrame); err != nil || kind != wire.FrameJSON {
		t.Fatalf("hello: %v frame, %v", kind, err)
	}
	send(wire.AppendJSONFrame(nil, &wire.Request{ID: 2, Op: wire.OpQuery,
		Query: &wire.QueryRequest{SQL: sql, Explain: true}}, wire.MaxFrame))
	ans := &wireAnswer{rows: [][]any{}}
	for {
		kind, payload, err := wire.ReadRawFrame(br, wire.MaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case wire.FrameBatch:
			_, rows, err := wire.DecodeBatchPayloadAny(payload)
			if err != nil {
				t.Fatalf("batch frame: %v", err)
			}
			ans.rows = append(ans.rows, rows...)
			ans.frameRows = append(ans.frameRows, len(rows))
			if flatedBatch(payload[8:]) {
				ans.flated = append(ans.flated, len(rows))
			}
			send(wire.AppendBinaryFrame(nil, wire.FrameCredit, wire.AppendCreditPayload(nil, 2, 1), wire.MaxFrame))
		case wire.FrameEnd:
			_, end, err := wire.DecodeEndPayload(payload)
			if err != nil || end.Error != nil {
				t.Fatalf("%s: end %+v, %v", sql, end.Error, err)
			}
			if int(end.Rows) != len(ans.rows) || end.Batches != len(ans.frameRows) {
				t.Fatalf("%s: end counts %d rows in %d frames, %d rows in %d frames arrived",
					sql, end.Rows, end.Batches, len(ans.rows), len(ans.frameRows))
			}
			ans.plan, ans.cached = end.Plan, end.Cached
			return ans
		}
	}
}

// flatedBatch reports whether an encoded batch's string bytes went through
// flate: it differs from the encode of its own rows with compression off.
func flatedBatch(enc []byte) bool {
	var b tuple.Batch
	if _, err := tuple.DecodeBatchInto(enc, &b); err != nil {
		return false
	}
	raw, err := tuple.AppendBatchCols(nil, &b, -1)
	return err == nil && !bytes.Equal(raw, enc)
}

// sameAnswerAny compares a served answer with the embedded one as
// multisets.
func sameAnswerAny(t *testing.T, what string, got [][]any, want []tuple.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: served %d rows, embedded %d", what, len(got), len(want))
	}
	seen := make(map[string]int, len(want))
	for _, r := range want {
		vals := make([]any, len(r))
		for i, v := range r {
			switch v.T {
			case tuple.Int64:
				vals[i] = v.I64
			case tuple.Float64:
				vals[i] = v.F64
			default:
				vals[i] = v.Str
			}
		}
		seen[fmt.Sprint(vals...)]++
	}
	for _, r := range got {
		k := fmt.Sprint(r...)
		if seen[k]--; seen[k] < 0 {
			t.Fatalf("%s: served row %v is not in the embedded answer, or too often", what, r)
		}
	}
}

// TestServedRelayAnswers: a served stream of a plan that relays answers
// what the embedded (collected) query answers — for scans, selections,
// projections that reorder columns, all-int and all-string projections,
// and answers of 0, 1024 and 1025 rows — and a large answer arrives partly
// as the fragments' 1024-row blocks. A server whose frame budget is below
// one block refuses the blocks and still answers the same.
func TestServedRelayAnswers(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, NewSchema("load", "k:string", "grp:int", "v:int"))
	if _, err := c.PublishTyped(0, "load", typedRows(0, 9000)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT k, grp, v FROM load",
		"SELECT k, grp, v FROM load WHERE v >= 1500",
		"SELECT v, k, grp FROM load WHERE grp < 4",
		"SELECT v, grp FROM load",
		"SELECT k FROM load",
		"SELECT k, grp, v FROM load WHERE v < 0",
		"SELECT k, grp, v FROM load WHERE v < 1024",
		"SELECT k, grp, v FROM load WHERE v < 1025",
	}
	for _, cfg := range []struct {
		name string
		opts ServeOptions
	}{
		{"default", ServeOptions{}},
		{"frame budget below a block", ServeOptions{MaxFrame: wire.MinFrame}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			srv, err := c.Serve("127.0.0.1:0", cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for _, q := range queries {
				want := mustQuery(t, c, q)
				got := rawServedQuery(t, srv.Addr(), q)
				if !strings.Contains(got.plan, "ship=stream(relay)") {
					t.Fatalf("%s: plan %q does not relay", q, got.plan)
				}
				sameAnswerAny(t, q, got.rows, want.Rows)
				blocks := 0
				for _, n := range got.frameRows {
					if n == 1024 {
						blocks++
					}
				}
				switch {
				case cfg.opts.MaxFrame == 0 && len(got.rows) == 9000 && blocks == 0:
					t.Fatalf("%s: no frame is a relayed block: %v", q, got.frameRows)
				case cfg.opts.MaxFrame > 0 && blocks > 0:
					// A MinFrame budget (batches cut at 1 KiB) holds far fewer rows than a block.
					t.Fatalf("%s: %d blocks went out past the frame budget", q, blocks)
				}
			}
		})
	}
}
