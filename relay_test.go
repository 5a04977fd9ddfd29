package orchestra

import (
	"bufio"
	"fmt"
	"math/rand"
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
	plan      string
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
			ans.plan = end.Plan
			return ans
		}
	}
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

// fatRows are n rows of fat(k, pad, v) whose pad is 500 bytes of a
// 64-letter alphabet at random: flate saves about a quarter, so a 1024-row
// block still encodes to about 380 KiB, past the stream writer's 256 KiB
// batch cut.
func fatRows(n int) []tuple.Row {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	rng := rand.New(rand.NewSource(1))
	pad := make([]byte, 500)
	rows := make([]tuple.Row, n)
	for i := range rows {
		for j := range pad {
			pad[j] = alphabet[rng.Intn(len(alphabet))]
		}
		rows[i] = tuple.Row{tuple.S(fmt.Sprintf("k%04d", i)), tuple.S(string(pad)), tuple.I(int64(i))}
	}
	return rows
}

// TestServedRelayAnswers: a served stream of a plan that relays answers
// what the embedded (collected) query answers — for scans, selections,
// projections that reorder columns, all-int and all-string projections,
// and answers of 0, 1024 and 1025 rows — and a large answer arrives partly
// as the fragments' 1024-row blocks. A block past the batch cut is refused
// by the writer, and its answer is still the same.
func TestServedRelayAnswers(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, NewSchema("load", "k:string", "grp:int", "v:int"))
	if _, err := c.PublishTyped(0, "load", typedRows(0, 9000)); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, c, NewSchema("fat", "k:string", "pad:string", "v:int"))
	if _, err := c.PublishTyped(0, "fat", fatRows(3000)); err != nil {
		t.Fatal(err)
	}
	srv, err := c.Serve("127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		name    string
		queries []string
		relayed bool // a whole answer of 9000 rows holds a relayed block
	}{
		{"default", []string{
			"SELECT k, grp, v FROM load",
			"SELECT k, grp, v FROM load WHERE v >= 1500",
			"SELECT v, k, grp FROM load WHERE grp < 4",
			"SELECT v, grp FROM load",
			"SELECT k FROM load",
			"SELECT k, grp, v FROM load WHERE v < 0",
			"SELECT k, grp, v FROM load WHERE v < 1024",
			"SELECT k, grp, v FROM load WHERE v < 1025",
		}, true},
		{"frame budget below a block", []string{
			"SELECT k, pad, v FROM fat",
			"SELECT pad, k FROM fat WHERE v >= 1000",
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, q := range tc.queries {
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
				case tc.relayed && len(got.rows) == 9000 && blocks == 0:
					t.Fatalf("%s: no frame is a relayed block: %v", q, got.frameRows)
				case !tc.relayed && blocks > 0:
					// Re-cut at 256 KiB, a frame holds about 500 of these rows.
					t.Fatalf("%s: %d blocks went out past the batch cut", q, blocks)
				}
			}
		})
	}
}
