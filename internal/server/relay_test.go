package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/engine"
	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// relayStub answers with the engine's relay hand-off: each block is offered
// encoded, and one the writer refuses is decoded and staged instead. Lead
// rows, when set, are staged ahead of the blocks.
type relayStub struct {
	stubBackend
	lead   []*tuple.Batch
	blocks [][]byte
}

func (b *relayStub) QueryStream(ctx context.Context, req *wire.QueryRequest, out ResultStream) (*wire.QueryTail, error) {
	out.Columns([]string{"k", "n"})
	for _, batch := range b.lead {
		if err := out.StreamCols(batch); err != nil {
			return nil, err
		}
	}
	fs := out.(engine.FrameSink)
	for _, blk := range b.blocks {
		var dec tuple.Batch
		n, err := tuple.DecodeBatchInto(blk, &dec)
		if err != nil {
			return nil, err
		}
		sent, err := fs.StreamEncoded(blk, n)
		if err != nil {
			return nil, err
		}
		if !sent {
			if err := out.StreamCols(&dec); err != nil {
				return nil, err
			}
		}
	}
	return &wire.QueryTail{}, nil
}

// relayBlock is a 1024-row block of barely compressible strings of width
// letters, flated, as a fragment ships it: about 11 KiB on the wire at
// width 16, and past the 256 KiB batch cut at width 500.
func relayBlock(t *testing.T, seed int64, width int) ([]byte, []tuple.Row) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Row, 1024)
	str := make([]byte, width)
	for i := range rows {
		for j := range str {
			str[j] = alphabet[rng.Intn(len(alphabet))]
		}
		rows[i] = tuple.Row{tuple.S(string(str)), tuple.I(int64(i))}
	}
	enc, err := tuple.AppendBatchCols(nil, rowBatch(t, rows), 256)
	if err != nil || !flated(enc) {
		t.Fatalf("block: flated=%v, %v", flated(enc), err)
	}
	return enc, rows
}

// flated reports whether an encoded batch's string bytes went through
// flate: it differs from the encode of its own rows with compression off.
func flated(enc []byte) bool {
	var b tuple.Batch
	if _, err := tuple.DecodeBatchInto(enc, &b); err != nil {
		return false
	}
	raw, err := tuple.AppendBatchCols(nil, &b, -1)
	return err == nil && !bytes.Equal(raw, enc)
}

// TestStreamEncodedFrames: the writer sends an encoded block as one batch
// frame of exactly its bytes, flated string bytes included, after the rows
// staged ahead of it, counted in the End frame, and refuses a block past
// the batch cut, which then arrives decoded and re-framed.
func TestStreamEncodedFrames(t *testing.T) {
	lead := []tuple.Row{{tuple.S("a"), tuple.I(-1)}, {tuple.S("b"), tuple.I(-2)}}
	for _, tc := range []struct {
		name    string
		width   int // of the blocks' strings
		relayed bool
	}{
		{name: "relayed", width: 16, relayed: true},
		{name: "frame budget below a block", width: 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blk1, rows1 := relayBlock(t, 1, tc.width)
			blk2, rows2 := relayBlock(t, 2, tc.width)
			if past := len(blk1) > streamBatchBytes && len(blk2) > streamBatchBytes; past == tc.relayed {
				t.Fatalf("blocks of %d and %d bytes against a %d-byte cut", len(blk1), len(blk2), streamBatchBytes)
			}
			stub := &relayStub{
				lead:   []*tuple.Batch{rowBatch(t, lead[:1]), rowBatch(t, lead[1:])},
				blocks: [][]byte{blk1, blk2},
			}
			want := append(append(append([]tuple.Row{}, lead...), rows1...), rows2...)
			conn := dialTest(t, startTestServer(t, stub, Config{}))
			conn.query(1, "q")
			var got []tuple.Row
			var frames [][]byte
			for {
				kind, payload := conn.frame()
				if kind == wire.FrameEnd {
					_, end, err := wire.DecodeEndPayload(payload)
					if err != nil || end.Error != nil || int(end.Rows) != len(want) || end.Batches != len(frames) {
						t.Fatalf("end %+v (%v) after %d frames, want %d rows", end, err, len(frames), len(want))
					}
					break
				}
				if kind != wire.FrameBatch {
					continue
				}
				conn.sendFrame(wire.FrameCredit, wire.AppendCreditPayload(nil, 1, 1))
				_, rows, err := decodeBatchPayload(payload)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rows...)
				frames = append(frames, payload[8:])
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("streamed %d rows, want %d in order", len(got), len(want))
			}
			relayed := 0
			for _, f := range frames {
				if bytes.Equal(f, blk1) || bytes.Equal(f, blk2) {
					relayed++
				}
			}
			if tc.relayed && (relayed != 2 || len(frames) != 4) {
				t.Fatalf("%d of %d frames are relayed blocks, want 2 of 4", relayed, len(frames))
			}
			if !tc.relayed && relayed != 0 {
				t.Fatalf("%d refused blocks were sent as they were", relayed)
			}
		})
	}
}
