package server

import (
	"encoding/hex"
	"slices"
	"testing"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// TestStreamGoldenBytes pins the frames (kind byte and payload) a stream
// writer sends for a small answer to the bytes the encoders wrote before
// the decoders moved onto codec.Reader, and reads each golden back through
// the client's decoder: a golden that changes means the writer drifted from
// the wire protocol. The batch frame carries a tuple batch, whose golden
// was regenerated when its layout became version 2 (protocol version 4).
// The payloads and the frame header alone are pinned in internal/wire.
func TestStreamGoldenBytes(t *testing.T) {
	rows := []tuple.Row{{tuple.S("k1"), tuple.I(-3), tuple.I(300), tuple.F(0.5)}, {tuple.S(""), tuple.I(0), tuple.I(1), tuple.F(-2)}}
	stream := sentFrames(t, func(w *streamWriter) error { return w.StreamCols(rowBatch(t, rows)) })
	if len(stream) != 3 {
		t.Fatalf("a two-row answer went out in %d frames, want schema, batch and end", len(stream))
	}
	want := map[string]string{
		"schema frame": "01000000000000000104016b016701690166",
		"batch frame": "0200000000000000010200020403000202026b310105020c0102092b01" +
			"00023fe0000000000000c000000000000000",
		"end frame": "0300000000000000017b22726f7773223a322c226261746368657322" +
			"3a317d",
	}
	for name, got := range map[string][]byte{
		"schema frame": stream[0],
		"batch frame":  stream[1],
		"end frame":    stream[2],
	} {
		if h := hex.EncodeToString(got); h != want[name] {
			t.Errorf("%s encodes to\n%s\nthe encoders wrote\n%s", name, h, want[name])
		}
	}

	// Each golden reads back through its decoder.
	golden := func(name string) []byte {
		p, err := hex.DecodeString(want[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
	if id, cols, err := wire.DecodeSchemaPayload(golden("schema frame")[1:]); err != nil || id != 1 || !slices.Equal(cols, benchCols) {
		t.Errorf("golden schema frame decodes to %d %v, %v", id, cols, err)
	}
	id, boxed, err := wire.DecodeBatchPayloadAny(golden("batch frame")[1:])
	if err != nil || id != 1 || len(boxed) != 2 || boxed[0][0] != "k1" || boxed[0][2] != int64(300) || boxed[1][3] != -2.0 {
		t.Errorf("golden batch frame decodes to %d %v, %v", id, boxed, err)
	}
	if id, end, err := wire.DecodeEndPayload(golden("end frame")[1:]); err != nil || id != 1 || end.Rows != 2 || end.Batches != 1 {
		t.Errorf("golden end frame decodes to %d %+v, %v", id, end, err)
	}
}
