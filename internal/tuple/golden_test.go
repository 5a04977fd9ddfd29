package tuple

import (
	"encoding/hex"
	"slices"
	"testing"
)

// TestCodecGoldenBytes pins one encode of every tuple layout — a stored row,
// a batch raw and flate-compressed, a key and an ID — to the bytes the
// encoders wrote before the decoders moved onto codec.Reader, and reads each
// golden back through the decoders: stored records and peers' batches from
// before the move stay readable, and a golden that changes means an encoder
// drifted from the layout peers and stored records use.
func TestCodecGoldenBytes(t *testing.T) {
	s := MustSchema("R", []Column{{Name: "k", Type: String}, {Name: "n", Type: Int64}, {Name: "x", Type: Float64}}, "k", "n", "x")
	rows := []Row{{S("seven"), I(-7), F(2.5)}, {S("a\x00b"), I(300), F(-0.125)}, {S(""), I(0), F(1e300)}}
	b := NewBatch(s)
	for _, row := range rows {
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	row, err := AppendRow(nil, s, rows[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := AppendBatchCols(nil, b, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Sixteen copies of the rows, so that flate finds repeats to encode.
	var many []Row
	for range 16 {
		many = append(many, rows...)
	}
	mb := NewBatch(s)
	for _, row := range many {
		if err := mb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	compressed, err := AppendBatchCols(nil, mb, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := NewID(s, rows[1], 9)
	want := map[string]string{
		"row": "05736576656e0d4004000000000000",
		"raw batch": "010003030305736576656e0361006200010dd80400024004000000000000" +
			"bfc00000000000007e37e43c8800759c",
		"compressed batch": "0101ec90b109c02014442ff93f6576499726455649e0b7698296d60ee12e" +
			"3a86033888f0571004c183e38e57be8368fbc5ca470f5e0c71973d335abade0c4d4c3a70" +
			"67b93c4c98bc8f871a0000ffff",
		"key": "036100ff62000001800000000000012c02403fffffffffffff",
		"id":  "0000000000000009036100ff62000001800000000000012c02403fffffffffffff",
	}
	for name, got := range map[string][]byte{
		"row":              row,
		"raw batch":        raw,
		"compressed batch": compressed,
		"key":              EncodeKey(rows[1], s.Key),
		"id":               id.Encode(),
	} {
		if h := hex.EncodeToString(got); h != want[name] {
			t.Errorf("%s encodes to\n%s\nthe encoders wrote\n%s", name, h, want[name])
		}
	}

	// Each golden reads back through every decoder of its layout.
	golden := func(name string) []byte {
		p, err := hex.DecodeString(want[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
	into := NewBatch(s)
	if err := DecodeRowCols(golden("row"), s, into); err != nil || !slices.EqualFunc(into.Rows(), rows[:1], Row.Equal) {
		t.Errorf("golden row decodes to %v, %v", into.Rows(), err)
	}
	for name, rows := range map[string][]Row{"raw batch": rows, "compressed batch": many} {
		enc := golden(name)
		if BatchCompressed(enc) != (name == "compressed batch") {
			t.Errorf("golden %s: compressed flag %v", name, BatchCompressed(enc))
		}
		var got Batch
		if _, err := DecodeBatchInto(enc, &got); err != nil || !slices.EqualFunc(got.Rows(), rows, Row.Equal) {
			t.Errorf("golden %s decodes to %v, %v", name, got.Rows(), err)
		}
		boxed, err := DecodeBatchAny(enc)
		if err != nil || len(boxed) != len(rows) || boxed[1][0] != "a\x00b" || boxed[1][1] != int64(300) || boxed[1][2] != -0.125 {
			t.Errorf("golden %s decodes boxed to %v, %v", name, boxed, err)
		}
		if n, types, err := checkBatch(enc); err != nil || n != len(rows) || !slices.Equal(types, []Type{String, Int64, Float64}) {
			t.Errorf("golden %s checks to %d rows of %v, %v", name, n, types, err)
		}
	}
	if vals, err := DecodeKey(golden("key")); err != nil || !Row(vals).Equal(rows[1]) {
		t.Errorf("golden key decodes to %v, %v", vals, err)
	}
	if got, err := DecodeID(golden("id")); err != nil || got != id {
		t.Errorf("golden ID decodes to %v, %v", got, err)
	}
}
