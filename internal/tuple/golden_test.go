package tuple

import (
	"encoding/hex"
	"slices"
	"strings"
	"testing"
)

// TestCodecGoldenBytes pins one encode of every tuple layout — a stored row,
// a batch with raw and with flated string bytes, a key and an ID — to the
// bytes the encoders wrote, and reads each golden back through the decoders:
// a golden that changes means an encoder drifted from the layout peers and
// stored records use. The row, key and ID goldens date from before the
// decoders moved onto codec.Reader, so stored records from before the move
// stay readable. The batch goldens are the version-2 layout (columns encoded
// for their type), written when that layout replaced whole-batch flate; no
// batch is ever stored, and a version-1 peer's batch is refused by its
// version byte (TestBatchRefusesHostileColumns).
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
	// Sixteen copies of the rows, so that flate finds repeats in the strings.
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
		"raw batch": "020003030300031d0008736576656e610062010d0900661e0002" +
			"4004000000000000bfc00000000000007e37e43c8800759c",
		"compressed batch": "020130030300031d3a74e8d0a143870e1d3a74e8d0a143870e80011dc4c5b10d" +
			"000008024157d5e45b1b12e6670caa13e677ae65020000ffff010d0900661e0030f3" +
			"0080990700cc3c0060e60100330f00987900c0cc0300661e0030f30080990700cc3c" +
			"0060e60100330f00987900c0cc0302" + strings.Repeat("4004000000000000bfc00000000000007e37e43c8800759c", 16),
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
		if flated := enc[1]&flagFlate != 0; flated != (name == "compressed batch") {
			t.Errorf("golden %s: flate flag %v", name, flated)
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
