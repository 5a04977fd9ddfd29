package vstore

import (
	"encoding/hex"
	"testing"

	"orchestra/internal/keyspace"
	"orchestra/internal/tuple"
)

// TestRecordGoldenBytes pins one encode of every stored record and key to
// what the commit before the decoders moved onto codec.Reader wrote: a node
// restarted on this code reads the store the old code left (generated at
// baacd0b).
func TestRecordGoldenBytes(t *testing.T) {
	schema := tuple.MustSchema("R",
		[]tuple.Column{{Name: "k", Type: tuple.Int64}, {Name: "v", Type: tuple.Float64}, {Name: "s", Type: tuple.String}}, "k")
	row := tuple.Row{tuple.I(7), tuple.F(2.5), tuple.S("seven")}
	id := tuple.NewID(schema, row, 9)
	ids := []tuple.ID{id, {Key: "", Epoch: Tombstone}}
	hashes := []keyspace.Key{id.Hash(), keyspace.Max}
	ref := PageRef{ID: PageID{Relation: "R", Epoch: 9, Seq: 2}, Min: keyspace.Zero, Max: keyspace.Max, Entries: 2, DeltaEntries: 1, Depth: 1}
	tupleRec, err := EncodeTupleRecord(schema, TupleRecord{ID: id, Row: row})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"schema", EncodeSchema(schema),
			"015203016b010176020173030100"},
		{"page", EncodePage(&Page{Ref: ref, IDs: ids, Hashes: hashes}),
			"ff0301520000000000000009000000020000000000000000000000000000000000000000ffffffffffffffffffffffff" +
				"ffffffffffffffff02000000000000000909018000000000000007d8eb35eac6baa13fa75f49134917d45b7d371901ff" +
				"ffffffffffffff00ffffffffffffffffffffffffffffffffffffffff"},
		{"delta", EncodeDelta(&Delta{Ref: ref, Base: PageID{Relation: "R", Epoch: 8, Seq: 1}, IDs: ids, Hashes: hashes}),
			"ff0401520000000000000009000000020000000000000000000000000000000000000000ffffffffffffffffffffffff" +
				"ffffffffffffffff00000000000000080000000102000000000000000909018000000000000007d8eb35eac6baa13fa7" +
				"5f49134917d45b7d371901ffffffffffffffff00ffffffffffffffffffffffffffffffffffffffff"},
		{"coordinator", EncodeCoordinator(&Coordinator{Relation: "R", Epoch: 9, Pages: []PageRef{ref, {ID: PageID{Relation: "R", Epoch: 3}}}}),
			"015200000000000000090201520000000000000009000000020000000000000000000000000000000000000000ffffff" +
				"ffffffffffffffffffffffffffffffffff02010101520000000000000003000000000000000000000000000000000000" +
				"0000000000000000000000000000000000000000000000000000000000"},
		{"catalog", EncodeCatalog(&Catalog{Schema: schema, Epochs: []tuple.Epoch{3, 9}, Rows: -4,
			RecentPubs: []PubMark{{ID: 0xfeed, Epoch: 9}}}),
			"0e015203016b0101760201730301000200000000000000030000000000000009fffffffffffffffc01000000000000fe" +
				"ed0000000000000009"},
		{"tuple record", tupleRec,
			"0000000000000009090180000000000000070f0e400400000000000005736576656e"},
		{"tuple key", TupleKVKey(id),
			"742fd8eb35eac6baa13fa75f49134917d45b7d371901018000000000000007000000000000000009"},
		{"page key", PageKVKey(ref.ID),
			"702f5200000000000000000900000002"},
		{"coordinator key", CoordKVKey("R", 9),
			"722f52000000000000000009"},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s encodes to\n%s\nthe parent commit wrote\n%s", g.name, got, g.want)
		}
	}
	if got, ok := TupleIDFromKVKey(TupleKVKey(id)); !ok || got != id {
		t.Errorf("TupleIDFromKVKey = %v, %v; want %v", got, ok, id)
	}
}
