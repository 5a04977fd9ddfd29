package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"orchestra/internal/tuple"
)

// rowBatch builds the typed batch a publish or result frame carries from
// row fixtures.
func rowBatch(tb testing.TB, rows []tuple.Row) *tuple.Batch {
	tb.Helper()
	b := &tuple.Batch{}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// TestFrameGoldenBytes pins every stream payload and the frame header to
// the bytes the encoders wrote before the decoders moved onto codec.Reader,
// and reads each golden back through its decoder: a client or server of
// either side of the move speaks to the other, and a golden that changes
// means an encoder drifted from the wire protocol. The publish payload
// carries a tuple batch, whose golden was regenerated when its layout
// became version 2 (protocol version 4). The frames a server's stream
// writer sends are pinned beside it, in internal/server.
func TestFrameGoldenBytes(t *testing.T) {
	rows := []tuple.Row{{tuple.S("k1"), tuple.I(-3), tuple.I(300), tuple.F(0.5)}, {tuple.S(""), tuple.I(0), tuple.I(1), tuple.F(-2)}}
	publish, err := AppendPublishPayload(nil, 7, 0xfeed, "R", rowBatch(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := AppendBinaryFrame(nil, FrameCredit, AppendCreditPayload(nil, 7, 64), MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	jsonFrame, err := AppendJSONFrame(nil, &Request{ID: 1, Op: "hello", Hello: &HelloRequest{Version: 3}}, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"schema payload": "000000000000000702016b03677270",
		"credit payload": "000000000000000740",
		"cancel payload": "0000000000000007",
		"publish payload": "0000000000000007000000000000feed01520200020403000202026b31" +
			"0105020c0102092b0100023fe0000000000000c000000000000000",
		"binary frame": "0000000a04000000000000000740",
		"json frame": "0000002c007b226964223a312c226f70223a2268656c6c6f222c2268" +
			"656c6c6f223a7b2276657273696f6e223a337d7d",
	}
	for name, got := range map[string][]byte{
		"schema payload":  AppendSchemaPayload(nil, 7, []string{"k", "grp"}),
		"credit payload":  AppendCreditPayload(nil, 7, 64),
		"cancel payload":  AppendCancelPayload(nil, 7),
		"publish payload": publish,
		"binary frame":    frame,
		"json frame":      jsonFrame,
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
	if id, cols, err := DecodeSchemaPayload(golden("schema payload")); err != nil || id != 7 || !slices.Equal(cols, []string{"k", "grp"}) {
		t.Errorf("golden schema payload decodes to %d %v, %v", id, cols, err)
	}
	if id, n, err := DecodeCreditPayload(golden("credit payload")); err != nil || id != 7 || n != 64 {
		t.Errorf("golden credit payload decodes to %d %d, %v", id, n, err)
	}
	if id, err := StreamFrameID(golden("cancel payload")); err != nil || id != 7 {
		t.Errorf("golden cancel payload decodes to %d, %v", id, err)
	}
	if id, pubID, rel, got, err := DecodePublishPayload(golden("publish payload")); err != nil || id != 7 || pubID != 0xfeed || rel != "R" || !slices.EqualFunc(got, rows, tuple.Row.Equal) {
		t.Errorf("golden publish payload decodes to %d %d %q %v, %v", id, pubID, rel, got, err)
	}
	if kind, p, err := ReadRawFrame(bytes.NewReader(golden("binary frame")), MaxFrame); err != nil || kind != FrameCredit || !bytes.Equal(p, golden("credit payload")) {
		t.Errorf("golden binary frame reads as kind %d payload %x, %v", kind, p, err)
	}
	if kind, p, err := ReadRawFrame(bytes.NewReader(golden("json frame")), MaxFrame); err != nil || kind != FrameJSON || !bytes.HasPrefix(p, []byte(`{"id":1,"op":"hello"`)) {
		t.Errorf("golden JSON frame reads as kind %d payload %s, %v", kind, p, err)
	}
}

// TestHelloGoldenBytes pins the hello of protocol version 5, request and
// response frame: each carries the version and nothing else. The frame cap
// and the credit window are constants of the protocol, so neither side
// offers one, and a version-4 peer that still does is refused by version.
func TestHelloGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		msg  any
		body string
	}{
		{&Request{ID: 1, Op: OpHello, Hello: &HelloRequest{Version: ProtocolVersion}}, `{"id":1,"op":"hello","hello":{"version":5}}`},
		{&Response{ID: 1, Hello: &HelloResponse{Version: ProtocolVersion}}, `{"id":1,"hello":{"version":5}}`},
	} {
		want := append(binary.BigEndian.AppendUint32(nil, uint32(1+len(tc.body))), byte(FrameJSON))
		want = append(want, tc.body...)
		got, err := AppendJSONFrame(nil, tc.msg, MaxFrame)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("hello encodes to %q (%v), want %q", got, err, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	in := &Request{ID: 7, Op: OpQuery, Query: &QueryRequest{SQL: "SELECT 1", Epoch: 42}}
	frame, err := AppendJSONFrame(nil, in, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadRawFrame(bytes.NewReader(frame), MaxFrame)
	if err != nil || kind != FrameJSON {
		t.Fatalf("kind=%v err=%v", kind, err)
	}
	if FrameWireSize(payload) != int64(len(frame)) {
		t.Fatalf("FrameWireSize %d for a %d-byte frame", FrameWireSize(payload), len(frame))
	}
	var out Request
	if err := UnmarshalJSONFrame(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Op != OpQuery || out.Query == nil || out.Query.SQL != "SELECT 1" || out.Query.Epoch != 42 {
		t.Fatalf("round trip mangled request: %+v", out)
	}
	var fse *FrameSizeError
	if _, err := AppendJSONFrame(nil, in, 8); !errors.As(err, &fse) {
		t.Fatalf("oversized outbound frame: %v, want FrameSizeError", err)
	}
	if _, _, err := ReadRawFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), MaxFrame); !errors.As(err, &fse) {
		t.Fatalf("oversized inbound header: %v, want FrameSizeError", err)
	}
}

// TestHostileStreamPayloads: counts and lengths in a stream payload are
// claims. A schema frame's column count must be backed by the bytes after
// it and stay within a batch's arity, a relation name within its limit, a
// credit grant within the window bound; truncations and trailing bytes are
// refused. None of these may panic or allocate by the claim.
func TestHostileStreamPayloads(t *testing.T) {
	schema := func(n uint64, names []byte) []byte {
		return append(binary.AppendUvarint(binary.BigEndian.AppendUint64(nil, 1), n), names...)
	}
	good := AppendSchemaPayload(nil, 1, []string{"k", "grp"})
	for name, p := range map[string][]byte{
		"count past the bytes":    schema(1<<16, []byte{0}),
		"count past the arity":    schema(1<<16+1, make([]byte, 1<<16+1)),
		"2^64-1 columns":          schema(1<<64-1, nil),
		"name past the bytes":     schema(1, []byte{5, 'k'}),
		"trailing bytes":          append(good, 0),
		"truncated":               good[:len(good)-1],
		"short of the request ID": good[:7],
	} {
		if _, cols, err := DecodeSchemaPayload(p); err == nil {
			t.Errorf("schema %s: decoded to %d columns", name, len(cols))
		}
	}
	if _, _, err := DecodeCreditPayload(AppendCreditPayload(nil, 1, 1<<20+1)); err == nil {
		t.Error("a credit grant past the window bound was accepted")
	}
	if _, _, err := DecodeCreditPayload(append(AppendCreditPayload(nil, 1, 8), 0)); err == nil {
		t.Error("a credit payload with trailing bytes was accepted")
	}
	long := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 1), 0)
	long = append(binary.AppendUvarint(long, 1<<64-1), 'R')
	if _, _, _, _, err := DecodePublishPayload(long); err == nil {
		t.Error("a publish payload whose relation claims 2^64-1 bytes was accepted")
	}
}
