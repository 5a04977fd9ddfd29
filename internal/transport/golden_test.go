package transport

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestFrameGoldenBytes pins the TCP frame header — length, message type,
// request ID, sender length — to the bytes the encoder wrote before
// readFrame moved onto codec.Reader, and reads the golden back: nodes on
// either side of the move exchange frames.
func TestFrameGoldenBytes(t *testing.T) {
	f := frame{from: "10.0.0.1:7001", mtype: 0x0203, reqID: 0xfeedface, payload: []byte{0, 1, 2}}
	const want = "0000001c020300000000feedface000d31302e302e302e313a37303031000102"
	if got := hex.EncodeToString(appendFrame(nil, f)); got != want {
		t.Errorf("frame encodes to\n%s\nthe encoder wrote\n%s", got, want)
	}
	golden, err := hex.DecodeString(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bytes.NewReader(golden))
	if err != nil || got.from != f.from || got.mtype != f.mtype || got.reqID != f.reqID || !bytes.Equal(got.payload, f.payload) {
		t.Fatalf("golden frame reads as %+v, %v", got, err)
	}
}

// FuzzReadFrame feeds hostile bytes to the TCP frame reader: it must refuse
// what it cannot read without panicking, and what it accepts must be one
// frame that re-encodes to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	good := appendFrame(nil, frame{from: "10.0.0.1:7001", mtype: 0x0203, reqID: 42, payload: []byte("payload")})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(appendFrame(nil, frame{}))
	long := append([]byte(nil), good...)
	long[15] = 0xFF // a sender length past the frame's end
	f.Add(long)
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		got, err := readFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		if again := appendFrame(nil, got); !bytes.Equal(again, consumed) {
			t.Fatalf("read %+v from %x, which re-encodes to %x", got, consumed, again)
		}
	})
}
