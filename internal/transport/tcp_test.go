package transport

import (
	"bytes"
	"testing"
	"time"
)

// The contract cases run in contract_test.go on both carriers; what follows
// is what only the TCP carrier does.

func TestTCPLargePayload(t *testing.T) {
	a, b := tcpFabric{}.join(t), tcpFabric{}.join(t)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.Handle(typeEcho, echo)
	resp, err := a.Request(ctxFor(t, 10*time.Second), b.ID(), typeEcho, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatalf("1 MiB payload came back changed (len %d)", len(resp))
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := frame{from: "127.0.0.1:7001", mtype: 0x0203, reqID: 42, payload: []byte("payload")}
	buf := appendFrame(nil, f)
	if len(buf) != f.wireSize() {
		t.Fatalf("encoded %d bytes, wireSize says %d", len(buf), f.wireSize())
	}
	got, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.from != f.from || got.mtype != f.mtype || got.reqID != f.reqID || !bytes.Equal(got.payload, f.payload) {
		t.Fatalf("round trip = %+v", got)
	}
	// A sender length that overruns the frame is rejected, not sliced.
	buf[15] = 0xFF
	if _, err := readFrame(bytes.NewReader(buf)); err == nil {
		t.Fatal("overlong sender length accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 3, 1, 2, 3})); err == nil {
		t.Fatal("frame shorter than its header accepted")
	}
}
