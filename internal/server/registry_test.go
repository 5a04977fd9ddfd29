package server

import (
	"fmt"
	"testing"
	"time"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// TestStreamRegistryLateDrop: a stream unregisters itself twice — from its
// End hook and again when its dispatcher returns — and a client may reuse
// the id between the two. The late drop must leave the new stream
// registered.
func TestStreamRegistryLateDrop(t *testing.T) {
	sess := &session{streams: make(map[uint64]*streamWriter)}
	first, second := &streamWriter{}, &streamWriter{}
	if !sess.registerStream(1, first) {
		t.Fatal("first stream refused")
	}
	if sess.registerStream(1, second) {
		t.Fatal("an id in use was registered twice")
	}
	sess.dropStream(1, first) // End hook: the id is free for the client
	if !sess.registerStream(1, second) {
		t.Fatal("the freed id was refused")
	}
	sess.dropStream(1, first) // the first dispatcher's deferred drop, late
	if got := sess.stream(1); got != second {
		t.Fatalf("after a late drop of the old stream, id 1 maps to %p, want the new stream %p", got, second)
	}
	sess.dropStream(1, second)
	if got := sess.stream(1); got != nil {
		t.Fatalf("a dropped stream is still registered: %p", got)
	}
}

// TestBackToBackStreamsKeepCredit runs queries back to back under one
// request id, each answered by more frames than the credit window, the way
// a client that opens every stream as id 1 does. A stream whose
// registration was lost to the previous stream's late cleanup never sees
// its credits and stalls until the request deadline.
func TestBackToBackStreamsKeepCredit(t *testing.T) {
	const frames, queries = wire.CreditWindow + 1, 2000
	stub := &streamStub{cols: []string{"a"}}
	for i := 0; i < frames; i++ {
		// One frame each: a signature change cuts the staged frame.
		if i%2 == 0 {
			stub.batches = append(stub.batches, batchOf(tuple.Row{tuple.I(int64(i))}))
		} else {
			stub.batches = append(stub.batches, batchOf(tuple.Row{tuple.S(fmt.Sprint(i))}))
		}
	}
	srv := startTestServer(t, stub, Config{RequestTimeout: 2 * time.Second})
	conn := dialTest(t, srv)
	for q := 0; q < queries; q++ {
		start := time.Now()
		conn.query(1, "q")
		r := conn.await(1)
		if r.end.Error != nil || r.end.Batches != frames {
			t.Fatalf("query %d: after %v: end %+v, error %+v", q, time.Since(start), r.end, r.end.Error)
		}
	}
}
