package kvstore

import (
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"orchestra/internal/wal"
)

// TestMutationGoldenRecords drives every mutation entry point once, on a
// memory store and on a durable one, and pins the records they leave — in
// the shipping ring (sequence:op:payload) and in the WAL (op:payload) — to
// what the commit before they shared one path wrote: PutLocal is logged but
// stays out of the sequence, a batch is one record per pair in order, a
// delete's payload is its key.
func TestMutationGoldenRecords(t *testing.T) {
	dir := t.TempDir()
	durable, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"memory": NewMemory(), "durable": durable} {
		check := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		check(s.Put([]byte("a"), []byte("1")))
		check(s.PutLocal([]byte("y/marker"), []byte("local")))
		check(s.PutBatch([]KV{{Key: []byte("b"), Val: []byte("2")}, {Key: []byte("c"), Val: nil}}))
		if existed, err := s.Delete([]byte("a")); err != nil || !existed {
			t.Fatalf("%s: Delete(a) = %v, %v", name, existed, err)
		}
		if existed, err := s.Delete([]byte("missing")); err != nil || existed {
			t.Fatalf("%s: Delete(missing) = %v, %v", name, existed, err)
		}
		check(s.ApplyBatch([]ReplOp{{Key: []byte("d"), Val: []byte("4")}, {Del: true, Key: []byte("b")}}))
		check(s.SetEpoch(300))
		recs, more, truncated := s.ShipLog(0, 1<<20)
		if more || truncated {
			t.Fatalf("%s: ShipLog: more=%v truncated=%v", name, more, truncated)
		}
		var got []string
		for _, r := range recs {
			got = append(got, fmt.Sprintf("%d:%d:%s", r.Seq, r.Op, hex.EncodeToString(r.Payload)))
		}
		if joined := strings.Join(got, " "); joined != goldenShipped {
			t.Errorf("%s ships\n%s\nthe parent commit shipped\n%s", name, joined, goldenShipped)
		}
		if v, ok := s.Get([]byte("y/marker")); !ok || string(v) != "local" {
			t.Errorf("%s: PutLocal value = %q, %v", name, v, ok)
		}
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.ReadAll(wal.OS, filepath.Join(dir, walName))
	if err != nil || log.TornBytes != 0 {
		t.Fatalf("reading the log back: %v, %+v", err, log)
	}
	var got []string
	for _, r := range log.Records {
		got = append(got, fmt.Sprintf("%d:%s", r.Op, hex.EncodeToString(r.Payload)))
	}
	if joined := strings.Join(got, " "); joined != goldenLogged {
		t.Errorf("the log holds\n%s\nthe parent commit logged\n%s", joined, goldenLogged)
	}
}

// TestApplyBatchRefusedWhole: a batch that cannot be applied whole leaves
// nothing behind (the five-copies version applied and logged the ops before
// the epoch op, uncommitted, then returned the error).
func TestApplyBatchRefusedWhole(t *testing.T) {
	s := NewMemory()
	if err := s.ApplyBatch([]ReplOp{{Key: []byte("e")}, {Epoch: 5}}); err == nil || s.Has([]byte("e")) || s.Seq() != 0 {
		t.Errorf("ApplyBatch with an epoch op: %v; first op applied: %v; seq %d", err, s.Has([]byte("e")), s.Seq())
	}
}

// Generated at commit baacd0b.
const (
	goldenShipped = "1:1:016131 2:1:016232 3:1:0163 4:2:61 5:2:6d697373696e67 6:1:016434 7:2:62 8:3:000000000000012c"
	goldenLogged  = "1:016131 4:08792f6d61726b65726c6f63616c 1:016232 1:0163 2:61 2:6d697373696e67 1:016434 2:62 3:000000000000012c"
)
