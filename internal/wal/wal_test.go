package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func writeLog(t *testing.T, path string, hdr Header, recs []Record) {
	t.Helper()
	l, err := Reset(OS, path, hdr, Options{Mode: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		lsn, err := l.Append(r.Op, r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	recs := []Record{
		{Op: 1, Payload: []byte("hello")},
		{Op: 2, Payload: nil},
		{Op: 3, Payload: bytes.Repeat([]byte{0xAB}, 5000)},
	}
	writeLog(t, path, Header{Gen: 7, BaseEpoch: 42}, recs)

	c, err := ReadAll(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Missing {
		t.Fatal("log reported missing")
	}
	if c.Header.Gen != 7 || c.Header.BaseEpoch != 42 {
		t.Fatalf("header = %+v", c.Header)
	}
	if c.TornBytes != 0 {
		t.Fatalf("torn bytes = %d", c.TornBytes)
	}
	if len(c.Records) != len(recs) {
		t.Fatalf("got %d records, want %d", len(c.Records), len(recs))
	}
	for i, r := range c.Records {
		if r.Op != recs[i].Op || !bytes.Equal(r.Payload, recs[i].Payload) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestMissingLog(t *testing.T) {
	c, err := ReadAll(OS, filepath.Join(t.TempDir(), "nope.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Missing {
		t.Fatal("want Missing for absent file")
	}
}

func TestTornHeaderIsMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	if err := os.WriteFile(path, []byte(magic+"\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := ReadAll(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Missing {
		t.Fatal("short header should read as missing (crash before initial sync)")
	}
}

func TestCorruptHeaderRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	writeLog(t, path, Header{Gen: 1}, nil)
	data, _ := os.ReadFile(path)
	data[10] ^= 0xFF // inside the header, breaks its CRC
	os.WriteFile(path, data, 0o644)
	if _, err := ReadAll(OS, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	writeLog(t, path, Header{Gen: 1}, []Record{
		{Op: 1, Payload: []byte("first")},
		{Op: 1, Payload: []byte("second")},
	})
	data, _ := os.ReadFile(path)
	// Chop mid-way through the last record.
	os.WriteFile(path, data[:len(data)-5], 0o644)

	c, err := ReadAll(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) != 1 || string(c.Records[0].Payload) != "first" {
		t.Fatalf("records = %v", c.Records)
	}
	if c.TornBytes == 0 {
		t.Fatal("expected torn bytes reported")
	}
	if fi, _ := os.Stat(path); fi.Size() != c.Size {
		t.Fatalf("file not truncated: %d vs %d", fi.Size(), c.Size)
	}
	// The truncated log must append cleanly.
	l, err := OpenAppend(OS, path, c.Size, Options{Mode: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(1, []byte("third"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadAll(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Records) != 2 || string(c2.Records[1].Payload) != "third" {
		t.Fatalf("after reappend: %v", c2.Records)
	}
}

func TestCorruptMiddleRecordStopsParse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	writeLog(t, path, Header{Gen: 1}, []Record{
		{Op: 1, Payload: bytes.Repeat([]byte("a"), 100)},
		{Op: 1, Payload: bytes.Repeat([]byte("b"), 100)},
		{Op: 1, Payload: bytes.Repeat([]byte("c"), 100)},
	})
	data, _ := os.ReadFile(path)
	data[headerLen+120] ^= 0x01 // inside record 2's payload
	os.WriteFile(path, data, 0o644)

	c, err := ReadAll(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) != 1 {
		t.Fatalf("got %d records past corruption, want 1", len(c.Records))
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, err := Reset(OS, path, Header{Gen: 1}, Options{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append(1, fmt.Appendf(nil, "w%d-%d", w, i))
				if err == nil {
					err = l.Commit(lsn)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := ReadAll(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) != writers*perWriter {
		t.Fatalf("got %d records, want %d", len(c.Records), writers*perWriter)
	}
}

func TestRotateReleasesCommitters(t *testing.T) {
	dir := t.TempDir()
	path, seg := filepath.Join(dir, "x.wal"), filepath.Join(dir, "x.wal.1")
	l, err := Reset(OS, path, Header{Gen: 1, BaseEpoch: 5}, Options{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(1, []byte("sealed-in-segment"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(seg, Header{Gen: 2, BaseEpoch: 9}); err != nil {
		t.Fatal(err)
	}
	// The record was fsynced into the sealed segment, so its commit is
	// already durable and must return without syncing.
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := ReadAll(OS, seg)
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Header.Gen != 1 || len(sealed.Records) != 1 {
		t.Fatalf("sealed segment = gen %d with %d records, want gen 1 with 1", sealed.Header.Gen, len(sealed.Records))
	}
	c, err := ReadAll(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Header.Gen != 2 || c.Header.BaseEpoch != 9 {
		t.Fatalf("header after rotate = %+v", c.Header)
	}
	if len(c.Records) != 0 {
		t.Fatalf("rotate left %d records in the live log", len(c.Records))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.snap")
	w, err := CreateSnapshot(OS, path, 3, 17, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "1", "bb": "22", "ccc": "", "": "v"}
	for k, v := range want {
		if err := w.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != n {
		t.Fatalf("reported %d bytes, file is %d", n, fi.Size())
	}
	s, err := ReadSnapshot(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gen != 3 || s.Epoch != 17 || s.Seq != 42 || s.Count != uint64(len(want)) {
		t.Fatalf("snapshot meta = %+v", s)
	}
	got := map[string]string{}
	if err := s.Range(func(k, v []byte) error {
		got[string(k)] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestSnapshotMissing(t *testing.T) {
	s, err := ReadSnapshot(OS, filepath.Join(t.TempDir(), "nope.snap"))
	if err != nil || s != nil {
		t.Fatalf("got %v, %v; want nil, nil", s, err)
	}
}

func TestSnapshotCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.snap")
	w, err := CreateSnapshot(OS, path, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Put([]byte("k"), []byte("v"))
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	good, _ := os.ReadFile(path)

	for name, mutate := range map[string]func([]byte) []byte{
		"header-bitflip": func(b []byte) []byte { b[9] ^= 1; return b },
		"entry-bitflip":  func(b []byte) []byte { b[snapHeaderLen+5] ^= 1; return b },
		"truncated-tail": func(b []byte) []byte { return b[:len(b)-3] },
		"bad-magic":      func(b []byte) []byte { b[0] = 'X'; return b },
	} {
		data := mutate(append([]byte(nil), good...))
		os.WriteFile(path, data, 0o644)
		s, err := ReadSnapshot(OS, path)
		if err == nil {
			err = s.Range(func(k, v []byte) error { return nil })
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestSnapshotCrashBeforeRenameInvisible(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	// Abandon a snapshot mid-write: only the .tmp exists.
	w, err := CreateSnapshot(OS, path, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Put([]byte("k"), []byte("v"))
	// Simulated crash: no Commit, no Abort. Recovery must see nothing.
	s, err := ReadSnapshot(OS, path)
	if err != nil || s != nil {
		t.Fatalf("uncommitted snapshot visible: %v, %v", s, err)
	}
	_ = w
}
