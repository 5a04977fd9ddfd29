package kvstore

import (
	"encoding/binary"
	"fmt"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"orchestra/internal/wal"
)

func TestEpochPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetEpoch(3); err != nil { // lower: no-op
		t.Fatal(err)
	}
	s.Put([]byte("k"), []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != 5 {
		t.Fatalf("recovered epoch = %d, want 5", s2.Epoch())
	}
	// Through a checkpoint, the epoch rides the snapshot header.
	if err := s2.SetEpoch(9); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Epoch() != 9 {
		t.Fatalf("post-checkpoint epoch = %d, want 9", s3.Epoch())
	}
	if v, ok := s3.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatal("data lost across checkpointed restart")
	}
}

func TestPutBatchDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var kvs []KV
	for i := 0; i < 100; i++ {
		kvs = append(kvs, KV{
			Key: []byte(fmt.Sprintf("b%03d", i)),
			Val: []byte(fmt.Sprintf("val%d", i)),
		})
	}
	if err := s.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	st, ok := s.DurabilityStats()
	if !ok {
		t.Fatal("durable store reported no stats")
	}
	// The whole batch must share one commit: far fewer fsyncs than keys.
	if st.Fsyncs >= 100 {
		t.Fatalf("batch of 100 cost %d fsyncs", st.Fsyncs)
	}
	s.Close()

	s2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 100 {
		t.Fatalf("recovered %d keys, want 100", s2.Len())
	}
}

func TestGenerationAheadRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("a"), []byte("1"))
	if err := s.Checkpoint(); err != nil { // snapshot gen 1, wal gen 1, segment gen 0
		t.Fatal(err)
	}
	s.Put([]byte("b"), []byte("2"))
	s.Close()

	// Lose the snapshot: the retained gen-0 segment still carries record
	// "a", so recovery replays the chain instead of refusing.
	if err := os.Remove(filepath.Join(dir, "store.snap")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("chain recovery after snapshot loss: %v", err)
	}
	if !s2.Has([]byte("a")) || !s2.Has([]byte("b")) {
		t.Fatal("segment-chain recovery lost records")
	}
	s2.Close()

	// Lose the segment too: the wal now claims a generation whose base
	// state is gone everywhere. Starting would silently drop record "a".
	if err := os.Remove(filepath.Join(dir, segmentName(0))); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{Sync: SyncNever})
	if err == nil || !strings.Contains(err.Error(), "refusing to start") {
		t.Fatalf("err = %v, want refusal", err)
	}
}

func TestStaleGenerationLogDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("kept"), []byte("v"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash between snapshot rename and log truncation: put
	// back a generation-0 log with a record the snapshot already covers.
	l, err := wal.Reset(wal.OS, filepath.Join(dir, "store.wal"), wal.Header{Gen: 0}, wal.Options{Mode: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append(opPut, appendPut(nil, []byte("ghost"), []byte("x")))
	l.Commit(lsn)
	l.Close()

	s2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("stale log should be discarded, got: %v", err)
	}
	defer s2.Close()
	if !s2.Has([]byte("kept")) {
		t.Fatal("snapshot data lost")
	}
	if s2.Has([]byte("ghost")) {
		t.Fatal("stale-generation record replayed")
	}
}

func TestEpochMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEpoch(4)
	if err := s.Checkpoint(); err != nil { // snapshot gen 1 @ epoch 4
		t.Fatal(err)
	}
	s.Close()

	// Rewrite the log header: same generation, wrong base epoch.
	l, err := wal.Reset(wal.OS, filepath.Join(dir, "store.wal"), wal.Header{Gen: 1, BaseEpoch: 11}, wal.Options{Mode: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, err = Open(dir, Options{Sync: SyncNever})
	if err == nil || !strings.Contains(err.Error(), "refusing to start") {
		t.Fatalf("err = %v, want epoch-mismatch refusal", err)
	}
}

// decodePut must reject a keyLen uvarint near 2^64 instead of letting
// the varint-width + keyLen sum wrap past the bound check and panic on
// the slice — recovery has to return ErrCorrupt, not crash.
func TestDecodePutKeyLenOverflow(t *testing.T) {
	payload := binary.AppendUvarint(nil, math.MaxUint64)
	if _, _, ok := decodePut(payload); ok {
		t.Fatal("decodePut accepted an overflowing key length")
	}
	if _, _, ok := decodePut(nil); ok {
		t.Fatal("decodePut accepted an empty payload")
	}
}

// gateFS blocks the first Sync of one named file (after arming) until
// released — it freezes a group-commit leader mid-fsync so a test can
// interleave a checkpoint at exactly that point.
type gateFS struct {
	wal.FS
	name    string // base name of the gated file
	armed   atomic.Bool
	entered chan struct{} // closed when the gated Sync begins
	release chan struct{} // closed by the test to let it proceed
}

func (g *gateFS) OpenFile(name string, flag int, perm iofs.FileMode) (wal.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != g.name {
		return f, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	wal.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		close(f.g.entered)
		<-f.g.release
	}
	return f.File.Sync()
}

// TestCheckpointCoversPendingEpoch reproduces the SetEpoch/Checkpoint
// race: an epoch record has been appended and its SetEpoch is parked
// inside the group-commit fsync when a checkpoint runs. The
// checkpoint's Rotate marks its LSN durable, so the checkpoint must
// carry the pending epoch — otherwise SetEpoch acknowledges a raise that
// exists nowhere on disk and a crash recovers the old epoch.
func TestCheckpointCoversPendingEpoch(t *testing.T) {
	dir := t.TempDir()
	g := &gateFS{FS: wal.OS, name: walName,
		entered: make(chan struct{}), release: make(chan struct{})}
	s, err := Open(dir, Options{Sync: SyncAlways, FS: g, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- s.SetEpoch(7) }()
	<-g.entered // the epoch record is appended; its commit is frozen

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if s2.Epoch() != 7 {
		t.Fatalf("recovered epoch = %d, want 7 (acknowledged raise lost)", s2.Epoch())
	}
}

func TestRecoveryStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	s.Close()

	s2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, ok := s2.DurabilityStats()
	if !ok {
		t.Fatal("no stats from durable store")
	}
	if st.ReplayedRecords != 20 {
		t.Fatalf("replayed = %d, want 20", st.ReplayedRecords)
	}
	if st.WALBytes == 0 {
		t.Fatal("wal bytes = 0")
	}

	if _, ok := NewMemory().DurabilityStats(); ok {
		t.Fatal("memory store claims durability")
	}
}
