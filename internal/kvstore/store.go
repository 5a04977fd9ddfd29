package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/codec"
	"orchestra/internal/obs"
	"orchestra/internal/wal"
)

// Store is a concurrency-safe ordered key-value store, optionally durable
// via a write-ahead log plus snapshot checkpoints (internal/wal).
//
// Durability model: every mutation is appended to the WAL and applied in
// memory under the write lock, then committed — under SyncAlways the
// commit group-batches concurrent writers into one fsync, so a mutation
// is acknowledged only once it (or a snapshot covering it) is on disk.
// Checkpoint() seals the live log as an archived segment (a brief
// write-lock window), then streams a fuzzy snapshot from the tree in
// chunked read-lock acquisitions, so commits keep proceeding while a
// multi-MB checkpoint runs. Open replays snapshot + the contiguous
// segment chain + live WAL, truncating a torn tail, rejecting corrupt
// records by CRC, and refusing to start when the chain's generations,
// sequences, or epochs disagree — per the reliable-storage contract of
// §IV. Every mutation also carries a global sequence number retained in
// a bounded ring for WAL-shipping replication (see repl.go).
type Store struct {
	mu   sync.RWMutex
	tree *btree

	// Durable state; zero/nil for memory stores.
	dir  string
	fsys wal.FS
	log  *wal.Log
	opts Options

	gen   atomic.Uint64 // generation of the live log (>= snapshot generation)
	epoch atomic.Uint64 // highest durable epoch
	seq   atomic.Uint64 // global mutation sequence (see repl.go)
	repl  replRing      // recent records retained for WAL shipping

	// Highest epoch appended to the WAL but possibly not yet committed,
	// and its LSN; guarded by mu. Checkpoint must cover this epoch in the
	// segment it seals: rotation marks every appended LSN durable, so a
	// pending epoch record dropped from the log without reaching the disk
	// would be acknowledged by a concurrent SetEpoch yet exist nowhere.
	pendingEpoch    uint64
	pendingEpochLSN int64

	checkpointing atomic.Bool
	ckptMu        sync.Mutex // serializes checkpoint passes

	// Recovery + snapshot stats (see DurabilityStats).
	replayedRecords   uint64
	replayTornBytes   int64
	recoveryUs        int64
	snapshots         atomic.Uint64
	snapshotErrs      atomic.Uint64
	lastSnapshotBytes atomic.Int64
	lastSnapshotUs    atomic.Int64
	lastStallUs       atomic.Int64 // write-lock hold of the last checkpoint rotation
	stallUsTotal      atomic.Int64
	segBytes          atomic.Int64
	segCount          atomic.Int64

	mFsyncUs *obs.Histogram
	mFsyncs  *obs.Counter
	mBatch   *obs.Histogram
	mSnapUs  *obs.Histogram
	mStallUs *obs.Histogram
}

// SyncMode re-exports the WAL sync policy for callers configuring a store.
type SyncMode = wal.SyncMode

const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNever    = wal.SyncNever
)

// DefaultCheckpointBytes is the WAL size that triggers a background
// checkpoint when Options.CheckpointBytes is unset.
const DefaultCheckpointBytes = 64 << 20

// DefaultRetainBytes is the default WAL-shipping retention budget: the
// in-memory ring of recent records (and, for durable stores, archived
// segments on disk) kept so lagging replicas can catch up from this
// node's log instead of a full state transfer.
const DefaultRetainBytes = 32 << 20

// Options configures a durable store.
type Options struct {
	// Sync selects when acknowledged writes reach the disk: SyncAlways
	// (group-commit fsync per write, the default), SyncInterval
	// (periodic), or SyncNever (OS page cache).
	Sync SyncMode
	// FS is the filesystem seam; nil means the real one. Tests inject
	// wal.FaultFS here.
	FS wal.FS
	// Registry receives the store's durability metrics; nil creates a
	// private one.
	Registry *obs.Registry
	// CheckpointBytes is the WAL size that triggers a background
	// snapshot + log truncation. 0 means DefaultCheckpointBytes;
	// negative disables automatic checkpoints.
	CheckpointBytes int64
	// RetainBytes bounds the WAL-shipping retention (the in-memory
	// record ring plus archived on-disk segments older than the current
	// snapshot). 0 means DefaultRetainBytes; negative disables
	// retention, forcing lagging replicas onto the state-transfer path.
	RetainBytes int64
	// Logf reports background checkpoint failures (default log.Printf).
	Logf func(format string, args ...any)
}

// KV is one pair for PutBatch.
type KV struct {
	Key []byte
	Val []byte
}

const (
	walName  = "store.wal"
	snapName = "store.snap"

	opPut    = byte(1)
	opDelete = byte(2)
	opEpoch  = byte(3)
	// opPutLocal is a put that never enters the shipping seq/ring:
	// durable node-private bookkeeping invisible to replication.
	opPutLocal = byte(4)
)

// NewMemory returns a volatile in-memory store. Memory stores still
// track mutation sequences and retain recent records for WAL shipping —
// a replica's catch-up source does not have to be durable.
func NewMemory() *Store {
	s := &Store{tree: newBtree()}
	s.opts.Registry = obs.NewRegistry()
	s.repl.max = DefaultRetainBytes
	return s
}

// Registry returns the metrics registry the store reports to — the
// node's registry when Options named one. The layers above the store
// count there too, so one /metrics page covers the node.
func (s *Store) Registry() *obs.Registry { return s.opts.Registry }

// Open returns a durable store rooted at dir, creating it if needed and
// recovering any existing snapshot, archived WAL segments, and live
// WAL. Recovery is paranoid: torn live-log tails are truncated,
// CRC-failing records rejected, and any break in the generation /
// sequence / epoch chain between snapshot, segments, and live log
// refuses to start rather than serve silently wrong data.
func Open(dir string, opts Options) (*Store, error) {
	t0 := time.Now()
	if opts.FS == nil {
		opts.FS = wal.OS
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	if opts.RetainBytes == 0 {
		opts.RetainBytes = DefaultRetainBytes
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	s := &Store{tree: newBtree(), dir: dir, fsys: opts.FS, opts: opts}
	s.repl.max = opts.RetainBytes
	reg := opts.Registry
	s.mFsyncUs = reg.Histogram("orchestra_wal_fsync_us")
	s.mFsyncs = reg.Counter("orchestra_wal_fsyncs_total")
	s.mBatch = reg.Histogram("orchestra_wal_group_commit_records")
	s.mSnapUs = reg.Histogram("orchestra_snapshot_us")
	s.mStallUs = reg.Histogram("orchestra_checkpoint_stall_us")

	// 1. Snapshot: the durable base state.
	var gen, epoch, seq uint64
	snap, err := wal.ReadSnapshot(s.fsys, filepath.Join(dir, snapName))
	if err != nil {
		return nil, fmt.Errorf("kvstore: refusing to start: %w", err)
	}
	if snap != nil {
		gen, epoch, seq = snap.Gen, snap.Epoch, snap.Seq
		if err := snap.Range(func(k, v []byte) error {
			s.tree.put(k, v)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("kvstore: refusing to start: %w", err)
		}
	}

	// 2. Archived segments. Ones at or past the snapshot generation are
	// part of the recovery chain (the checkpoint that would have covered
	// them never published); older ones are shipping retention only.
	segGens, err := listSegments(s.fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: refusing to start: list segments: %w", err)
	}
	var chain []uint64
	for _, g := range segGens {
		if g >= gen {
			chain = append(chain, g)
		} else {
			// Retention-only segment: re-seed the shipping ring from it,
			// without touching the tree (its effects are in the snapshot).
			s.seedRing(g)
		}
	}

	// 3. Live log.
	walPath := filepath.Join(dir, walName)
	walOpts := wal.Options{
		Mode:    opts.Sync,
		FsyncUs: s.mFsyncUs, Fsyncs: s.mFsyncs, BatchRecords: s.mBatch,
	}
	c, err := wal.ReadAll(s.fsys, walPath)
	if err != nil {
		return nil, fmt.Errorf("kvstore: refusing to start: %w", err)
	}

	// The recovery chain must be contiguous: segments gen, gen+1, ...
	// then the live log one generation past the last segment. Each link
	// must agree with the running sequence and epoch.
	replaySeg := func(g uint64) error {
		sc, serr := s.readSegment(g)
		if serr != nil {
			return serr
		}
		if sc.Header.BaseSeq != seq {
			return fmt.Errorf("segment %d starts at seq %d, expected %d", g, sc.Header.BaseSeq, seq)
		}
		if sc.Header.BaseEpoch != epoch {
			return fmt.Errorf("segment %d starts at epoch %d, expected %d", g, sc.Header.BaseEpoch, epoch)
		}
		for i, rec := range sc.Records {
			e, aerr := s.applyRecord(rec)
			if aerr != nil {
				return fmt.Errorf("segment %d record %d: %w", g, i, aerr)
			}
			if e > epoch {
				epoch = e
			}
			if rec.Op == opPutLocal {
				continue // node-private: outside the shipping sequence
			}
			seq++
			s.repl.push(ReplRecord{Seq: seq, Op: rec.Op, Payload: append([]byte(nil), rec.Payload...)})
		}
		s.replayedRecords += uint64(len(sc.Records))
		return nil
	}

	switch {
	case c.Missing && len(chain) == 0:
		// No log (or one torn before its header was durable — nothing
		// was ever acknowledged from it). Start fresh at the snapshot.
		s.log, err = wal.Reset(s.fsys, walPath, wal.Header{Gen: gen, BaseEpoch: epoch, BaseSeq: seq}, walOpts)
	case c.Missing:
		// Crash inside a rotation: the old log was archived but the new
		// live log never became durable (nothing was acknowledged from
		// it). Replay the sealed segments and continue past them.
		for i, g := range chain {
			if g != gen+uint64(i) {
				return nil, fmt.Errorf("kvstore: refusing to start: segment chain gap — have generation %d, expected %d", g, gen+uint64(i))
			}
			if err := replaySeg(g); err != nil {
				return nil, fmt.Errorf("kvstore: refusing to start: %w", err)
			}
		}
		gen = chain[len(chain)-1] + 1
		s.log, err = wal.Reset(s.fsys, walPath, wal.Header{Gen: gen, BaseEpoch: epoch, BaseSeq: seq}, walOpts)
	case c.Header.Gen < gen:
		// Stale log from before the last published snapshot (crash
		// between snapshot rename and log truncation): every record in
		// it is already covered by the snapshot.
		s.log, err = wal.Reset(s.fsys, walPath, wal.Header{Gen: gen, BaseEpoch: epoch, BaseSeq: seq}, walOpts)
	default:
		// Live log at or past the snapshot generation: replay the
		// segment chain up to it, then the live records.
		want := gen
		for _, g := range chain {
			if g >= c.Header.Gen {
				return nil, fmt.Errorf(
					"kvstore: refusing to start: segment generation %d is not older than the live log's %d", g, c.Header.Gen)
			}
			if g != want {
				return nil, fmt.Errorf("kvstore: refusing to start: segment chain gap — have generation %d, expected %d", g, want)
			}
			if err := replaySeg(g); err != nil {
				return nil, fmt.Errorf("kvstore: refusing to start: %w", err)
			}
			want = g + 1
		}
		if c.Header.Gen != want {
			return nil, fmt.Errorf(
				"kvstore: refusing to start: wal generation %d does not extend generation %d — an intermediate segment or the snapshot is missing",
				c.Header.Gen, want)
		}
		if c.Header.BaseEpoch != epoch {
			return nil, fmt.Errorf(
				"kvstore: refusing to start: wal base epoch %d does not match recovered epoch %d at generation %d",
				c.Header.BaseEpoch, epoch, c.Header.Gen)
		}
		if c.Header.BaseSeq != seq {
			return nil, fmt.Errorf(
				"kvstore: refusing to start: wal base seq %d does not match recovered seq %d at generation %d",
				c.Header.BaseSeq, seq, c.Header.Gen)
		}
		for i, rec := range c.Records {
			e, aerr := s.applyRecord(rec)
			if aerr != nil {
				return nil, fmt.Errorf("kvstore: refusing to start: wal record %d: %w", i, aerr)
			}
			if e > epoch {
				epoch = e
			}
			if rec.Op == opPutLocal {
				continue // node-private: outside the shipping sequence
			}
			seq++
			s.repl.push(ReplRecord{Seq: seq, Op: rec.Op, Payload: append([]byte(nil), rec.Payload...)})
		}
		gen = c.Header.Gen
		s.replayedRecords += uint64(len(c.Records))
		s.replayTornBytes = c.TornBytes
		s.log, err = wal.OpenAppend(s.fsys, walPath, c.Size, walOpts)
	}
	if err != nil {
		return nil, err
	}
	// Replay left the tree aliasing the snapshot and log buffers read
	// above; packing every written leaf copies the records into leaf slabs
	// and lets those buffers go.
	s.tree.packAll()
	s.gen.Store(gen)
	s.epoch.Store(epoch)
	s.seq.Store(seq)
	s.pruneSegments(snapGen(snap))
	s.recoveryUs = time.Since(t0).Microseconds()

	reg.Counter("orchestra_recovery_replayed_records_total").Add(s.replayedRecords)
	reg.GaugeFunc("orchestra_wal_bytes", s.WALSize)
	reg.GaugeFunc("orchestra_store_epoch", func() int64 { return int64(s.epoch.Load()) })
	reg.GaugeFunc("orchestra_store_generation", func() int64 { return int64(s.gen.Load()) })
	reg.GaugeFunc("orchestra_store_seq", func() int64 { return int64(s.seq.Load()) })
	reg.GaugeFunc("orchestra_wal_segments", s.segCount.Load)
	reg.GaugeFunc("orchestra_wal_segment_bytes", s.segBytes.Load)
	reg.GaugeFunc("orchestra_recovery_us", func() int64 { return s.recoveryUs })
	return s, nil
}

func snapGen(snap *wal.Snapshot) uint64 {
	if snap == nil {
		return 0
	}
	return snap.Gen
}

// seedRing re-seeds the shipping ring from a retention-only segment
// (older than the current snapshot). Best effort: a segment that fails
// to parse cleanly is simply skipped — it only limits how far back this
// node can ship, never correctness.
func (s *Store) seedRing(gen uint64) {
	if s.opts.RetainBytes <= 0 {
		return
	}
	sc, err := s.readSegment(gen)
	if err != nil {
		return
	}
	seq := sc.Header.BaseSeq
	for _, rec := range sc.Records {
		if rec.Op == opPutLocal {
			continue // node-private: outside the shipping sequence
		}
		seq++
		s.repl.push(ReplRecord{Seq: seq, Op: rec.Op, Payload: append([]byte(nil), rec.Payload...)})
	}
}

// applyRecord replays one WAL record into the tree, returning the epoch
// it carries (0 for data records). A CRC-valid record with an unknown op
// means version skew — refuse rather than drop acknowledged writes. The
// tree aliases the record's payload, a buffer recovery read and nobody
// else writes; Open packs it away before the store is used.
func (s *Store) applyRecord(rec wal.Record) (uint64, error) {
	switch rec.Op {
	case opPut, opPutLocal:
		key, val, ok := decodePut(rec.Payload)
		if !ok {
			return 0, errors.New("malformed put payload")
		}
		s.tree.put(key, val)
	case opDelete:
		s.tree.delete(rec.Payload)
	case opEpoch:
		e, ok := decodeEpoch(rec.Payload)
		if !ok {
			return 0, errors.New("malformed epoch payload")
		}
		return e, nil
	default:
		return 0, fmt.Errorf("unknown record op %d", rec.Op)
	}
	return 0, nil
}

// appendPut encodes an opPut payload: keyLen uvarint | key | val.
func appendPut(dst []byte, key, val []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, binary.MaxVarintLen32+len(key)+len(val)) // one allocation, not three
	}
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return append(dst, val...)
}

// putFields returns the key and value of an appendPut payload with the
// given lengths as sub-slices of it, each capped at its own end.
func putFields(payload []byte, klen, vlen int) (key, val []byte) {
	k := len(payload) - klen - vlen
	v := k + klen
	return payload[k:v:v], payload[v:len(payload):len(payload)]
}

func decodePut(payload []byte) (key, val []byte, ok bool) {
	r := codec.NewReader(payload)
	key, val = r.Bytes(), r.Rest()
	return key, val, r.Err() == nil
}

// decodeEpoch reads an opEpoch payload: the epoch, eight bytes.
func decodeEpoch(payload []byte) (uint64, bool) {
	r := codec.NewReader(payload)
	e := r.U64()
	return e, r.Done("kvstore: epoch record") == nil
}

// Close flushes, syncs, and closes the WAL. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Get returns a copy of the value for key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.tree.get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// GetRetained returns the stored value for key without copying. The
// returned slice follows the store's immutability contract (see Scan): its
// bytes are never rewritten by the store — a later pack of its leaf copies
// them elsewhere and leaves them be — so callers may retain and read it
// indefinitely, but must not modify it. The allocation-free variant for
// hot read paths that decode large records (index pages) per query.
func (s *Store) GetRetained(key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.get(key)
}

// Has reports whether key exists.
func (s *Store) Has(key []byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.tree.get(key)
	return ok
}

// apply is the one mutation path. Under the write lock each of the n
// mutations — op(i) names its kind, key and value — is encoded, appended to
// the log, applied to the tree and, unless it is node-private (opPutLocal),
// given the next shipping sequence; one commit outside the lock then makes
// the whole batch durable (under SyncAlways, at most one fsync). It reports
// whether the last delete found its key. The encoded payload is the one
// copy a put makes: the tree keeps its key and value as sub-slices of it,
// beside the shipping ring's reference, and nothing rewrites it.
func (s *Store) apply(n int, op func(i int) (kind byte, key, val []byte)) (deleted bool, err error) {
	if n == 0 {
		return false, nil
	}
	s.mu.Lock()
	var lsn int64
	for i := 0; i < n; i++ {
		kind, key, val := op(i)
		var payload []byte
		if kind == opDelete {
			payload = append([]byte(nil), key...)
		} else {
			payload = appendPut(nil, key, val)
		}
		if s.log != nil {
			if lsn, err = s.log.Append(kind, payload); err != nil {
				s.mu.Unlock()
				return false, err
			}
		}
		if kind == opDelete {
			deleted = s.tree.delete(key)
		} else {
			s.tree.put(putFields(payload, len(key), len(val)))
		}
		if kind != opPutLocal {
			s.noteAppend(kind, payload)
		}
	}
	s.mu.Unlock()
	return deleted, s.commit(lsn)
}

// Put stores key → val (replacing any existing value). For a durable
// store it returns once the write is committed per the sync policy.
func (s *Store) Put(key, val []byte) error {
	_, err := s.apply(1, func(int) (byte, []byte, []byte) { return opPut, key, val })
	return err
}

// PutLocal stores key → val durably without assigning the write a
// shipping sequence: it replays from the WAL at recovery like any put
// but never enters the replication ring or the seq count. For
// node-private bookkeeping (per-peer repair markers) whose writes must
// not look like fresh mutations to peers — shipping them would make two
// otherwise-idle replicas ping-pong marker updates forever.
func (s *Store) PutLocal(key, val []byte) error {
	_, err := s.apply(1, func(int) (byte, []byte, []byte) { return opPutLocal, key, val })
	return err
}

// PutBatch stores every pair, sharing one WAL commit (and so, under
// SyncAlways, at most one fsync) across the batch.
func (s *Store) PutBatch(kvs []KV) error {
	_, err := s.apply(len(kvs), func(i int) (byte, []byte, []byte) { return opPut, kvs[i].Key, kvs[i].Val })
	return err
}

// commit makes the record at lsn durable and may kick off a background
// checkpoint once the log has grown past the configured threshold.
func (s *Store) commit(lsn int64) error {
	if s.log == nil {
		return nil
	}
	if err := s.log.Commit(lsn); err != nil {
		return err
	}
	s.maybeCheckpoint()
	return nil
}

func (s *Store) maybeCheckpoint() {
	if s.opts.CheckpointBytes <= 0 || s.log.Size() < s.opts.CheckpointBytes {
		return
	}
	if !s.checkpointing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.checkpointing.Store(false)
		if err := s.Checkpoint(); err != nil {
			s.opts.Logf("kvstore: background checkpoint: %v", err)
		}
	}()
}

// SetEpoch durably raises the store's epoch to at least e. Raising the
// epoch is the last step of a publish — it must not be acknowledged
// before it would survive a crash.
func (s *Store) SetEpoch(e uint64) error {
	if s.log == nil {
		s.mu.Lock()
		if e <= s.epoch.Load() {
			s.mu.Unlock()
			return nil
		}
		payload := make([]byte, 8)
		binary.BigEndian.PutUint64(payload, e)
		s.noteAppend(opEpoch, payload)
		storeMax(&s.epoch, e)
		s.mu.Unlock()
		return nil
	}
	s.mu.Lock()
	if e <= s.epoch.Load() {
		s.mu.Unlock()
		return nil
	}
	if e <= s.pendingEpoch {
		// A record covering e is already appended (by a concurrent raise
		// or one whose commit we interrupted); wait for its durability
		// rather than appending a duplicate.
		lsn := s.pendingEpochLSN
		s.mu.Unlock()
		if err := s.commit(lsn); err != nil {
			return err
		}
		storeMax(&s.epoch, e)
		return nil
	}
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, e)
	lsn, err := s.log.Append(opEpoch, payload)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.pendingEpoch, s.pendingEpochLSN = e, lsn
	s.noteAppend(opEpoch, payload)
	s.mu.Unlock()
	if err := s.commit(lsn); err != nil {
		return err
	}
	storeMax(&s.epoch, e)
	return nil
}

// Epoch returns the highest epoch recorded in the store (0 if none).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Scan calls fn for every pair with lo <= key < hi in key order (nil bounds
// are open). fn must not mutate the store; returning false stops the scan.
//
// Key/value reuse contract: the slices passed to fn are the store's own.
// A record is copied once on write (into its log payload) and again when
// its leaf is packed into a new slab (see the package comment); neither
// copy, nor any stored byte, is ever rewritten — replacement, deletion and
// packing move slice headers only. Callers may therefore retain them
// read-only past the callback and past the lock (the engine's scan pipeline
// aliases tuple-record bytes this way to decode without copying); they
// must never write into them. A retained slice keeps its whole buffer
// alive — a leaf slab of up to branching records — so a holder that
// outlives a query (a cache) copies what it keeps.
func (s *Store) Scan(lo, hi []byte, fn func(k, v []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.tree.scan(lo, hi, fn)
}

// Iter runs fn with a seekable forward iterator over the store, holding
// the read lock for the duration — fn must not mutate the store. The
// iterator starts unpositioned; call Seek first. Key/value slices follow
// Scan's immutability/retention contract. Compared to Scan, Iter lets a
// sparse consumer skip ahead in O(depth) instead of visiting every pair.
func (s *Store) Iter(fn func(it *Iterator)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	it := s.tree.iter()
	fn(&it)
}

// ScanPrefix scans all keys beginning with prefix.
func (s *Store) ScanPrefix(prefix []byte, fn func(k, v []byte) bool) {
	if len(prefix) == 0 {
		s.Scan(nil, nil, fn)
		return
	}
	hi := prefixEnd(prefix)
	s.Scan(prefix, hi, fn)
}

// prefixEnd returns the smallest key greater than every key with the given
// prefix, or nil if the prefix is all 0xFF.
func prefixEnd(prefix []byte) []byte {
	hi := append([]byte(nil), prefix...)
	for i := len(hi) - 1; i >= 0; i-- {
		if hi[i] != 0xFF {
			hi[i]++
			return hi[:i+1]
		}
	}
	return nil
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.size
}

// Depth returns the B+tree height (diagnostics).
func (s *Store) Depth() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.depth()
}

// WALSize returns the current WAL length in bytes (0 for memory stores).
func (s *Store) WALSize() int64 {
	if s.log == nil {
		return 0
	}
	return s.log.Size()
}

// ckptChunk is how many pairs a streaming checkpoint copies per
// read-lock acquisition.
const ckptChunk = 1024

// Checkpoint seals the live log as an archived segment (a brief
// write-lock window — the only time commits stall), then streams a fuzzy
// snapshot of the tree to disk in chunked read-lock acquisitions and
// publishes it atomically. Mutations proceed concurrently with the
// snapshot pass; the snapshot may therefore include effects of records
// past its recorded sequence boundary, which recovery tolerates because
// replay is idempotent.
func (s *Store) Checkpoint() error {
	if s.log == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// Phase 1: rotate the log under the write lock. The boundary
	// (epoch, seq) is exact — both only advance under s.mu. The epoch
	// must cover a pending raise still parked in commit: rotation marks
	// every appended LSN durable, so the sealed segment carries it.
	t0 := time.Now()
	s.mu.Lock()
	oldGen := s.gen.Load()
	newGen := oldGen + 1
	epoch := s.epoch.Load()
	if s.pendingEpoch > epoch {
		epoch = s.pendingEpoch
	}
	seq := s.seq.Load()
	err := s.log.Rotate(s.segPath(oldGen), wal.Header{Gen: newGen, BaseEpoch: epoch, BaseSeq: seq})
	if err == nil {
		s.gen.Store(newGen)
	}
	s.mu.Unlock()
	stall := time.Since(t0).Microseconds()
	s.lastStallUs.Store(stall)
	s.stallUsTotal.Add(stall)
	if s.mStallUs != nil {
		s.mStallUs.ObserveUs(stall)
	}
	if err != nil {
		s.snapshotErrs.Add(1)
		return fmt.Errorf("kvstore: checkpoint: %w", err)
	}
	// The sealed segment durably carries epoch (possibly a pending raise
	// whose SetEpoch is still parked in commit — Rotate just satisfied it).
	storeMax(&s.epoch, epoch)

	// Phase 2: stream the snapshot without blocking writers. Each chunk
	// aliases tree memory under the read lock — safe to write out after
	// release because stored bytes are never rewritten (see Scan's
	// contract).
	w, err := wal.CreateSnapshot(s.fsys, filepath.Join(s.dir, snapName), newGen, epoch, seq)
	if err != nil {
		s.snapshotErrs.Add(1)
		return fmt.Errorf("kvstore: checkpoint: %w", err)
	}
	var putErr error
	var lastKey []byte
	started := false
	pairs := make([]KV, 0, ckptChunk)
	for {
		pairs = pairs[:0]
		s.mu.RLock()
		it := s.tree.iter()
		it.Seek(lastKey)
		if started {
			// Skip pairs at or before the previous chunk's boundary; an
			// exact-match boundary key was already written.
			for it.Valid() && bytes.Compare(it.Key(), lastKey) <= 0 {
				it.Next()
			}
		}
		for ; it.Valid() && len(pairs) < ckptChunk; it.Next() {
			pairs = append(pairs, KV{Key: it.Key(), Val: it.Value()})
		}
		s.mu.RUnlock()
		if len(pairs) == 0 {
			break
		}
		for _, kv := range pairs {
			if putErr = w.Put(kv.Key, kv.Val); putErr != nil {
				break
			}
		}
		if putErr != nil {
			break
		}
		lastKey, started = pairs[len(pairs)-1].Key, true
		if len(pairs) < ckptChunk {
			break
		}
	}
	if putErr != nil {
		w.Abort()
		s.snapshotErrs.Add(1)
		return fmt.Errorf("kvstore: checkpoint: %w", putErr)
	}
	nbytes, err := w.Commit()
	if err != nil {
		// The rotation stands — the segment chain still recovers
		// everything; the next checkpoint retries the snapshot.
		s.snapshotErrs.Add(1)
		return fmt.Errorf("kvstore: checkpoint: %w", err)
	}

	// Phase 3: segments older than the published snapshot are now
	// retention-only; prune past the shipping budget.
	s.pruneSegments(newGen)
	s.snapshots.Add(1)
	s.lastSnapshotBytes.Store(nbytes)
	us := time.Since(t0).Microseconds()
	s.lastSnapshotUs.Store(us)
	if s.mSnapUs != nil {
		s.mSnapUs.ObserveUs(us)
	}
	return nil
}

// DurabilityStats returns durability health; ok is false for memory
// stores.
func (s *Store) DurabilityStats() (st obs.DurabilityStats, ok bool) {
	if s.log == nil {
		return obs.DurabilityStats{}, false
	}
	fsync := s.mFsyncUs.Snapshot()
	batch := s.mBatch.Snapshot()
	seq, firstAvail := s.ReplStatus()
	return obs.DurabilityStats{
		Epoch:                  s.epoch.Load(),
		Generation:             s.gen.Load(),
		Seq:                    seq,
		FirstRetainedSeq:       firstAvail,
		WALBytes:               s.WALSize(),
		WALSegments:            s.segCount.Load(),
		SegmentBytes:           s.segBytes.Load(),
		Fsyncs:                 s.mFsyncs.Load(),
		FsyncMeanUs:            fsync.MeanUs(),
		FsyncP99Us:             fsync.Quantile(0.99),
		GroupCommitRecords:     uint64(batch.SumUs),
		Snapshots:              s.snapshots.Load(),
		SnapshotErrors:         s.snapshotErrs.Load(),
		LastSnapshotBytes:      s.lastSnapshotBytes.Load(),
		LastSnapshotUs:         s.lastSnapshotUs.Load(),
		LastCheckpointStallUs:  s.lastStallUs.Load(),
		CheckpointStallTotalUs: s.stallUsTotal.Load(),
		ReplayedRecords:        s.replayedRecords,
		ReplayTornBytes:        s.replayTornBytes,
		RecoveryUs:             s.recoveryUs,
	}, true
}
