package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"orchestra/internal/obs"
)

// On-disk layout.
//
// Log file = header | record*. The header pins the log to a snapshot
// generation so recovery can tell a live log from a stale one left by a
// crash mid-checkpoint, and to a base sequence number so a chain of
// rotated segments can be verified contiguous:
//
//	magic "ORCWAL1\n" (8) | version (1) | pad (3) | gen (8) | baseEpoch (8) | baseSeq (8) | crc32c (4)
//
// Record frame (also used for snapshot entries):
//
//	frameLen u32 BE (= 1 + len(payload)) | op (1) | payload | crc32c (4)
//
// Records carry no explicit sequence number: the i'th record of a log
// (1-based) has global sequence BaseSeq+i, so positions are implicit and
// the frame format is unchanged from version 1.
//
// The CRC (Castagnoli) covers the length prefix, op, and payload, so a
// torn or bit-flipped frame — including a corrupted length — fails
// verification instead of desynchronizing the parse.
const (
	magic     = "ORCWAL1\n"
	version   = 2
	headerLen = 40

	// MaxRecordLen caps a single frame's op+payload length. A frame
	// claiming more than this is treated as corruption — hostile or
	// garbage input must not drive allocation.
	MaxRecordLen = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors recovery distinguishes on. ErrCorrupt wraps any structural
// damage that must stop the node (bad header magic/CRC); a torn record
// tail is NOT an error — ReadAll truncates it and reports it.
var (
	ErrCorrupt = errors.New("wal: corrupt")
	ErrClosed  = errors.New("wal: closed")
)

// Header identifies which snapshot generation a log extends and the
// global record sequence number it starts after.
type Header struct {
	Gen       uint64 // snapshot generation this log's records apply on top of
	BaseEpoch uint64 // store epoch at the time the log was (re)initialized
	BaseSeq   uint64 // global sequence of the last record before this log
}

func appendHeader(dst []byte, h Header) []byte {
	start := len(dst)
	dst = append(dst, magic...)
	dst = append(dst, version, 0, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, h.Gen)
	dst = binary.BigEndian.AppendUint64(dst, h.BaseEpoch)
	dst = binary.BigEndian.AppendUint64(dst, h.BaseSeq)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.BigEndian.AppendUint32(dst, crc)
}

func parseHeader(data []byte) (Header, error) {
	if len(data) < headerLen {
		return Header{}, io.ErrUnexpectedEOF
	}
	if string(data[:8]) != magic {
		return Header{}, fmt.Errorf("%w: bad log magic", ErrCorrupt)
	}
	if crc32.Checksum(data[:headerLen-4], crcTable) != binary.BigEndian.Uint32(data[headerLen-4:]) {
		return Header{}, fmt.Errorf("%w: log header checksum mismatch", ErrCorrupt)
	}
	if v := data[8]; v != version {
		return Header{}, fmt.Errorf("%w: unsupported log version %d", ErrCorrupt, v)
	}
	return Header{
		Gen:       binary.BigEndian.Uint64(data[12:]),
		BaseEpoch: binary.BigEndian.Uint64(data[20:]),
		BaseSeq:   binary.BigEndian.Uint64(data[28:]),
	}, nil
}

// Record is one decoded log record.
type Record struct {
	Op      byte
	Payload []byte
}

// AppendRecord appends the framed encoding of one record to dst.
func AppendRecord(dst []byte, op byte, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(payload)))
	dst = append(dst, op)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.BigEndian.AppendUint32(dst, crc)
}

// DecodeRecord parses one record frame from the front of data. The
// returned payload aliases data. ok is false for an incomplete, torn,
// oversized, or checksum-failing frame.
func DecodeRecord(data []byte) (op byte, payload []byte, n int, ok bool) {
	if len(data) < 4 {
		return 0, nil, 0, false
	}
	flen := binary.BigEndian.Uint32(data)
	if flen < 1 || flen > MaxRecordLen {
		return 0, nil, 0, false
	}
	end := 4 + int(flen)
	if len(data) < end+4 {
		return 0, nil, 0, false
	}
	if crc32.Checksum(data[:end], crcTable) != binary.BigEndian.Uint32(data[end:]) {
		return 0, nil, 0, false
	}
	return data[4], data[5:end], end + 4, true
}

// ParseAll decodes a full log image: header, then records up to the
// first invalid frame. valid is the byte length of the intact prefix
// (records after it are a torn tail to truncate). It returns
// io.ErrUnexpectedEOF when data is shorter than a header, and ErrCorrupt
// when the header itself fails validation.
func ParseAll(data []byte) (hdr Header, recs []Record, valid int64, err error) {
	hdr, err = parseHeader(data)
	if err != nil {
		return Header{}, nil, 0, err
	}
	off := headerLen
	for off < len(data) {
		op, payload, n, ok := DecodeRecord(data[off:])
		if !ok {
			break
		}
		recs = append(recs, Record{Op: op, Payload: payload})
		off += n
	}
	return hdr, recs, int64(off), nil
}

// Contents is the result of a paranoid read of an existing log.
type Contents struct {
	Missing   bool // no log file, or one torn before the header completed
	Header    Header
	Records   []Record // payloads alias one internal buffer
	Size      int64    // length of the intact prefix (the post-truncation file size)
	TornBytes int64    // trailing bytes dropped as a torn tail
}

// ReadAll reads and validates the log at path, truncating any torn tail
// in place so subsequent appends extend a clean prefix. A missing file,
// or one shorter than a complete header (a crash before the initial
// header sync — nothing was ever acknowledged from it), reports
// Missing. A present-but-invalid header is ErrCorrupt: that log
// acknowledged writes this process can no longer read, so refuse.
func ReadAll(fsys FS, path string) (*Contents, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, iofs.ErrNotExist) {
		return &Contents{Missing: true}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	data, err := io.ReadAll(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	hdr, recs, valid, perr := ParseAll(data)
	if errors.Is(perr, io.ErrUnexpectedEOF) {
		return &Contents{Missing: true}, nil
	}
	if perr != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, perr)
	}
	c := &Contents{Header: hdr, Records: recs, Size: valid, TornBytes: int64(len(data)) - valid}
	if c.TornBytes > 0 {
		if err := f.Truncate(valid); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	return c, nil
}

// SyncMode selects when committed records are fsynced.
type SyncMode uint8

const (
	// SyncAlways fsyncs before acknowledging every commit, batching
	// concurrent committers into one sync (group commit).
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs every syncPeriod; a crash can lose up to one
	// period of acknowledged writes.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache.
	SyncNever
)

// syncPeriod is the fsync period of SyncInterval mode.
const syncPeriod = 50 * time.Millisecond

// String names the mode as accepted by the CLI -sync flag.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncMode(%d)", uint8(m))
}

// Options configures a Log. The metric handles are optional (nil skips
// observation).
type Options struct {
	Mode SyncMode

	FsyncUs      *obs.Histogram // latency of each log fsync
	Fsyncs       *obs.Counter   // number of log fsyncs
	BatchRecords *obs.Histogram // records retired per group-commit fsync
}

// Log is an append-only record log with group commit.
//
// Writers call Append (which buffers the record and returns its LSN)
// and then Commit(lsn), which returns once the record is durable per
// the sync mode. Under SyncAlways, concurrent committers elect a
// leader: it flushes and fsyncs everything appended so far while
// followers wait, so N concurrent commits cost one fsync.
//
// LSNs are a monotonic per-open counter, not file offsets — Reinit
// (checkpoint truncation) marks all appended records as durable, since
// the snapshot that triggered it covers them.
type Log struct {
	fsys FS
	path string
	opts Options

	mu       sync.Mutex // guards f writes, buf, size, appended, err
	f        File
	buf      *bufio.Writer
	size     int64 // logical file length including buffered bytes
	appended int64 // LSN of the most recently appended record
	err      error // sticky append/flush failure
	scratch  []byte

	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool  // a group-commit leader is flushing+syncing
	synced   int64 // highest LSN acknowledged durable
	syncErr  error // sticky fsync failure

	stop      chan struct{}
	tickerWG  sync.WaitGroup
	closeOnce sync.Once
}

func newLog(fsys FS, f File, path string, size int64, opts Options) *Log {
	l := &Log{fsys: fsys, f: f, path: path, size: size, opts: opts,
		buf: bufio.NewWriterSize(f, 1<<16), stop: make(chan struct{})}
	l.syncCond = sync.NewCond(&l.syncMu)
	if opts.Mode == SyncInterval {
		l.tickerWG.Add(1)
		go func() {
			defer l.tickerWG.Done()
			t := time.NewTicker(syncPeriod)
			defer t.Stop()
			for {
				select {
				case <-l.stop:
					return
				case <-t.C:
					_ = l.Sync()
				}
			}
		}()
	}
	return l
}

// Reset creates (or truncates) the log at path with a fresh header and
// syncs it — including the directory entry, in case the file was just
// created — so the generation marker is durable before any record.
func Reset(fsys FS, path string, hdr Header, opts Options) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	if err := initLogFile(f, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: init %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync dir of %s: %w", path, err)
	}
	return newLog(fsys, f, path, headerLen, opts), nil
}

// OpenAppend opens an existing, already-validated log (see ReadAll) for
// appending at offset size.
func OpenAppend(fsys FS, path string, size int64, opts Options) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	return newLog(fsys, f, path, size, opts), nil
}

func initLogFile(f File, hdr Header) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := f.Write(appendHeader(nil, hdr)); err != nil {
		return err
	}
	return f.Sync()
}

// Append buffers one record and returns its LSN for Commit. Safe for
// concurrent use.
func (l *Log) Append(op byte, payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	l.scratch = AppendRecord(l.scratch[:0], op, payload)
	if _, err := l.buf.Write(l.scratch); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return 0, l.err
	}
	l.size += int64(len(l.scratch))
	l.appended++
	return l.appended, nil
}

// Commit makes the record at lsn durable per the sync mode and returns
// once it is. Under SyncAlways concurrent commits share one fsync.
func (l *Log) Commit(lsn int64) error {
	if l.opts.Mode != SyncAlways {
		l.mu.Lock()
		err := l.flushLocked()
		l.mu.Unlock()
		return err
	}
	l.syncMu.Lock()
	for {
		if l.syncErr != nil {
			err := l.syncErr
			l.syncMu.Unlock()
			return err
		}
		if l.synced >= lsn {
			l.syncMu.Unlock()
			return nil
		}
		if !l.syncing {
			break
		}
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()

	// Leader: flush everything appended so far, then one fsync covers
	// this record and every follower parked above. The file is captured
	// under mu — a concurrent Rotate may swap it, in which case the
	// rotation's own seal fsync already made these records durable.
	l.mu.Lock()
	target := l.appended
	err := l.flushLocked()
	f := l.f
	l.mu.Unlock()
	if err == nil {
		err = l.fsyncFile(f)
	}

	l.syncMu.Lock()
	l.syncing = false
	if err != nil && target <= l.synced {
		// A rotation overtook this fsync and marked everything up to
		// target durable via its seal fsync; an error on the retired
		// file (possibly already closed) endangers nothing.
		err = nil
	}
	if err != nil {
		l.syncErr = err
	} else if target > l.synced {
		if l.opts.BatchRecords != nil {
			l.opts.BatchRecords.ObserveUs(target - l.synced)
		}
		l.synced = target
	}
	err = l.syncErr
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return err
}

// Sync flushes and fsyncs everything appended so far (interval ticker,
// close path, and explicit barriers).
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.appended
	err := l.flushLocked()
	f := l.f
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.fsyncFile(f); err != nil {
		l.syncMu.Lock()
		if target <= l.synced {
			// Rotation already covered these records (see Commit).
			l.syncMu.Unlock()
			return nil
		}
		if l.syncErr == nil {
			l.syncErr = err
		}
		l.syncMu.Unlock()
		return err
	}
	l.syncMu.Lock()
	if target > l.synced {
		l.synced = target
	}
	l.syncMu.Unlock()
	return nil
}

func (l *Log) fsyncFile(f File) error {
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if l.opts.FsyncUs != nil {
		l.opts.FsyncUs.Observe(time.Since(t0))
	}
	if l.opts.Fsyncs != nil {
		l.opts.Fsyncs.Inc()
	}
	return nil
}

func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if err := l.buf.Flush(); err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
		return l.err
	}
	return nil
}

// Reinit truncates the log to a fresh header for the given generation —
// the checkpoint path, called after the snapshot covering every applied
// record has been published. All outstanding LSNs are marked durable:
// their effects live in the snapshot now. The caller must prevent
// concurrent Appends (the store holds its write lock).
func (l *Log) Reinit(hdr Header) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.buf.Reset(l.f) // drop buffered frames; the snapshot has them
	if err := initLogFile(l.f, hdr); err != nil {
		l.err = fmt.Errorf("wal: reinit: %w", err)
		return l.err
	}
	l.size = headerLen
	l.syncMu.Lock()
	if l.appended > l.synced {
		l.synced = l.appended
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return nil
}

// Rotate seals the current log file as an archived segment at segPath
// and continues appending into a fresh log (with hdr) at the original
// path — the streaming-checkpoint variant of Reinit. The old file is
// flushed and fsynced before the rename, so the sealed segment is
// complete and durable; every record appended so far is then marked
// durable, releasing any commits parked on the group-commit condition.
// The caller must prevent concurrent Appends (the store holds its write
// lock), but unlike Reinit no snapshot needs to exist yet: recovery
// replays the segment chain.
func (l *Log) Rotate(segPath string, hdr Header) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	fail := func(stage string, err error) error {
		l.err = fmt.Errorf("wal: rotate %s: %w", stage, err)
		return l.err
	}
	if err := l.buf.Flush(); err != nil {
		return fail("flush", err)
	}
	if err := l.f.Sync(); err != nil {
		return fail("seal fsync", err)
	}
	// The fd stays valid across the rename; it is closed only after any
	// in-flight group-commit fsync drains (a leader may hold the old
	// file captured outside mu — its records are durable via the seal
	// fsync above, so its own fsync outcome no longer matters).
	oldF := l.f
	if err := l.fsys.Rename(l.path, segPath); err != nil {
		return fail("archive", err)
	}
	f, err := l.fsys.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fail("create", err)
	}
	if err := initLogFile(f, hdr); err != nil {
		f.Close()
		return fail("init", err)
	}
	// One directory sync makes both the rename and the new file durable.
	if err := l.fsys.SyncDir(filepath.Dir(l.path)); err != nil {
		f.Close()
		return fail("sync dir", err)
	}
	l.f = f
	l.buf.Reset(f)
	l.size = headerLen
	l.syncMu.Lock()
	if l.appended > l.synced {
		l.synced = l.appended
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	go func() {
		l.syncMu.Lock()
		for l.syncing {
			l.syncCond.Wait()
		}
		l.syncMu.Unlock()
		oldF.Close()
	}()
	return nil
}

// Size returns the logical log length in bytes (including buffered,
// not-yet-flushed records).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close flushes, syncs, and closes the log. The log must not be used
// afterwards; in-flight Commits must have returned.
func (l *Log) Close() error {
	err := error(nil)
	l.closeOnce.Do(func() {
		close(l.stop)
		l.tickerWG.Wait()
		l.mu.Lock()
		defer l.mu.Unlock()
		flushErr := l.err
		if flushErr == nil {
			flushErr = l.buf.Flush()
		}
		if flushErr == nil {
			flushErr = l.f.Sync()
		}
		closeErr := l.f.Close()
		l.err = ErrClosed
		if flushErr != nil {
			err = flushErr
		} else {
			err = closeErr
		}
	})
	return err
}
