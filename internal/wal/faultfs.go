package wal

import (
	"errors"
	iofs "io/fs"
	"sync"
)

// ErrInjected is returned by every FaultFS operation at and after the
// armed crash step.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps an FS and simulates a crash-stop at a chosen durability
// step. Steps count the operations that change on-disk state — Write,
// Sync, Truncate, Close, Rename — in execution order. Once the armed
// step is reached, that operation fails (a Write optionally lands a
// torn prefix first, like a real partial sector write) and *every*
// subsequent operation fails too: the process is "dead" and the test
// then reopens the directory with a clean FS to exercise recovery.
type FaultFS struct {
	base FS

	mu     sync.Mutex
	step   int // durability ops performed so far
	failAt int // crash at this step; -1 = disarmed
	torn   int // bytes of the failing Write that still land
	dead   bool
}

// NewFaultFS returns a disarmed FaultFS over base.
func NewFaultFS(base FS) *FaultFS {
	return &FaultFS{base: base, failAt: -1}
}

// FailAt arms a crash at durability step n (0-based). If the failing
// operation is a Write, its first tornBytes bytes are written before
// the failure — a torn write.
func (f *FaultFS) FailAt(n, tornBytes int) {
	f.mu.Lock()
	f.step, f.failAt, f.torn, f.dead = 0, n, tornBytes, false
	f.mu.Unlock()
}

// Steps returns how many durability operations have run since the last
// FailAt/Disarm — run a workload disarmed first to learn the sweep
// bound.
func (f *FaultFS) Steps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step
}

// next advances the step counter. It reports (crashNow, tornBytes):
// crashNow means this operation is the armed step (or the FS is already
// dead); tornBytes is only meaningful for Writes at the armed step.
func (f *FaultFS) next() (bool, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return true, 0
	}
	if f.failAt >= 0 && f.step == f.failAt {
		f.dead = true
		f.step++
		return true, f.torn
	}
	f.step++
	return false, 0
}

// alive reports whether non-durability ops (open/read/stat) still work.
func (f *FaultFS) alive() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.dead
}

func (f *FaultFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	if !f.alive() {
		return nil, ErrInjected
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if crash, _ := f.next(); crash {
		return ErrInjected
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if !f.alive() {
		return ErrInjected
	}
	return f.base.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm iofs.FileMode) error {
	if !f.alive() {
		return ErrInjected
	}
	return f.base.MkdirAll(path, perm)
}

func (f *FaultFS) Stat(name string) (iofs.FileInfo, error) {
	if !f.alive() {
		return nil, ErrInjected
	}
	return f.base.Stat(name)
}

func (f *FaultFS) ReadDir(name string) ([]string, error) {
	if !f.alive() {
		return nil, ErrInjected
	}
	return f.base.ReadDir(name)
}

// SyncDir is a durability step: crashing here models power loss after a
// rename reached the directory cache but before the entry was flushed.
func (f *FaultFS) SyncDir(name string) error {
	if crash, _ := f.next(); crash {
		return ErrInjected
	}
	return f.base.SyncDir(name)
}

type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if !ff.fs.alive() {
		return 0, ErrInjected
	}
	return ff.f.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if crash, torn := ff.fs.next(); crash {
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			ff.f.Write(p[:torn]) // the torn prefix reaches the disk
		}
		return 0, ErrInjected
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if !ff.fs.alive() {
		return 0, ErrInjected
	}
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Truncate(size int64) error {
	if crash, _ := ff.fs.next(); crash {
		return ErrInjected
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Sync() error {
	if crash, _ := ff.fs.next(); crash {
		return ErrInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	if crash, _ := ff.fs.next(); crash {
		ff.f.Close() // release the descriptor either way
		return ErrInjected
	}
	return ff.f.Close()
}
