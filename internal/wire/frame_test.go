package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestBareHeaderCostsWhatArrived: a header claiming 60 MiB, under the cap,
// followed by one byte costs the reader its first body chunk (512 KiB),
// not the claim.
func TestBareHeaderCostsWhatArrived(t *testing.T) {
	bare := append(binary.BigEndian.AppendUint32(nil, 60<<20), byte(FrameBatch))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadRawFrame(bytes.NewReader(bare), MaxFrame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("bare header: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a bare 60 MiB header and one byte cost %d bytes of allocation", got)
	}
}
