package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// allocated reports the heap bytes handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func acceptAll(uint32) error { return nil }

// TestReadFrameCostsWhatArrives: a length header is a claim. A bare header
// claiming 60 MiB and one body byte cost the reader its first chunk, not
// the claim; a body past the chunk grows as it arrives and reads back
// whole; a frame under the chunk is one allocation for its body; a frame
// check refuses is refused before any body byte is read.
func TestReadFrameCostsWhatArrives(t *testing.T) {
	bare := append(binary.BigEndian.AppendUint32(nil, 60<<20), 1)
	var err error
	if got := allocated(func() { _, err = ReadFrame(bytes.NewReader(bare), acceptAll) }); got > frameChunk+64<<10 {
		t.Errorf("a bare 60 MiB header and one byte cost %d bytes of allocation, want at most the %d-byte first chunk", got, frameChunk)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("bare header: %v, want io.ErrUnexpectedEOF", err)
	}

	big := make([]byte, 3*frameChunk+5)
	for i := range big {
		big[i] = byte(i * 7)
	}
	body, err := ReadFrame(bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, uint32(len(big))), big...)), acceptAll)
	if err != nil || !bytes.Equal(body, big) {
		t.Fatalf("a %d-byte frame read back as %d bytes, %v", len(big), len(body), err)
	}

	batch := append(binary.BigEndian.AppendUint32(nil, 300<<10), make([]byte, 300<<10)...)
	r := bytes.NewReader(batch)
	if n := testing.AllocsPerRun(20, func() {
		r.Reset(batch)
		if _, err := ReadFrame(r, acceptAll); err != nil {
			t.Fatal(err)
		}
	}); n > 2 { // the body and the header array
		t.Errorf("a 300 KiB frame took %v allocations, want 2", n)
	}

	refused := errors.New("refused")
	r.Reset(batch)
	if _, err := ReadFrame(r, func(uint32) error { return refused }); err != refused || r.Len() != len(batch)-4 {
		t.Errorf("refused frame: %v with %d body bytes read, want the check's error and none", err, len(batch)-4-r.Len())
	}
}
