package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// FuzzSessionFrames feeds arbitrary bytes to a live session after a valid
// hello, over net.Pipe. Whatever arrives, the session must not panic, must
// not allocate for a frame above the frame cap (a hostile length header is
// refused before its body is allocated — the bound on bytes allocated per
// input would not survive a single trusted 2 GiB header), and must either
// end or, when the input was a run of whole frames, still answer a ping.
// Closing the connection must always end it.
func FuzzSessionFrames(f *testing.F) {
	frame := func(kind wire.FrameKind, payload []byte) []byte {
		b, err := wire.AppendBinaryFrame(nil, kind, payload, wire.MaxFrame)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	jsonFrame := func(req *wire.Request) []byte {
		b, err := wire.AppendJSONFrame(nil, req, wire.MaxFrame)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	publish, err := wire.AppendPublishPayload(nil, 3, 9, "r", rowBatch(f, []tuple.Row{{tuple.S("k"), tuple.I(1)}}))
	if err != nil {
		f.Fatal(err)
	}
	query := jsonFrame(&wire.Request{ID: 2, Op: wire.OpQuery, Query: &wire.QueryRequest{SQL: "q"}})
	for _, seed := range [][]byte{
		jsonFrame(&wire.Request{ID: 1, Op: wire.OpStatus}),
		query,
		append(append([]byte(nil), query...), query...), // duplicate stream id
		frame(wire.FramePublish, publish),
		frame(wire.FramePublish, publish[:20]),
		frame(wire.FrameCredit, wire.AppendCreditPayload(nil, 2, 1)),
		frame(wire.FrameCancel, wire.AppendCancelPayload(nil, 2)),
		frame(wire.FrameEnd, wire.AppendCancelPayload(nil, 2)),
		{0x7f, 0xff, 0xff, 0xff, 0},
		{0, 0, 0, 0},
		query[:len(query)-3],
	} {
		f.Add(seed)
	}

	// A 4 KiB cap keeps the allocation bound below tight: a whole frame
	// under the 64 MiB cap could allocate 16 000 times as much.
	const maxFrame = 4 << 10
	lowerFrameCap(f, maxFrame)
	s := startTestServer(f, &stubBackend{}, Config{Logf: func(string, ...any) {}})
	hello := jsonFrame(&wire.Request{ID: 1, Op: wire.OpHello, Hello: &wire.HelloRequest{Version: wire.ProtocolVersion}})
	const pingID = 1<<63 + 12345
	ping := jsonFrame(&wire.Request{ID: pingID, Op: wire.OpPing})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Do the bytes form whole frames the session will read through?
		whole, off := true, 0
		for off < len(data) && whole {
			if len(data)-off < 4 {
				whole = false
				break
			}
			n := int(binary.BigEndian.Uint32(data[off:]))
			whole = n > 0 && n <= maxFrame && off+4+n <= len(data)
			off += 4 + n
		}

		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		cli, srv := net.Pipe()
		ended := make(chan struct{})
		s.conns.Add(1)
		go func() { s.session(srv); close(ended) }()
		pong := make(chan struct{})
		go func() { // drain everything the session sends
			br := bufio.NewReader(cli)
			for {
				kind, payload, err := wire.ReadRawFrame(br, wire.MaxFrame)
				if err != nil {
					return
				}
				var resp wire.Response
				if kind == wire.FrameJSON && wire.UnmarshalJSONFrame(payload, &resp) == nil && resp.ID == pingID {
					close(pong)
					return
				}
			}
		}()
		cli.SetWriteDeadline(time.Now().Add(10 * time.Second))
		for _, b := range [][]byte{hello, data, ping} {
			if _, err := cli.Write(b); err != nil {
				break // the session ended and closed its side
			}
		}
		if whole {
			select {
			case <-pong:
			case <-ended:
			case <-time.After(10 * time.Second):
				t.Fatal("session neither ended nor answered ping")
			}
		}
		cli.Close()
		select {
		case <-ended:
		case <-time.After(10 * time.Second):
			t.Fatal("session outlived its connection")
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1024*maxFrame {
			t.Fatalf("%d bytes allocated serving %d input bytes under a %d-byte frame cap", grew, len(data), maxFrame)
		}
	})
}
