package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"orchestra/internal/tuple"
)

// FuzzSessionFrames feeds arbitrary bytes to a live session after a valid
// hello, over net.Pipe. Whatever arrives, the session must not panic, must
// not allocate for a frame above max_frame (a hostile length header is
// refused before its body is allocated — the bound on bytes allocated per
// input would not survive a single trusted 2 GiB header), and must either
// end or, when the input was a run of whole frames, still answer a ping.
// Closing the connection must always end it.
func FuzzSessionFrames(f *testing.F) {
	frame := func(kind FrameKind, payload []byte) []byte {
		b, err := AppendBinaryFrame(nil, kind, payload, MaxFrame)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	jsonFrame := func(req *Request) []byte {
		b, err := AppendJSONFrame(nil, req, MaxFrame)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	publish, err := AppendPublishPayload(nil, 3, 9, "r", rowBatch(f, []tuple.Row{{tuple.S("k"), tuple.I(1)}}))
	if err != nil {
		f.Fatal(err)
	}
	query := jsonFrame(&Request{ID: 2, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	for _, seed := range [][]byte{
		jsonFrame(&Request{ID: 1, Op: OpStatus}),
		query,
		append(append([]byte(nil), query...), query...), // duplicate stream id
		frame(FramePublish, publish),
		frame(FramePublish, publish[:20]),
		frame(FrameCredit, AppendCreditPayload(nil, 2, 1)),
		frame(FrameCancel, AppendCancelPayload(nil, 2)),
		frame(FrameEnd, AppendCancelPayload(nil, 2)),
		{0x7f, 0xff, 0xff, 0xff, 0},
		{0, 0, 0, 0},
		query[:len(query)-3],
	} {
		f.Add(seed)
	}

	const maxFrame = MinFrame
	s := startTestServer(f, &stubBackend{}, Config{MaxFrame: maxFrame, Logf: func(string, ...any) {}})
	hello := jsonFrame(&Request{ID: 1, Op: OpHello, Hello: &HelloRequest{Version: ProtocolVersion}})
	const pingID = 1<<63 + 12345
	ping := jsonFrame(&Request{ID: pingID, Op: OpPing})

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
				kind, payload, err := ReadRawFrame(br, MaxFrame)
				if err != nil {
					return
				}
				var resp Response
				if kind == FrameJSON && UnmarshalJSONFrame(payload, &resp) == nil && resp.ID == pingID {
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
