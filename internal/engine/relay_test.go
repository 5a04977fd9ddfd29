package engine

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// frameSink is a FrameSink as the served writer is one: it takes encoded
// blocks (decoding them, as the client would) or, with refuse set, sends
// them back to the decode path, and records every block it was offered.
type frameSink struct {
	captureSink
	refuse bool

	fmu     sync.Mutex
	offered [][]byte // every block handed to StreamEncoded, copied
	relayed int      // blocks taken as they were
}

func (s *frameSink) StreamEncoded(batch []byte, rows int) (bool, error) {
	s.fmu.Lock()
	s.offered = append(s.offered, slices.Clone(batch))
	s.fmu.Unlock()
	if s.refuse {
		return false, nil
	}
	var b tuple.Batch
	n, err := tuple.DecodeBatchInto(batch, &b)
	if err != nil {
		return false, fmt.Errorf("client would refuse a relayed block: %w", err)
	}
	if n != rows {
		return false, fmt.Errorf("relayed block of %d rows announced as %d", n, rows)
	}
	s.fmu.Lock()
	s.relayed++
	s.fmu.Unlock()
	return true, s.captureSink.StreamCols(&b)
}

func (s *frameSink) blocks() (offered [][]byte, relayed int) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return s.offered, s.relayed
}

// streamedAnswer runs p with sink attached and compares what the sink took
// with the reference answer, as multisets (a streamed answer has no order).
func streamedAnswer(t *testing.T, h *harness, p *Plan, sink StreamSink, rows func() []tuple.Row) *Result {
	t.Helper()
	res, err := h.engines[0].Run(h.ctx(), p, Options{Sink: sink})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := append(rows(), res.Batch.Rows()...)
	want, err := refEval(p, h.data, h.schemas)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("answered %d rows, want %d", len(got), len(want))
	}
	count := make(map[string]int, len(want))
	for _, r := range want {
		count[canonRowKey(r)]++
	}
	for _, r := range got {
		if k := canonRowKey(r); count[k] == 0 {
			t.Fatalf("row %v is not in the answer, or too often", r)
		} else {
			count[k]--
		}
	}
	return res
}

// TestRelayAnswers: plans that relay answer exactly what they answer
// decoded — through a sink that takes blocks as they are and through one
// that refuses every block — and a sink is offered only blocks of
// flushRows rows; a plan with a final operator offers none.
func TestRelayAnswers(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaFD())
	h.publish("FD", genFD(12000, rand.New(rand.NewSource(5))))
	plans := map[string]func() *Plan{
		"scan":   func() *Plan { return &Plan{Root: &ScanNode{Relation: "FD"}} },
		"select": func() *Plan { return &Plan{Root: diffBase("filter")} },
		"project": func() *Plan {
			return &Plan{Root: &ProjectNode{Cols: []int{2, 0}, Child: &ScanNode{Relation: "FD"}}}
		},
		"empty": func() *Plan {
			return &Plan{Root: &SelectNode{Pred: B(OpLt, C(1), CI(-1)), Child: &ScanNode{Relation: "FD"}}}
		},
	}
	for name, plan := range plans {
		for _, refuse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/refuse=%v", name, refuse), func(t *testing.T) {
				p := plan()
				if err := p.Finalize(); err != nil {
					t.Fatal(err)
				}
				if got := PushdownClass(p); got != "stream(relay)" {
					t.Fatalf("PushdownClass = %q, want stream(relay)", got)
				}
				sink := &frameSink{refuse: refuse}
				streamedAnswer(t, h, p, sink, func() []tuple.Row { r, _ := sink.snapshot(); return r })
				offered, relayed := sink.blocks()
				for _, blk := range offered {
					bb, err := tuple.OpenBatch(blk)
					if err != nil || bb.Rows() != flushRows {
						t.Fatalf("offered a block of %d rows (%v)", bb.Rows(), err)
					}
				}
				if refuse && relayed != 0 {
					t.Fatalf("a refusing sink took %d blocks", relayed)
				}
				if !refuse && name != "empty" && relayed == 0 {
					t.Fatal("no block was relayed")
				}
			})
		}
	}
	// A final operator, however trivial, keeps the decode path.
	p := &Plan{Root: &ScanNode{Relation: "FD"}, Final: []FinalOp{&FinalLimit{N: 20000}}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := PushdownClass(p); got != "stream" {
		t.Fatalf("PushdownClass with a limit = %q, want stream", got)
	}
	sink := &frameSink{}
	streamedAnswer(t, h, p, sink, func() []tuple.Row { r, _ := sink.snapshot(); return r })
	if offered, _ := sink.blocks(); len(offered) != 0 {
		t.Fatalf("a plan with a final operator relayed %d blocks", len(offered))
	}
}

// deflate is data as one BestSpeed flate stream.
func deflate(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileBlocks turn a whole block a fragment shipped (orig: its encoded
// batch) into one a hostile fragment could send instead, each claiming
// flushRows rows in the batch layout's version (orig's first byte).
func hostileBlocks(t *testing.T) map[string]func(orig []byte) []byte {
	head := func(orig []byte, flags byte, arity int) []byte {
		b := binary.AppendUvarint([]byte{orig[0], flags}, flushRows)
		return binary.AppendUvarint(b, uint64(arity))
	}
	zeros := func(body []byte) []byte { // an int column of flushRows zeros
		return codec.AppendPacked(append(body, byte(tuple.Int64)), nil, 0, 0)
	}
	chars := func(body []byte) []byte { // a string column of one-byte strings, up to its bytes
		body = codec.AppendPacked(append(body, byte(tuple.String)), nil, 1, 0)
		return binary.AppendUvarint(body, flushRows)
	}
	const flated = 0x01
	return map[string]func([]byte) []byte{
		"corrupt flate": func(orig []byte) []byte {
			return codec.AppendBytes(chars(head(orig, flated, 1)), []byte{0xff}) // a final block of the reserved type
		},
		"flated bytes short of their count": func(orig []byte) []byte {
			return codec.AppendBytes(chars(head(orig, flated, 1)), deflate(t, make([]byte, flushRows-1)))
		},
		"dims larger than the body": func(orig []byte) []byte {
			return zeros(head(orig, 0, 3))
		},
		"bad type tag": func(orig []byte) []byte {
			body := append(zeros(zeros(head(orig, 0, 3))), 9)
			return append(body, make([]byte, 8*flushRows)...)
		},
		"truncated string": func(orig []byte) []byte {
			return append(chars(zeros(zeros(head(orig, 0, 3)))), "abc"...)
		},
	}
}

// TestRelayRefusesHostileBlocks: a whole block whose bytes do not decode
// fails its query with a ShipError naming the fragment that sent it, no
// frame of it reaches the sink, and the next query is unaffected.
func TestRelayRefusesHostileBlocks(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaFD())
	h.publish("FD", genFD(12000, rand.New(rand.NewSource(9))))
	victim := h.local.Node(1).ID()
	var forge atomic.Pointer[func([]byte) []byte]
	var forged atomic.Pointer[[]byte]
	// The engine's own msgShipBatch handler, behind a forger that swaps
	// the victim's first whole block for a hostile one.
	h.engines[0].handle(msgShipBatch, func(ex *executor, from ring.NodeID, rest []byte) error {
		if f := forge.Load(); f != nil && from == victim {
			_, _, enc, err := decodeBatchHeader(rest)
			bb, err2 := tuple.OpenBatch(enc)
			if err != nil || err2 != nil {
				t.Errorf("an honest shipment: %v, %v", err, err2)
			} else if bb.Rows() == flushRows && forge.CompareAndSwap(f, nil) {
				bad := (*f)(enc)
				forged.Store(&bad)
				rest = append(rest[:len(rest)-len(enc):len(rest)-len(enc)], bad...)
			}
		}
		if err := ex.shipCons.receiveWire(from, rest); err != nil {
			ex.shipCons.fail(&ShipError{Node: from, Err: err})
		}
		return nil
	})
	p := func() *Plan { return &Plan{Root: &ScanNode{Relation: "FD"}} }
	for name, f := range hostileBlocks(t) {
		t.Run(name, func(t *testing.T) {
			forged.Store(nil)
			forge.Store(&f)
			sink := &frameSink{}
			_, err := h.engines[0].Run(h.ctx(), p(), Options{Sink: sink})
			bad := forged.Load()
			if bad == nil {
				t.Fatal("the victim shipped no whole block")
			}
			var se *ShipError
			if !errors.As(err, &se) || se.Node != victim {
				t.Fatalf("Run: %v, want a ShipError naming %s", err, victim)
			}
			offered, _ := sink.blocks()
			for _, blk := range offered {
				if bytes.Equal(blk, *bad) {
					t.Fatal("the hostile block was handed to the sink")
				}
			}
			ok := &frameSink{}
			streamedAnswer(t, h, p(), ok, func() []tuple.Row { r, _ := ok.snapshot(); return r })
		})
	}
}
