package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// The engine's inter-node messages: their types, what each carries, and the
// one place each is written and read. The batch layout that msgExchBatch and
// msgShipBatch share is in exchange.go, the plan and expression encodings in
// plan.go and expr.go; everything is read through codec.Reader.
//
// Every message opens with the query id (8 bytes, big-endian). msgBegin and
// msgCancel are that header alone.

// Message types used by the query engine (storage types live in 0x0100+).
const (
	msgPrepare    transport.MsgType = 0x0200 // RPC: disseminate plan + snapshot
	msgBegin      transport.MsgType = 0x0201 // start leaf operations
	msgExchBatch  transport.MsgType = 0x0202 // rehash data block
	msgMark       transport.MsgType = 0x0203 // "this node finished phase p" for one scan or rehash
	msgScanIDs    transport.MsgType = 0x0204 // index node → data node tuple IDs
	msgShipBatch  transport.MsgType = 0x0206 // results to the query initiator
	msgShipEOS    transport.MsgType = 0x0207 // fragment completion + stats
	msgRecover    transport.MsgType = 0x0208 // incremental recovery directive
	msgCancel     transport.MsgType = 0x0209 // abandon the query
	msgShipCredit transport.MsgType = 0x020a // initiator → fragment: rows its sink has taken
)

func (ex *executor) header(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, ex.queryID)
}

// handle registers fn for one-way engine messages of type t behind the
// prologue they all share: read the query header, find that query's executor
// — a message for a query this node does not run (any more) is stale or
// cancelled, and dropped — and count the bytes received. fn gets the payload
// after the header.
func (e *Engine) handle(t transport.MsgType, fn func(ex *executor, from ring.NodeID, rest []byte) error) {
	e.node.Endpoint().Handle(t, func(from ring.NodeID, payload []byte) ([]byte, error) {
		r := codec.NewReader(payload)
		q, rest := r.U64(), r.Rest()
		if err := r.Done("engine: message header"); err != nil {
			return nil, err
		}
		ex := e.getExec(q)
		if ex == nil {
			return nil, nil
		}
		ex.stats.addRecvBytes(len(payload))
		return nil, fn(ex, from, rest)
	})
}

// registerHandlers is where each message lands: decoded here, acted on by
// the executor of the query it names.
func (e *Engine) registerHandlers() {
	e.node.Endpoint().Handle(msgPrepare, func(from ring.NodeID, payload []byte) ([]byte, error) {
		return nil, e.handlePrepare(payload)
	})

	e.handle(msgBegin, func(ex *executor, _ ring.NodeID, _ []byte) error {
		ex.start()
		return nil
	})

	e.handle(msgExchBatch, func(ex *executor, _ ring.NodeID, rest []byte) error {
		exchID, batch, err := decodeExchBatch(rest)
		if err != nil {
			return err
		}
		cb := newColBatch(0)
		if err := decodeShipBatch(batch, cb); err != nil {
			return err
		}
		ex.stats.addExchRecv(cb.cols.N)
		if cons := ex.consumers[exchID]; cons != nil {
			cons.receive(cb)
		}
		return nil
	})

	e.handle(msgMark, func(ex *executor, from ring.NodeID, rest []byte) error {
		id, phase, err := decodeMark(rest)
		if err != nil {
			return err
		}
		if m := ex.marked[id]; m != nil {
			m.mark(from, phase)
		}
		return nil
	})

	e.handle(msgScanIDs, func(ex *executor, _ ring.NodeID, rest []byte) error {
		scanID, fromIdx, ids, hashes, err := decodeScanIDs(rest)
		if err != nil {
			return err
		}
		if fromIdx >= ex.snapshot.Size() {
			return errors.New("engine: bad scan sender")
		}
		if leaf := ex.scans[scanID]; leaf != nil {
			leaf.addWanted(ids, hashes, fromIdx)
		}
		return nil
	})

	e.handle(msgShipBatch, func(ex *executor, from ring.NodeID, rest []byte) error {
		if ex.shipCons == nil {
			return nil
		}
		// A one-way handler's error goes nowhere: a shipment that does
		// not decode or fit the collection must fail the query here.
		if err := ex.shipCons.receiveWire(from, rest); err != nil {
			ex.shipCons.fail(&ShipError{Node: from, Err: err})
		}
		return nil
	})

	e.handle(msgShipEOS, func(ex *executor, from ring.NodeID, rest []byte) error {
		if ex.shipCons == nil {
			return nil
		}
		phase, st, failure, spanEnc, err := decodeShipEOS(rest)
		if err != nil {
			return err
		}
		var span *obs.Span
		if len(spanEnc) > 0 && ex.trace != nil {
			span, _, _ = obs.DecodeSpan(spanEnc)
		}
		ex.shipCons.fragmentDone(from, phase, st, span, failure)
		return nil
	})

	e.handle(msgRecover, func(ex *executor, _ ring.NodeID, rest []byte) error {
		dir, err := decodeRecoverDirective(rest)
		if err != nil {
			return err
		}
		// Advance synchronously, on the delivery loop: per-link FIFO
		// guarantees the directive precedes any recovery-phase traffic
		// from its sender, and arrival-time taint filtering
		// (filterAndStamp, addWanted) must already see the failed bits
		// when that traffic is processed. The heavyweight purge/replay/
		// restart work runs off-loop.
		if ex.advance(dir) {
			go ex.applyRecover()
		}
		return nil
	})

	e.handle(msgShipCredit, func(ex *executor, from ring.NodeID, rest []byte) error {
		rows, err := decodeShipCredit(rest)
		if err != nil {
			return err
		}
		if !ex.credit || from != ex.initiator {
			return errors.New("engine: ship credit from a node that does not grant it")
		}
		ex.shipper.credit.grant(rows)
		return nil
	})

	e.handle(msgCancel, func(ex *executor, _ ring.NodeID, _ []byte) error {
		ex.abort() // stop in-flight local scan passes
		e.dropExec(ex.queryID)
		return nil
	})
}

// --- msgMark: id uvarint | phase(4) ---

func encodeMark(dst []byte, id int, phase uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(id))
	return binary.BigEndian.AppendUint32(dst, phase)
}

func decodeMark(data []byte) (id int, phase uint32, err error) {
	r := codec.NewReader(data)
	id, phase = int(r.Uvarint()), r.U32()
	return id, phase, r.Done("engine: phase marker")
}

// --- msgShipCredit: rows uvarint ---

func encodeShipCredit(dst []byte, rows int) []byte {
	return binary.AppendUvarint(dst, uint64(rows))
}

// decodeShipCredit reads a credit grant. A fragment never has more rows
// outstanding than its window, so a grant beyond it is refused.
func decodeShipCredit(data []byte) (int, error) {
	r := codec.NewReader(data)
	rows := r.Uvarint()
	if rows > shipCreditRows {
		r.Fail(errors.New("ship credit beyond the window"))
	}
	return int(rows), r.Done("engine: ship credit")
}

// --- msgExchBatch: exchange id uvarint | batch (encodeShipBatch) ---

func encodeExchBatch(dst []byte, exchID int, cb *colBatch, phase uint32) ([]byte, error) {
	return encodeShipBatch(binary.AppendUvarint(dst, uint64(exchID)), cb, phase)
}

func decodeExchBatch(data []byte) (exchID int, batch []byte, err error) {
	r := codec.NewReader(data)
	exchID, batch = int(r.Uvarint()), r.Rest()
	return exchID, batch, r.Done("engine: rehash block")
}

// --- msgScanIDs ---

// encodeScanIDs appends a tuple-ID shipment: the scan it belongs to, the
// sending index node's snapshot member index, and per ID its epoch, its key
// and its placement hash.
func encodeScanIDs(dst []byte, scanID, fromIdx int, ids []tuple.ID, hashes []keyspace.Key) []byte {
	dst = binary.AppendUvarint(dst, uint64(scanID))
	dst = binary.AppendUvarint(dst, uint64(fromIdx))
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for i, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, uint64(id.Epoch))
		dst = binary.AppendUvarint(dst, uint64(len(id.Key)))
		dst = append(dst, id.Key...)
		dst = append(dst, hashes[i][:]...)
	}
	return dst
}

// decodeScanIDs reverses encodeScanIDs. Every ID's key is a substring of
// one string holding all the message's key bytes, so a shipment costs a
// constant number of allocations, not one per ID: a first walk over a copy
// of the reader sums the key lengths (bounded by the message itself).
func decodeScanIDs(data []byte) (scanID, fromIdx int, ids []tuple.ID, hashes []keyspace.Key, err error) {
	r := codec.NewReader(data)
	scan, from := r.Uvarint(), r.Uvarint()
	if scan > math.MaxInt32 || from > math.MaxInt32 {
		r.Fail(errors.New("scan or sender id out of range"))
	}
	n := r.Count(8 + 1 + keyspace.Size) // epoch, key length, hash
	size, probe := 0, r
	for i := 0; i < n && probe.Err() == nil; i++ {
		probe.U64()
		size += len(probe.Bytes())
		probe.Fixed(keyspace.Size)
	}
	var keys strings.Builder
	keys.Grow(size) // never outgrown: earlier substrings stay in one allocation
	ids = make([]tuple.ID, 0, n)
	hashes = make([]keyspace.Key, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		epoch, start := tuple.Epoch(r.U64()), keys.Len()
		keys.Write(r.Bytes())
		var h keyspace.Key
		copy(h[:], r.Fixed(keyspace.Size))
		ids, hashes = append(ids, tuple.ID{Epoch: epoch, Key: keys.String()[start:]}), append(hashes, h)
	}
	if err := r.Done("engine: scan ids"); err != nil {
		return 0, 0, nil, nil, err
	}
	return int(scan), int(from), ids, hashes, nil
}

// --- msgShipEOS: phase(4) | node stats(48) | failure bytes | span subtree? ---

func encodeNodeStats(dst []byte, s NodeStats) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.Scanned)
	dst = binary.BigEndian.AppendUint64(dst, s.ExchSent)
	dst = binary.BigEndian.AppendUint64(dst, s.ExchRecv)
	dst = binary.BigEndian.AppendUint64(dst, s.Shipped)
	dst = binary.BigEndian.AppendUint64(dst, s.BytesSent)
	dst = binary.BigEndian.AppendUint64(dst, s.BytesRecv)
	return dst
}

func decodeNodeStats(r *codec.Reader) NodeStats {
	return NodeStats{Scanned: r.U64(), ExchSent: r.U64(), ExchRecv: r.U64(),
		Shipped: r.U64(), BytesSent: r.U64(), BytesRecv: r.U64()}
}

// encodeShipEOS appends a fragment's completion report for a wave: its work
// counters, its ship-path failure ("" for none) and, when the fragment was
// traced, its span subtree.
func encodeShipEOS(dst []byte, phase uint32, st NodeStats, failure string, trace *obs.Trace) []byte {
	dst = binary.BigEndian.AppendUint32(dst, phase)
	dst = encodeNodeStats(dst, st)
	dst = codec.AppendBytes(dst, []byte(failure))
	return trace.EncodeRoot(dst)
}

// decodeShipEOS reverses encodeShipEOS up to the span subtree, which it
// returns encoded: a tree that fails to decode loses the trace, never the
// completion.
func decodeShipEOS(data []byte) (phase uint32, st NodeStats, failure string, span []byte, err error) {
	r := codec.NewReader(data)
	phase, st, failure, span = r.U32(), decodeNodeStats(&r), r.Str(), r.Rest()
	return phase, st, failure, span, r.Done("engine: ship eos")
}

// --- msgRecover ---

func encodeRecoverDirective(d recoverDirective) ([]byte, error) {
	out := binary.BigEndian.AppendUint32(nil, d.newPhase)
	out = binary.AppendUvarint(out, uint64(len(d.failedIdxs)))
	for _, idx := range d.failedIdxs {
		out = binary.AppendUvarint(out, uint64(idx))
	}
	tb, err := d.newTable.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return codec.AppendBytes(out, tb), nil
}

func decodeRecoverDirective(data []byte) (recoverDirective, error) {
	r := codec.NewReader(data)
	d := recoverDirective{newPhase: r.U32()}
	d.failedIdxs = make([]int, r.Count(1))
	for i := range d.failedIdxs {
		d.failedIdxs[i] = int(r.Uvarint())
	}
	tableEnc := r.Bytes()
	if err := r.Done("engine: recover directive"); err != nil {
		return d, err
	}
	var err error
	d.newTable, err = ring.UnmarshalTable(tableEnc)
	return d, err
}

// --- msgPrepare ---

func encodeMeta(dst []byte, name string, m *relMeta) []byte {
	dst = codec.AppendBytes(dst, []byte(name))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.effEpoch))
	dst = codec.AppendBytes(dst, vstore.EncodeSchema(m.schema))
	if m.coord == nil {
		return append(dst, 0)
	}
	return codec.AppendBytes(append(dst, 1), vstore.EncodeCoordinator(m.coord))
}

// metaMinSize is the least a relation's metadata encodes to: name length,
// epoch, schema length, coordinator flag.
const metaMinSize = 1 + 8 + 1 + 1

func decodeMeta(r *codec.Reader) (name string, m *relMeta) {
	name = r.Str()
	m = &relMeta{effEpoch: tuple.Epoch(r.U64())}
	schemaEnc := r.Bytes()
	var coordEnc []byte
	hasCoord := r.U8() == 1
	if hasCoord {
		coordEnc = r.Bytes()
	}
	if r.Err() != nil {
		return "", nil
	}
	var err error
	if m.schema, err = vstore.DecodeSchema(schemaEnc); err == nil && hasCoord {
		m.coord, err = vstore.DecodeCoordinator(coordEnc)
	}
	if err != nil {
		r.Fail(err)
	}
	return name, m
}

// prepareMsg is everything a node needs to participate in a query: the query
// identity, the initiator, the snapshot epoch, the options that travel,
// whether fragments ship against credit, the routing table snapshot, the
// plan, and the resolved per-relation metadata.
type prepareMsg struct {
	queryID   uint64
	initiator ring.NodeID
	epoch     tuple.Epoch
	opts      Options
	credit    bool
	table     *ring.Table
	plan      *Plan
	metas     map[string]*relMeta
}

func encodePrepare(queryID uint64, initiator ring.NodeID, epoch tuple.Epoch,
	opts Options, credit bool, table *ring.Table, plan *Plan, metas map[string]*relMeta) ([]byte, error) {
	out := binary.BigEndian.AppendUint64(nil, queryID)
	out = codec.AppendBytes(out, []byte(initiator))
	out = binary.BigEndian.AppendUint64(out, uint64(epoch))
	var flags byte
	if opts.Provenance {
		flags |= 1
	}
	if credit {
		flags |= 2
	}
	out = append(out, flags, byte(opts.Recovery))
	var tid obs.TraceID
	if opts.Trace != nil {
		tid = opts.Trace.ID
	}
	out = binary.BigEndian.AppendUint64(out, uint64(tid))
	tb, err := table.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out = codec.AppendBytes(out, tb)
	out = codec.AppendBytes(out, EncodePlan(plan))
	out = binary.AppendUvarint(out, uint64(len(metas)))
	for name, m := range metas {
		out = encodeMeta(out, name, m)
	}
	return out, nil
}

func decodePrepare(payload []byte) (*prepareMsg, error) {
	r := codec.NewReader(payload)
	p := &prepareMsg{queryID: r.U64(), initiator: ring.NodeID(r.Str()), epoch: tuple.Epoch(r.U64())}
	flags := r.U8()
	p.opts = Options{Provenance: flags&1 != 0, Recovery: RecoveryMode(r.U8()), TraceID: obs.TraceID(r.U64())}
	p.credit = flags&2 != 0
	tableEnc, planEnc := r.Bytes(), r.Bytes()
	if r.Err() != nil {
		return nil, r.Done("engine: prepare")
	}
	var err error
	if p.table, err = ring.UnmarshalTable(tableEnc); err != nil {
		return nil, err
	}
	if p.plan, err = DecodePlan(planEnc); err != nil {
		return nil, err
	}
	n := r.Count(metaMinSize)
	p.metas = make(map[string]*relMeta, n)
	for ; n > 0 && r.Err() == nil; n-- {
		name, m := decodeMeta(&r)
		p.metas[name] = m
	}
	if err := r.Done("engine: prepare"); err != nil {
		return nil, err
	}
	return p, nil
}
