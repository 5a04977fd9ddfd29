package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// flushRows is the destination-batch size: tuples are accumulated per
// destination and shipped in compressed blocks (§V-A).
const flushRows = 1024

// --- the inter-node batch layout ---
//
// Rehash blocks and ship blocks travel in one layout: the execution phase,
// a provenance flag, a dictionary-coded provenance column — distinct
// provenance sets are listed once, each row referencing its set by index —
// and the rows, column-major and compressed (the tuple batch codec). The
// dictionary keeps the provenance overhead to roughly one byte per tuple,
// which is how the paper achieves its ≤2% traffic overhead for recovery
// support.

// shipCompressMin is the raw body size at which a batch is compressed.
const shipCompressMin = 256

// appendProvColumn appends the dictionary-coded provenance column.
func appendProvColumn(dst []byte, provs []Prov) []byte {
	dict := make(map[string]int)
	var keys []string
	idxs := make([]int, len(provs))
	for i, p := range provs {
		if i > 0 && sameProv(p, provs[i-1]) {
			idxs[i] = idxs[i-1] // a run of rows sharing one set
			continue
		}
		k := p.Key()
		id, ok := dict[k]
		if !ok {
			id = len(keys)
			dict[k] = id
			keys = append(keys, k)
		}
		idxs[i] = id
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(idxs)))
	for _, id := range idxs {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// decodeBatchHeader reads the phase, the provenance flag and — when set —
// the provenance column, one entry per row, returning the rest of the
// payload. Rows with equal sets share one Prov: clone before mutating.
func decodeBatchHeader(data []byte) (phase uint32, provs []Prov, rest []byte, err error) {
	r := codec.NewReader(data)
	phase = r.U32()
	if r.U8() == 1 {
		dict := make([]Prov, r.Count(1))
		for i := range dict {
			dict[i] = ProvFromKey(r.Str())
		}
		provs = make([]Prov, r.Count(1))
		for i := range provs {
			id := r.Uvarint()
			if id >= uint64(len(dict)) {
				r.Fail(errors.New("provenance index out of range"))
				break
			}
			provs[i] = dict[id]
		}
	}
	rest = r.Rest()
	return phase, provs, rest, r.Done("engine: batch header")
}

// encodeShipBatch appends the inter-node encoding of cb, to be filed under
// phase at the receiver (executor.exchPhase says why that is not always
// cb's own). cb.prov is nil (no provenance column) or holds one set per row.
func encodeShipBatch(dst []byte, cb *colBatch, phase uint32) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, phase)
	if cb.prov == nil {
		dst = append(dst, 0)
	} else if len(cb.prov) != cb.cols.N {
		return nil, fmt.Errorf("engine: %d provenance sets for %d rows", len(cb.prov), cb.cols.N)
	} else {
		dst = appendProvColumn(append(dst, 1), cb.prov)
	}
	return tuple.AppendBatchCols(dst, cb.cols, shipCompressMin)
}

// decodeShipBatch decodes an inter-node payload into the empty batch cb: its
// rows onto cb's column vectors, its phase, and its provenance vector (nil
// when the payload carries none). A failed decode leaves cb as it was.
func decodeShipBatch(data []byte, cb *colBatch) error {
	phase, provs, rest, err := decodeBatchHeader(data)
	if err != nil {
		return err
	}
	bb, err := tuple.OpenBatch(rest)
	if err != nil {
		return err
	}
	return decodeShipRows(&bb, phase, provs, cb)
}

// decodeShipRows is decodeShipBatch past the header: the opened body's rows
// onto cb, with the header's phase and provenance.
func decodeShipRows(bb *tuple.BatchBody, phase uint32, provs []Prov, cb *colBatch) error {
	n, err := bb.DecodeInto(cb.cols)
	if err != nil {
		return err
	}
	if provs != nil && len(provs) != n {
		cb.cols.Truncate(cb.cols.N - n)
		return errors.New("engine: prov index count mismatch")
	}
	cb.phase, cb.prov = phase, provs
	return nil
}

// --- exchange producer (rehash) ---

// exchBlock is the rows a rehash has routed to one destination: the block
// filling up for the next send or, in the replay cache, one already sent.
type exchBlock struct {
	dest ring.NodeID
	cb   *colBatch
	// hashes holds each row's routing hash in provenance mode, so a replay
	// can re-route the rows without the key columns' encoding.
	hashes []keyspace.Key
	sel    []int // push scratch: rows of the incoming batch routed here
}

// exchProducer is the sending half of a rehash: it partitions its input by
// hash of the key columns into one pending block per destination, ships a
// block when it is full (§V-A), and in provenance mode retains what it sent
// so that rows sent to a node that later fails can be recreated without
// redoing the upstream work (§V-D stage 4).
type exchProducer struct {
	ex     *executor
	exchID int
	keys   []int

	mu      sync.Mutex
	pending map[ring.NodeID]*exchBlock
	cache   []*exchBlock // provenance mode: every block sent so far
	keyBuf  []byte
}

func newExchProducer(ex *executor, exchID int, keys []int) *exchProducer {
	return &exchProducer{
		ex:      ex,
		exchID:  exchID,
		keys:    keys,
		pending: make(map[ring.NodeID]*exchBlock),
	}
}

// cutLocked takes dest's pending block for sending, retaining it for replay
// in provenance mode.
func (p *exchProducer) cutLocked(dest ring.NodeID) *exchBlock {
	blk := p.pending[dest]
	delete(p.pending, dest)
	if p.ex.opts.Provenance {
		p.cache = append(p.cache, blk)
	}
	return blk
}

func (p *exchProducer) send(blocks []*exchBlock) {
	for _, blk := range blocks {
		p.ex.sendExchBatch(p.exchID, blk.dest, blk.cb)
	}
}

// routeLocked files the rows of cb under the owners table assigns their
// hashes — hashes[i] when given, else the hash of row i's key columns — in
// pending blocks tagged phase, skipping rows tainted by failed (nil: none),
// and returns the blocks that became due: full ones, and ones cut short
// because the rows now arriving belong to another phase. A row that does
// not fit its block's column types fails the fragment.
func (p *exchProducer) routeLocked(table *ring.Table, cb *colBatch, hashes []keyspace.Key, failed Prov, phase uint32) []*exchBlock {
	var due []*exchBlock
	for i := 0; i < cb.cols.N; i++ {
		if failed != nil && cb.prov[i].Intersects(failed) {
			continue
		}
		var h keyspace.Key
		if hashes != nil {
			h = hashes[i]
		} else {
			p.keyBuf = appendBatchKey(p.keyBuf[:0], cb.cols, i, p.keys)
			h = keyspace.Hash(p.keyBuf)
		}
		dest := table.Owner(h)
		blk := p.pending[dest]
		if blk != nil && blk.cb.phase != phase {
			due = append(due, p.cutLocked(dest))
			blk = nil
		}
		if blk == nil {
			blk = &exchBlock{dest: dest, cb: newColBatch(phase)}
			p.pending[dest] = blk
		}
		blk.sel = append(blk.sel, i)
		if p.ex.opts.Provenance {
			blk.hashes = append(blk.hashes, h)
		}
	}
	for dest, blk := range p.pending {
		if len(blk.sel) == 0 {
			continue
		}
		if err := blk.cb.appendRows(cb, blk.sel); err != nil {
			p.ex.shipper.fail(fmt.Errorf("engine: rehash %d: %w", p.exchID, err))
		}
		blk.sel = blk.sel[:0]
		if blk.cb.cols.N >= flushRows {
			due = append(due, p.cutLocked(dest))
		}
	}
	return due
}

func (p *exchProducer) push(cb *colBatch) {
	p.mu.Lock()
	// The routing table must be read inside the cache critical section:
	// replay() holds the same lock after the recovery table is installed,
	// so every block is either scanned by replay or routed by the recovery
	// table — never routed to a dead node and missed by replay.
	due := p.routeLocked(p.ex.currentTable(), cb, nil, nil, cb.phase)
	p.mu.Unlock()
	p.send(due)
}

// eos flushes all pending blocks and broadcasts end-of-stream for the
// current phase to every live node (§V-B: the rehash operator cannot
// complete until its data is fully delivered; per-link FIFO ordering plus
// the trailing EOS marker provide that guarantee).
func (p *exchProducer) eos(phase uint32) {
	p.mu.Lock()
	due := make([]*exchBlock, 0, len(p.pending))
	for dest, blk := range p.pending {
		if blk.cb.cols.N > 0 {
			due = append(due, p.cutLocked(dest))
		}
	}
	p.mu.Unlock()
	p.send(due)
	if phase < p.ex.phaseNow() {
		// A superseded wave must not complete anywhere: since this node
		// advanced it has been filtering by the failed set, so its output
		// for the wave may be short, and a consumer that has not seen the
		// directive yet would take the marker as "all data delivered".
		return
	}
	p.ex.broadcastMark(p.exchID, phase)
}

// replay re-sends the clean rows of blocks whose destination has since
// failed — sent ones from the cache, and pending ones that never left —
// now routed by the recovery table and tagged with the new phase. Their
// tainted rows are dropped: the upstream restart will regenerate them.
// Blocks bound for live nodes are left alone, including rows a push
// concurrent with the table swap already routed by the recovery table:
// resending those would duplicate.
func (p *exchProducer) replay(failed Prov, newTable *ring.Table, newPhase uint32) {
	p.mu.Lock()
	var lost []*exchBlock
	kept := p.cache[:0]
	for _, blk := range p.cache {
		if newTable.Contains(blk.dest) {
			kept = append(kept, blk)
		} else {
			lost = append(lost, blk)
		}
	}
	p.cache = kept
	for dest, blk := range p.pending {
		if !newTable.Contains(dest) {
			delete(p.pending, dest)
			lost = append(lost, blk)
		}
	}
	var due []*exchBlock
	for _, blk := range lost {
		due = append(due, p.routeLocked(newTable, blk.cb, blk.hashes, failed, newPhase)...)
	}
	p.mu.Unlock()
	p.send(due)
}

// --- exchange consumer ---

// exchConsumer is the receiving half of a rehash on one node: it filters
// tainted tuples, stamps the local node into each tuple's provenance, and
// ends its output's wave when every live producer has ended theirs.
type exchConsumer struct {
	ex   *executor
	out  sink
	gate *phaseGate
}

func newExchConsumer(ex *executor, out sink) *exchConsumer {
	return &exchConsumer{ex: ex, out: out, gate: newPhaseGate(ex.wave, nil)}
}

// receive processes an incoming block (possibly from an earlier phase —
// clean tuples from live nodes remain valid; tainted ones are dropped). The
// block is the consumer's to mutate.
func (c *exchConsumer) receive(cb *colBatch) {
	c.ex.filterAndStamp(cb)
	if cb.cols.N > 0 {
		c.out.push(cb)
	}
}

// mark records a producer's end-of-stream for a phase.
func (c *exchConsumer) mark(from ring.NodeID, phase uint32) { c.done(c.gate.mark(from, phase)) }

func (c *exchConsumer) recheck() { c.done(c.gate.fire(false)) }

// done passes a completed wave's end-of-stream downstream.
func (c *exchConsumer) done(phase uint32, _ uint64, ok bool) {
	if ok {
		c.out.eos(phase)
	}
}

// --- ship ---

// ShipError reports that fragment output could not be shipped to, or
// accepted at, the initiator: an encode or append failure at Node's
// fragment, or a decode or shape failure of Node's shipment. The answer
// would be short, so the query fails. Deliberately not a FailureError — a
// restart would meet the same data.
type ShipError struct {
	Node ring.NodeID
	Err  error
}

func (e *ShipError) Error() string { return fmt.Sprintf("engine: ship from %s: %v", e.Node, e.Err) }
func (e *ShipError) Unwrap() error { return e.Err }

// shipProducer sends final fragment output to the query initiator
// (Table I, ship). Whatever batch the fragment's last operator pushes stays
// a batch to the client: on the initiator's own node it hands over to the
// ship consumer directly, elsewhere it coalesces into the pending batch
// until a shipment is due.
type shipProducer struct {
	ex *executor

	mu      sync.Mutex
	pending *colBatch // rows toward the next shipment; nil until the first push
	err     error     // first failure: shipping stops, the EOS reports it
	sel     []int     // top-K scratch: the rows of a push that beat the K-th
	sort    sortBuf   // top-K scratch: every sort of the pending batch

	// credit is the fragment's send window when executor.credit is set.
	credit shipCredit
}

// shipCreditRows is the send window of a fragment of a streamed,
// exchange-free plan: the rows it may have shipped that the initiator's
// sink has not yet taken. The initiator therefore buffers at most members ×
// shipCreditRows rows however slow its sink, and a fragment that has used
// its window stops (its scan pass waits) rather than buffering. Two blocks
// let a fragment fill one while the other is drained.
const shipCreditRows = 2 * flushRows

// shipCredit is a fragment's send window. Only a scan pass goroutine takes
// from it — never a delivery loop — so waiting here holds up nothing but
// this fragment's own pass.
type shipCredit struct {
	mu      sync.Mutex
	cond    sync.Cond
	avail   int
	closed  bool // the query is over on this node: nobody waits any more
	waiting int  // passes parked on the window
}

func (c *shipCredit) init(rows int) {
	c.cond.L = &c.mu
	c.avail = rows
}

// take reserves rows of the window, waiting while it is short. It reports
// false, having reserved nothing, once the query is over here.
func (c *shipCredit) take(rows int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.avail < rows && !c.closed {
		c.waiting++
		c.cond.Wait()
		c.waiting--
	}
	if c.closed {
		return false
	}
	c.avail -= rows
	return true
}

// grant returns rows the initiator's sink has taken.
func (c *shipCredit) grant(rows int) {
	c.mu.Lock()
	c.avail += rows
	c.cond.Broadcast()
	c.mu.Unlock()
}

// close wakes every waiter for good: the query was cancelled, failed, or
// lost its initiator.
func (c *shipCredit) close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// fail records the fragment's first failure — a shipment that could not be
// built or encoded, or an operator whose output does not form a batch. The
// fragment's EOS carries it to the initiator as a ShipError.
func (s *shipProducer) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// push takes a batch from the operator pipeline. The batch is borrowed
// (sink contract). A full block on the initiator's own node hands over to
// the consumer, which copies it into its accumulator before returning;
// anything else is copied into the pending batch, so that shipments — and
// the frames a streaming client receives — are blocks, not whatever sliver
// survived a filter or matched in a join. A batch whose arity or types
// disagree with what is pending fails the fragment.
func (s *shipProducer) push(cb *colBatch) {
	if cb.cols.N >= flushRows && s.ex.mode != shipTopK && s.ex.initiator == s.ex.self() {
		s.send(cb)
		return
	}
	s.mu.Lock()
	if s.pending == nil {
		s.pending = newColBatch(0)
	}
	if s.err == nil && s.ex.mode == shipTopK {
		s.err = s.keepTopKLocked(cb)
	} else if s.err == nil {
		s.err = s.pending.appendBatch(cb)
	}
	due := s.cutLocked(false)
	s.mu.Unlock()
	s.ship(due)
}

// keepTopKLocked is the fragment half of the top-K pushdown: it adds cb to
// the pending batch and cuts that back to the first K rows under the plan's
// sort, so a fragment holds at most K rows and one batch. A row outside the
// first K of what has arrived can never re-enter, and the sort is stable,
// so ties keep arrival order. Once K rows are held they are sorted, and an
// arrival is copied only if it beats the K-th: the rest of the batch is
// dropped before anything is copied or sorted. The borrowed batch itself
// is left as it is — a projection may have given two of its columns one
// vector, which an in-place compaction would compact twice.
func (s *shipProducer) keepTopKLocked(cb *colBatch) error {
	keys, k := topKParams(s.ex.plan)
	p := s.pending.cols
	if p.N < k || k == 0 {
		if err := s.pending.appendBatch(cb); err != nil {
			return err
		}
	} else {
		// An empty gather checks cb's shape before the comparator reads it.
		if err := p.AppendRowsFrom(cb.cols, nil); err != nil {
			return err
		}
		s.sel = s.sel[:0]
		for i := 0; i < cb.cols.N; i++ {
			if cmpBatchRows(cb.cols, i, p, k-1, keys) < 0 {
				s.sel = append(s.sel, i)
			}
		}
		if len(s.sel) == 0 {
			return nil
		}
		if err := s.pending.appendRows(cb, s.sel); err != nil {
			return err
		}
	}
	if p.N >= k {
		sortCols(p, keys, &s.sort)
		p.Truncate(k)
	}
	return nil
}

// cutLocked takes the pending batch for shipping if it is due: at
// flushRows rows, or whatever is there when final. In top-K mode nothing
// ships before eos: until then any held row can still be displaced. A
// failed fragment ships nothing further.
func (s *shipProducer) cutLocked(final bool) *colBatch {
	cb := s.pending
	if cb == nil || cb.cols.N == 0 || s.err != nil || (!final && (s.ex.mode == shipTopK || cb.cols.N < flushRows)) {
		return nil
	}
	s.pending = nil
	return cb
}

// ship sends a cut batch and keeps its vectors for the next pending batch.
func (s *shipProducer) ship(cb *colBatch) {
	if cb == nil {
		return
	}
	s.send(cb)
	cb.cols.Truncate(0)
	cb.prov = cb.prov[:0]
	s.mu.Lock()
	if s.pending == nil {
		s.pending = cb
	}
	s.mu.Unlock()
}

// send ships cb in flushRows-row chunks, in order — chunks of one sorted run
// stay sorted end to end (per-link FIFO) — each against the send window when
// the fragment holds one. A query that ended while it waited ships no more.
func (s *shipProducer) send(cb *colBatch) {
	chunk := cb
	if cb.cols.N > flushRows {
		chunk = newColBatch(0)
	}
	for lo := 0; lo < cb.cols.N; lo += flushRows {
		hi := min(lo+flushRows, cb.cols.N)
		if chunk != cb {
			cb.cols.Slice(lo, hi, chunk.cols)
			if cb.prov != nil {
				chunk.prov = cb.prov[lo:hi]
			}
		}
		if s.ex.credit && !s.credit.take(hi-lo) {
			return
		}
		s.ex.sendShip(chunk)
	}
}

// eos ships what is pending and reports fragment completion. In top-K mode
// fewer than K rows may never have been sorted (keepTopKLocked).
func (s *shipProducer) eos(phase uint32) {
	s.mu.Lock()
	if s.ex.mode == shipTopK && s.pending != nil {
		keys, _ := topKParams(s.ex.plan)
		sortCols(s.pending.cols, keys, &s.sort)
	}
	due := s.cutLocked(true)
	s.mu.Unlock()
	s.ship(due)
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	s.ex.sendShipEOS(phase, err)
}

// shipConsumer collects results at the initiator, purging tainted rows on
// recovery. It signals each phase whose EOS wave completes on completeCh;
// the initiator's run loop accepts a completion only if that phase is still
// current — a completion that races with a failure detection is stale and
// ignored (§V-D: phases differentiate old in-flight data from recomputed
// results).
type shipConsumer struct {
	ex *executor

	// gate fires when every live fragment has reported the current phase
	// done — or early, once a pushed-down limit is satisfied.
	gate       *phaseGate
	completeCh chan uint32

	mu      sync.Mutex
	acc     colBatch // the collected answer (a pooled batch) and, in provenance mode, its rows' sets
	limit   int      // limit-only final pipeline: stop at N rows (-1: none)
	sealed  bool     // accepted completion: drop late arrivals
	statsBy map[ring.NodeID]NodeStats
	spanBy  map[ring.NodeID]*obs.Span // remote fragment traces (last report wins)

	// Top-K pushdown (shipTopK): one sorted run per source node, kept
	// separate for the K-way merge at seal.
	runs map[ring.NodeID]*tuple.Batch

	// Partial-agg pushdown (shipAggMerge): arriving partial rows fold
	// straight into the FinalAgg's group table — initiator memory is
	// O(groups), not O(shipped partials).
	agg *groupTable

	// failCh carries the first ship-path or sink failure to the run loop.
	failCh chan error

	// Streamed emission (shipStream with a sink): receive never blocks —
	// it appends as before and nudges the drainer goroutine, which swaps
	// the accumulator out and emits to the sink (possibly blocking on
	// wire credit there, never on a transport delivery loop). When the
	// fragments hold ship credit (executor.credit), owed counts each
	// source's rows received since the last swap; the drainer returns them
	// once it has emitted them.
	sink      StreamSink
	streamFin finalPipeline
	notify    chan struct{}
	stopDrain chan struct{}
	drainDone chan struct{}
	stopOnce  sync.Once
	streamed  atomic.Int64
	peak      int // high-water mark of rows buffered while streaming
	owed      map[ring.NodeID]int

	// Relay (a FrameSink and an empty final pipeline; relays): a full
	// block from a remote fragment is checked and queued as it was
	// encoded, and the drainer hands its bytes to frames, returning its
	// credit once frames has taken it. relaySig is the column types of the
	// first relayed block; every later one must have them too.
	frames    FrameSink
	relayQ    []relayBlock
	relayRows int
	relaySig  []tuple.Type
}

// relayBlock is one shipment queued for relay: its encoded batch (the
// message payload past the ship header — a transport hands each handler
// its own payload, and sendShip builds a fresh one per shipment) and the
// rows it holds.
type relayBlock struct {
	from  ring.NodeID
	batch []byte
	rows  int
}

func newShipConsumer(ex *executor) *shipConsumer {
	return &shipConsumer{
		ex:         ex,
		gate:       newPhaseGate(ex.wave, nil),
		completeCh: make(chan uint32, 16),
		acc:        colBatch{cols: getResultBatch()},
		limit:      -1,
		statsBy:    make(map[ring.NodeID]NodeStats),
		failCh:     make(chan error, 1),
	}
}

// fail aborts the query with err; only the first failure is kept.
func (s *shipConsumer) fail(err error) {
	select {
	case s.failCh <- err:
	default:
	}
	s.ex.abort()
}

// startStream arms streamed emission: subsequent arrivals wake a drainer
// goroutine that hands accumulated batches to sink during execution. With
// relay set (the plan relays) and a sink that sends encoded batches, full
// remote blocks go to it undecoded. Called once, before execution starts.
func (s *shipConsumer) startStream(sink StreamSink, final finalPipeline, relay bool) {
	s.sink = sink
	s.streamFin = final
	if fs, ok := sink.(FrameSink); ok && relay {
		s.frames = fs
	}
	s.notify = make(chan struct{}, 1)
	s.stopDrain = make(chan struct{})
	s.drainDone = make(chan struct{})
	go s.drainLoop()
}

// stopStreaming seals the consumer and joins the drainer (which performs
// one final drain of everything accumulated before the seal). Idempotent;
// a no-op when streaming was never armed.
func (s *shipConsumer) stopStreaming() {
	if s.sink == nil {
		return
	}
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.sealed = true
		s.mu.Unlock()
		close(s.stopDrain)
		<-s.drainDone
	})
}

func (s *shipConsumer) notifyDrainLocked() {
	if s.sink == nil {
		return
	}
	if n := s.acc.cols.N + s.relayRows; n > s.peak {
		s.peak = n
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// drainLoop is the initiator-side drainer: it swaps the accumulated batch
// out under the lock (replacing it with a fresh arena batch) and emits it
// through the sink. Emission may block on the consumer (wire credit);
// receive never does. Exits on a sink error (recording it for the run
// loop) or after the final drain once stopStreaming closed stopDrain.
func (s *shipConsumer) drainLoop() {
	defer close(s.drainDone)
	var spare []relayBlock // the queue swapped out last round, emptied
	for {
		stopping := false
		select {
		case <-s.notify:
			select {
			case <-s.stopDrain:
				stopping = true
			default:
			}
		case <-s.stopDrain:
			stopping = true
		}
		var cols *tuple.Batch
		s.mu.Lock()
		if s.acc.cols.N > 0 {
			cols, s.acc.cols = s.acc.cols, getResultBatch()
		}
		blocks := s.relayQ
		s.relayQ, s.relayRows = spare, 0
		owed := s.owed
		s.owed = nil
		s.mu.Unlock()
		for _, blk := range blocks {
			if err := s.emitBlock(blk); err != nil {
				s.fail(err)
				return
			}
		}
		clear(blocks) // the payloads are spent
		spare = blocks[:0]
		if cols != nil {
			if err := s.emitChunk(cols); err != nil {
				s.fail(err)
				return
			}
		}
		for from, rows := range owed {
			s.ex.sendShipCredit(from, rows)
		}
		if stopping {
			return
		}
	}
}

// emitChunk pushes one drained chunk through the streaming final
// pipeline and into the sink. The drained batch is recycled afterwards.
func (s *shipConsumer) emitChunk(cols *tuple.Batch) error {
	defer RecycleResultBatch(cols)
	b, err := s.streamFin.apply(cols)
	if err != nil || b.N == 0 {
		return err
	}
	if err := s.sink.StreamCols(b); err != nil {
		return err
	}
	s.streamed.Add(int64(b.N))
	return nil
}

// emitBlock hands one relayed block to the sink and returns its credit. A
// block the sink will not send as it is goes the StreamCols way, decoded
// here (it was checked on arrival, so only the copy can fail).
func (s *shipConsumer) emitBlock(blk relayBlock) error {
	sent, err := s.frames.StreamEncoded(blk.batch, blk.rows)
	if err != nil {
		return err
	}
	if !sent {
		cols := getResultBatch()
		defer RecycleResultBatch(cols)
		if _, err := tuple.DecodeBatchInto(blk.batch, cols); err != nil {
			return &ShipError{Node: blk.from, Err: err}
		}
		if err := s.sink.StreamCols(cols); err != nil {
			return err
		}
	}
	s.streamed.Add(int64(blk.rows))
	if s.ex.credit {
		s.ex.sendShipCredit(blk.from, blk.rows)
	}
	return nil
}

// limitReachedLocked reports whether a pushed-down limit is satisfied:
// with a limit-only final pipeline any N collected rows are a complete
// answer (the collected set is duplicate-free by the scan contract), so
// further shipments can be dropped and the query completed early.
func (s *shipConsumer) limitReachedLocked() bool {
	return s.limit >= 0 && s.acc.cols.N >= s.limit
}

// checkLimitLocked completes the current phase early when the pushed-down
// limit has just been satisfied; the gate keeps that single-shot.
func (s *shipConsumer) checkLimitLocked() {
	if s.limitReachedLocked() {
		s.complete(s.gate.fire(true))
	}
}

// complete signals a completed phase to the run loop.
func (s *shipConsumer) complete(phase uint32, _ uint64, ok bool) {
	if !ok {
		return
	}
	select {
	case s.completeCh <- phase:
	default:
	}
}

// receive folds one shipment into the collection — one bulk copy per
// column vector, no per-row boxing. The batch is borrowed: the caller may
// reuse it after the call, and receive may compact it in place (tainted
// rows are dropped on arrival, under the same lock purge takes, so a
// shipment racing a recovery is filtered by one or the other). In top-K
// mode the rows append onto from's sorted run (chunks of one run arrive in
// order — per-link FIFO — so the run stays sorted); in partial-agg mode they
// fold straight into the merge accumulator. A shipment whose shape disagrees
// with what was collected before is an error: the caller fails the query.
func (s *shipConsumer) receive(from ring.NodeID, cb *colBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed || s.limitReachedLocked() {
		return nil
	}
	if s.ex.credit {
		// Every row that arrived was shipped against from's window, kept
		// or not (a tainted row is dropped below): the drainer owes it back.
		if s.owed == nil {
			s.owed = make(map[ring.NodeID]int)
		}
		s.owed[from] += cb.cols.N
		s.notifyDrainLocked()
	}
	if s.ex.opts.Provenance {
		if len(cb.prov) != cb.cols.N {
			return fmt.Errorf("engine: %d provenance sets for %d rows", len(cb.prov), cb.cols.N)
		}
		dropTainted(cb, s.ex.failedProv())
	}
	if cb.cols.N == 0 {
		return nil
	}
	switch s.ex.mode {
	case shipTopK:
		if s.runs == nil {
			s.runs = make(map[ring.NodeID]*tuple.Batch)
		}
		run := s.runs[from]
		if run == nil {
			run = getResultBatch()
			s.runs[from] = run
		}
		return run.AppendBatchInto(cb.cols)
	case shipAggMerge:
		return s.ex.plan.Final[0].(*FinalAgg).foldInto(s.agg, cb.cols)
	default:
		if err := s.acc.appendBatch(cb); err != nil {
			return err
		}
		s.checkLimitLocked()
		s.notifyDrainLocked()
	}
	return nil
}

// receiveWire handles an inbound ship payload (after the query-ID
// header). The body is opened and decoded outside the consumer lock —
// decode of concurrent fan-in from many nodes must not serialize on s.mu.
// A full block of a relaying plan is then checked and queued as it came
// (relay); anything else — a fragment's last partial block, every other
// class — decodes into a pooled scratch batch and folds in with one locked
// vector-wise append.
func (s *shipConsumer) receiveWire(from ring.NodeID, rest []byte) error {
	if tr := s.ex.trace; tr != nil {
		t0 := tr.SinceUs()
		defer func() {
			s.ex.shipDecUs.Add(tr.SinceUs() - t0)
			s.ex.shipDecBatches.Add(1)
			s.ex.shipDecBytes.Add(int64(len(rest)))
		}()
	}
	phase, provs, enc, err := decodeBatchHeader(rest)
	if err != nil {
		return err
	}
	bb, err := tuple.OpenBatch(enc)
	if err != nil {
		return err
	}
	if s.frames != nil && provs == nil && bb.Rows() == flushRows {
		return s.relay(from, enc, &bb)
	}
	scratch := colBatch{cols: getResultBatch()}
	defer RecycleResultBatch(scratch.cols)
	if err := decodeShipRows(&bb, phase, provs, &scratch); err != nil {
		return err
	}
	return s.receive(from, &scratch)
}

// relay queues a full block for the drainer to hand to the sink as the
// fragment encoded it. The block is still a peer's bytes: every value is
// walked first by the decoders' rules (BatchBody.Check), and its column
// types must be the ones every earlier relayed block had, so the sink never
// sends a frame the client's decoder would refuse or that changes shape
// mid-answer. Its rows count toward StreamPeak like accumulated ones.
func (s *shipConsumer) relay(from ring.NodeID, enc []byte, bb *tuple.BatchBody) error {
	var sig [8]tuple.Type
	types, err := bb.Check(sig[:0])
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
	}
	if s.relaySig == nil {
		s.relaySig = slices.Clone(types)
	} else if !slices.Equal(types, s.relaySig) {
		return fmt.Errorf("engine: block of types %v after blocks of %v", types, s.relaySig)
	}
	s.relayQ = append(s.relayQ, relayBlock{from: from, batch: enc, rows: bb.Rows()})
	s.relayRows += bb.Rows()
	s.notifyDrainLocked()
	return nil
}

// fragmentDone records a fragment's completion of a wave. fragErr is the
// failure the fragment reported with it, if any: its output is short, so
// the query fails before the wave can count as complete.
func (s *shipConsumer) fragmentDone(from ring.NodeID, phase uint32, st NodeStats, span *obs.Span, fragErr string) {
	if fragErr != "" {
		s.fail(&ShipError{Node: from, Err: errors.New(fragErr)})
	}
	s.mu.Lock()
	s.statsBy[from] = st
	if span != nil {
		if s.spanBy == nil {
			s.spanBy = make(map[ring.NodeID]*obs.Span)
		}
		s.spanBy[from] = span
	}
	s.mu.Unlock()
	s.complete(s.gate.mark(from, phase))
}

// remoteSpans returns the last-reported fragment span of each remote
// node, for attachment under the trace root at completion.
func (s *shipConsumer) remoteSpans() []*obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*obs.Span, 0, len(s.spanBy))
	for _, sp := range s.spanBy {
		out = append(out, sp)
	}
	return out
}

// purge drops tainted collected rows (recovery at the initiator; the
// provenance vector is in step with the rows whenever recovery can run).
func (s *shipConsumer) purge(failed Prov) {
	s.mu.Lock()
	dropTainted(&s.acc, failed)
	s.mu.Unlock()
}

func (s *shipConsumer) recheck() { s.complete(s.gate.fire(false)) }

// seal latches the consumer shut — late straggler shipments are dropped —
// and returns the collected answer, which the caller owns from here on.
// Top-K mode merge-truncates the per-source sorted runs to the top K (runs
// are taken in snapshot member order, so tie-breaking is deterministic for
// a given placement); partial-agg mode renders the incrementally merged
// groups. Called exactly once, when the initiator accepts a completion for
// the current phase.
func (s *shipConsumer) seal() (*tuple.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
	switch s.ex.mode {
	case shipTopK:
		runs := make([]*tuple.Batch, 0, len(s.runs))
		for _, id := range s.ex.snapshot.Members() {
			if b := s.runs[id]; b != nil {
				runs = append(runs, b)
			}
		}
		keys, k := topKParams(s.ex.plan)
		merged, err := mergeTruncateCols(runs, keys, k)
		for _, b := range runs {
			RecycleResultBatch(b)
		}
		s.runs = nil
		return merged, err
	case shipAggMerge:
		return s.agg.render(true), nil
	}
	return s.acc.cols, nil
}

// streamedRows reports rows already emitted to the sink (0 when not
// streaming) — once positive, a restart would duplicate output.
func (s *shipConsumer) streamedRows() int64 { return s.streamed.Load() }

// peakBuffered is the streaming-mode high-water mark of rows buffered at
// the initiator between drains.
func (s *shipConsumer) peakBuffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// nodeStats returns the per-node counters reported with ship EOS.
func (s *shipConsumer) nodeStats() map[ring.NodeID]NodeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ring.NodeID]NodeStats, len(s.statsBy))
	for k, v := range s.statsBy {
		out[k] = v
	}
	return out
}
