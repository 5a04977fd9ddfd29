package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"orchestra/internal/cluster"
	"orchestra/internal/keyspace"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// RecoveryMode selects how the initiator reacts to a node failure during
// query execution (§V-D).
type RecoveryMode uint8

const (
	// RecoverFail aborts the query and reports the failure to the caller.
	RecoverFail RecoveryMode = iota
	// RecoverRestart terminates and restarts the query over the remaining
	// nodes (§V-D "one option ... is to terminate and restart").
	RecoverRestart
	// RecoverIncremental recomputes only the portions of the query state
	// affected by the failed node (§V-D stages 1-4).
	RecoverIncremental
)

func (m RecoveryMode) String() string {
	switch m {
	case RecoverFail:
		return "fail"
	case RecoverRestart:
		return "restart"
	case RecoverIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("RecoveryMode(%d)", uint8(m))
	}
}

// Options configures one query execution.
type Options struct {
	// Provenance enables tagging each tuple with the set of nodes that
	// processed it, plus the producer-side output caches — the bookkeeping
	// required for incremental recovery (§V-D). Leaving it off removes the
	// 2-7% time overhead but forces restart-on-failure.
	Provenance bool
	// Recovery selects the failure reaction at the initiator.
	Recovery RecoveryMode
	// Epoch pins the snapshot epoch; 0 means the current gossip epoch.
	Epoch tuple.Epoch
	// MaxRestarts bounds RecoverRestart attempts (default 3).
	MaxRestarts int
	// Trace, when non-nil, collects a span tree for this execution: the
	// initiator attaches a per-node "fragment" span (scan passes, ship
	// encode/decode, cache attribution) under the trace root, and the
	// trace's ID is propagated to remote fragments in the prepare message.
	// Nil (the default) disables every instrumentation site — tracing
	// stays off the hot path.
	Trace *obs.Trace
	// TraceID carries the initiator's trace id to a remote executor; it
	// is set by the prepare decoder, never by callers.
	TraceID obs.TraceID
	// Sink, when non-nil, receives result batches during execution for
	// stream-eligible plans (no provenance, final pipeline of
	// compute/limit only): Result.Batch stays empty and
	// Result.Streamed counts the emitted rows. Ineligible plans ignore
	// it and return the collected answer as usual. Initiator-only and
	// never serialized. See StreamSink for the emission contract.
	Sink StreamSink
}

func (o Options) withDefaults() Options {
	if o.Recovery == RecoverIncremental {
		o.Provenance = true // incremental recovery requires provenance
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 3
	}
	return o
}

// NodeStats are the per-node work counters reported with each fragment's
// completion, used by the experiment harness to model completion time at
// the slowest node or link (§VI "Query Optimizer" cost logic).
type NodeStats struct {
	Scanned   uint64 // tuples produced by leaf scans
	ExchSent  uint64 // tuples sent through rehash operators
	ExchRecv  uint64 // tuples received from rehash operators
	Shipped   uint64 // tuples shipped to the initiator
	BytesSent uint64 // engine-layer payload bytes sent
	BytesRecv uint64 // engine-layer payload bytes received
}

// Add accumulates counters from another snapshot.
func (s *NodeStats) Add(o NodeStats) {
	s.Scanned += o.Scanned
	s.ExchSent += o.ExchSent
	s.ExchRecv += o.ExchRecv
	s.Shipped += o.Shipped
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
}

// statsCounters is the live (atomic) form of NodeStats.
type statsCounters struct {
	scanned   atomic.Uint64
	exchSent  atomic.Uint64
	exchRecv  atomic.Uint64
	shipped   atomic.Uint64
	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64
}

func (s *statsCounters) addScanned(n int)  { s.scanned.Add(uint64(n)) }
func (s *statsCounters) addExchSent(n int) { s.exchSent.Add(uint64(n)) }
func (s *statsCounters) addExchRecv(n int) { s.exchRecv.Add(uint64(n)) }
func (s *statsCounters) addShipped(n int)  { s.shipped.Add(uint64(n)) }
func (s *statsCounters) addSentBytes(n int) {
	s.bytesSent.Add(uint64(n))
}
func (s *statsCounters) addRecvBytes(n int) {
	s.bytesRecv.Add(uint64(n))
}

func (s *statsCounters) snapshot() NodeStats {
	return NodeStats{
		Scanned:   s.scanned.Load(),
		ExchSent:  s.exchSent.Load(),
		ExchRecv:  s.exchRecv.Load(),
		Shipped:   s.shipped.Load(),
		BytesSent: s.bytesSent.Load(),
		BytesRecv: s.bytesRecv.Load(),
	}
}

// Result is a completed query's answer set and execution metadata.
type Result struct {
	// Batch is the final answer set, column-major (after initiator-side
	// final operators). Its slabs may be returned to the arena
	// with RecycleResultBatch once the caller is completely done with them
	// — unless the caller keeps the batch (see RecycleResultBatch).
	Batch *tuple.Batch
	// Stats maps each participating node to its work counters (the last
	// report received from each).
	Stats map[ring.NodeID]NodeStats
	// Phases is 1 + the number of incremental recovery invocations.
	Phases uint32
	// Restarts counts full restarts performed (RecoverRestart mode).
	Restarts int
	// Epoch is the snapshot epoch the query executed against.
	Epoch tuple.Epoch
	// Streamed counts rows emitted through Options.Sink during
	// execution; when positive, Batch is empty — the whole answer went
	// through the sink.
	Streamed int64
	// StreamPeak is the high-water mark of result rows buffered at the
	// initiator while streaming — the memory-bound observability hook
	// (0 when the query did not stream).
	StreamPeak int
}

// TotalStats sums the per-node counters.
func (r *Result) TotalStats() NodeStats {
	var t NodeStats
	for _, s := range r.Stats {
		t.Add(s)
	}
	return t
}

// Engine is the per-node distributed query processor. Exactly one Engine is
// attached to each cluster node; it registers the engine message handlers
// on the node's transport endpoint and hosts one executor per in-flight
// query (local or remote).
type Engine struct {
	node *cluster.Node

	mu    sync.Mutex
	execs map[uint64]*executor
	nextQ uint32

	// passBufs recycles data-pass working memory (passBuf) across passes
	// and queries.
	passBufs sync.Pool
}

// New attaches a query engine to a storage node.
func New(node *cluster.Node) *Engine {
	e := &Engine{
		node:  node,
		execs: make(map[uint64]*executor),
	}
	e.registerHandlers()
	node.OnPeerDown(e.peerDown)
	node.OnClose(e.abortAll)
	return e
}

// getPassBuf takes a pass buffer from the pool; the pass puts it back.
func (e *Engine) getPassBuf() *passBuf {
	if b, ok := e.passBufs.Get().(*passBuf); ok {
		return b
	}
	return new(passBuf)
}

// Node returns the storage node this engine is attached to.
func (e *Engine) Node() *cluster.Node { return e.node }

// newQueryID derives a globally unique query identifier: the initiator's
// hashed identity in the top 32 bits, a local counter below.
func (e *Engine) newQueryID() uint64 {
	h := fnv.New32a()
	h.Write([]byte(e.node.ID()))
	e.mu.Lock()
	e.nextQ++
	q := e.nextQ
	e.mu.Unlock()
	return uint64(h.Sum32())<<32 | uint64(q)
}

func (e *Engine) getExec(q uint64) *executor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.execs[q]
}

func (e *Engine) putExec(q uint64, ex *executor) {
	e.mu.Lock()
	e.execs[q] = ex
	e.mu.Unlock()
}

func (e *Engine) dropExec(q uint64) {
	e.mu.Lock()
	delete(e.execs, q)
	e.mu.Unlock()
}

// abortAll ends this node's part in every query: the node is closing, and
// neither a cancel nor a peer-down will reach it any more.
func (e *Engine) abortAll() {
	e.mu.Lock()
	execs := make([]*executor, 0, len(e.execs))
	for _, ex := range e.execs {
		execs = append(execs, ex)
	}
	e.mu.Unlock()
	for _, ex := range execs {
		ex.abort()
	}
}

// peerDown reacts to a node failure: initiator-side executors start
// recovery per their options; remote executors whose initiator died are
// abandoned.
func (e *Engine) peerDown(id ring.NodeID) {
	e.mu.Lock()
	var affected []*executor
	for _, ex := range e.execs {
		affected = append(affected, ex)
	}
	e.mu.Unlock()
	for _, ex := range affected {
		if ex.initiator == e.node.ID() {
			ex.handleFailure(id)
		} else if ex.initiator == id {
			ex.abort()
			e.dropExec(ex.queryID)
		}
	}
}

// --- executor ---

// executor is the per-query, per-node execution state: the instantiated
// operator graph, the routing-table snapshot (and successive recovery
// tables), the phase counter, and the provenance bookkeeping.
type executor struct {
	eng     *Engine
	queryID uint64
	plan    *Plan
	opts    Options
	epoch   tuple.Epoch
	metas   map[string]*relMeta

	initiator ring.NodeID
	snapshot  *ring.Table // phase-0 table; member indices = provenance bits
	selfIdx   int
	mode      shipMode // how fragment output flows to the initiator

	mu        sync.Mutex
	table     *ring.Table // current (recovery) table
	phase     uint32
	failed    Prov       // accumulated failed snapshot-member indices
	recoverMu sync.Mutex // serializes applyRecover invocations

	// applied/appliedPhase are the table and phase applyRecover last
	// caught up to (the snapshot and 0 until a recovery).
	applied      *ring.Table
	appliedPhase uint32

	// aborted asks in-flight local work (scan passes) to stop early: set
	// when the query is cancelled or its answer is already complete (a
	// pushed-down limit was satisfied before the scans finished).
	aborted atomic.Bool

	// credit says this query's fragments ship against a send window
	// (shipCredit): the plan streams to a sink at the initiator and has no
	// rehash, so every shipment leaves from a scan pass goroutine, which
	// may wait. The initiator decides it and the prepare message carries it.
	credit bool

	scans        map[int]*scanLeaf
	producers    map[int]*exchProducer
	consumers    map[int]*exchConsumer
	marked       map[int]marked // scans and consumers, by the identifier peers mark them under
	recoverables []recoverable
	shipper      *shipProducer
	shipCons     *shipConsumer // non-nil at the initiator only

	failCh chan ring.NodeID // initiator: failures needing Run's attention
	stats  statsCounters

	// Tracing state: trace is nil when tracing is off (every site guards
	// on it); frag is this node's "fragment" span. At the initiator the
	// trace is the caller's query trace and frag hangs off its root; on a
	// remote node the trace is fragment-local and frag is its root,
	// shipped back with the fragment's EOS. The accumulators are atomics
	// so scan and transport goroutines add to them without locks.
	trace   *obs.Trace
	frag    *obs.Span
	encSpan *obs.Span // lazily attached "ship.encode" child of frag

	shipEncUs, shipEncBatches, shipEncBytes atomic.Int64
	shipDecUs, shipDecBatches, shipDecBytes atomic.Int64
	pageHits, pageMisses                    atomic.Int64
}

func newExecutor(eng *Engine, queryID uint64, plan *Plan, opts Options, epoch tuple.Epoch,
	initiator ring.NodeID, snap *ring.Table, metas map[string]*relMeta) (*executor, error) {
	selfIdx, ok := snap.MemberIndex(eng.node.ID())
	if !ok {
		return nil, fmt.Errorf("engine: node %s not in query snapshot", eng.node.ID())
	}
	ex := &executor{
		eng:       eng,
		queryID:   queryID,
		plan:      plan,
		opts:      opts,
		epoch:     epoch,
		metas:     metas,
		initiator: initiator,
		snapshot:  snap,
		selfIdx:   selfIdx,
		table:     snap,
		applied:   snap,
		failed:    NewProv(snap.Size()),
		scans:     make(map[int]*scanLeaf),
		producers: make(map[int]*exchProducer),
		consumers: make(map[int]*exchConsumer),
		marked:    make(map[int]marked),
	}
	ex.mode = planShipMode(plan, opts)
	if initiator == eng.node.ID() {
		ex.shipCons = newShipConsumer(ex)
		ex.failCh = make(chan ring.NodeID, snap.Size())
		if ex.mode == shipAggMerge {
			ex.shipCons.agg = newGroupTable(plan.Final[0].(*FinalAgg).Aggs)
		}
		if opts.Trace != nil {
			ex.trace = opts.Trace
			ex.frag = ex.trace.Begin("fragment")
			ex.frag.Node = string(eng.node.ID())
			ex.trace.Attach(nil, ex.frag)
		}
	} else if opts.TraceID != 0 {
		// Remote fragment: a local trace rooted at this node's fragment
		// span, encoded back to the initiator with the ship EOS.
		ex.trace = obs.NewTrace(opts.TraceID, "fragment", string(eng.node.ID()))
		ex.frag = ex.trace.Root()
	}
	ex.shipper = &shipProducer{ex: ex}
	ex.shipper.credit.init(shipCreditRows)
	if err := ex.build(plan.Root, ex.shipper); err != nil {
		return nil, err
	}
	return ex, nil
}

// build instantiates the operator graph: out is the sink consuming node n's
// output; scan leaves and exchange halves register themselves for message
// dispatch and recovery.
func (ex *executor) build(n Node, out sink) error {
	switch t := n.(type) {
	case *ScanNode:
		meta := ex.metas[t.Relation]
		leaf := newScanLeaf(ex, t, meta, out)
		ex.scans[t.ScanID], ex.marked[t.ScanID] = leaf, leaf
		return nil
	case *SelectNode:
		return ex.build(t.Child, &selectOp{pred: compileBatchPred(t.Pred), out: out})
	case *ProjectNode:
		return ex.build(t.Child, &projectOp{cols: t.Cols, out: out})
	case *ComputeNode:
		return ex.build(t.Child, newComputeOp(t.Exprs, ex.shipper.fail, out))
	case *JoinNode:
		j := newJoinOp(t.LeftKeys, t.RightKeys, ex.phaseNow, ex.shipper.fail, out)
		ex.recoverables = append(ex.recoverables, j)
		if err := ex.build(t.Left, joinSide{j: j, left: true}); err != nil {
			return err
		}
		return ex.build(t.Right, joinSide{j: j, left: false})
	case *AggNode:
		a := newAggOp(t.GroupCols, t.Aggs, t.Mode, ex.opts.Provenance, ex.phaseNow, ex.shipper.fail, out)
		ex.recoverables = append(ex.recoverables, a)
		return ex.build(t.Child, a)
	case *RehashNode:
		cons := newExchConsumer(ex, out)
		ex.consumers[t.ExchID], ex.marked[t.ExchID] = cons, cons
		prod := newExchProducer(ex, t.ExchID, t.Keys)
		ex.producers[t.ExchID] = prod
		return ex.build(t.Child, prod)
	default:
		return fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// --- executor accessors used by operators ---

func (ex *executor) self() ring.NodeID { return ex.eng.node.ID() }

func (ex *executor) currentTable() *ring.Table {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.table
}

func (ex *executor) phaseNow() uint32 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.phase
}

// wave reads the current phase and the members live in it in one step
// (executor.advance moves the two together).
func (ex *executor) wave() (uint32, []ring.NodeID) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.phase, ex.table.Members()
}

// abort ends this node's part of the query: scan passes stop early and a
// pass waiting on ship credit gives up.
func (ex *executor) abort() {
	ex.aborted.Store(true)
	ex.shipper.credit.close()
}

func (ex *executor) failedProv() Prov {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.failed.Clone()
}

// filterAndStamp drops the batch's tainted rows and stamps this node into
// the provenance of the survivors (the node has now processed them). The
// sets are shared — with other rows, and on loopback with the sender — so a
// stamped set is a fresh one, made once per run of rows sharing a set.
func (ex *executor) filterAndStamp(cb *colBatch) {
	if cb.prov == nil {
		return
	}
	dropTainted(cb, ex.failedProv())
	var from, stamped Prov
	for i, p := range cb.prov {
		if i == 0 || !sameProv(p, from) {
			from, stamped = p, NewProv(ex.snapshot.Size())
			copy(stamped, p)
			stamped.Set(ex.selfIdx)
		}
		cb.prov[i] = stamped
	}
}

// exchPhase is the phase a rehash block is delivered under. On the wire it
// is the sender's current phase: a receiver still in an older phase learns
// from it that the sender has applied a recovery directive (aggOp.newest).
// On loopback sender and receiver are one node, whose own phase gates
// everything; the block keeps the wave that produced it.
func (ex *executor) exchPhase(cb *colBatch, dest ring.NodeID) uint32 {
	if dest == ex.self() {
		return cb.phase
	}
	return ex.phaseNow()
}

// --- message sending ---

// sendExchBatch delivers a rehash block to dest (loopback bypasses the
// network, mirroring a real deployment where local partitions never touch
// the wire). The block is borrowed. In provenance mode its sender keeps it
// for replay, so the local consumer — which compacts and stamps what it
// receives — gets its own copy of the vectors; the sets stay shared.
func (ex *executor) sendExchBatch(exchID int, dest ring.NodeID, cb *colBatch) {
	ex.stats.addExchSent(cb.cols.N)
	phase := ex.exchPhase(cb, dest)
	if dest == ex.self() {
		cons := ex.consumers[exchID]
		if cons == nil {
			return
		}
		ex.stats.addExchRecv(cb.cols.N)
		if cb.prov == nil {
			cons.receive(cb)
			return
		}
		own := newColBatch(phase)
		_ = own.appendBatch(cb) // an empty batch adopts any shape
		cons.receive(own)
		return
	}
	payload, err := encodeExchBatch(ex.header(nil), exchID, cb, phase)
	if err != nil {
		ex.shipper.fail(err) // the fragment's EOS carries it to the initiator
		return
	}
	ex.stats.addSentBytes(len(payload))
	_ = ex.eng.node.Endpoint().Send(dest, msgExchBatch, payload)
}

// marked is what a phase marker lands on: the holder of a phaseGate that
// peers mark — a scan leaf's data side or an exchange consumer — addressed
// by its plan identifier (Finalize draws both kinds from one sequence).
type marked interface {
	mark(from ring.NodeID, phase uint32)
	recheck()
}

// broadcastMark announces to every live node (including this one) that this
// node has finished the given wave phase for scan or rehash id: its index
// side has shipped every tuple ID, or its rehash output has reached
// end-of-stream. The marker follows the wave's data on each link (FIFO), so
// a gate holding every marker holds all the data.
func (ex *executor) broadcastMark(id int, phase uint32) {
	payload := encodeMark(ex.header(nil), id, phase)
	_, live := ex.wave()
	for _, to := range live {
		if to == ex.self() {
			if m := ex.marked[id]; m != nil {
				m.mark(to, phase)
			}
			continue
		}
		ex.stats.addSentBytes(len(payload))
		_ = ex.eng.node.Endpoint().Send(to, msgMark, payload)
	}
}

// sendScanIDs ships filtered tuple IDs (with their cached placement
// hashes) from the index side to a data storage node (Algorithm 1's inner
// request).
func (ex *executor) sendScanIDs(scanID int, dest ring.NodeID, ids []tuple.ID, hashes []keyspace.Key) {
	if dest == ex.self() {
		if leaf := ex.scans[scanID]; leaf != nil {
			leaf.addWanted(ids, hashes, ex.selfIdx)
		}
		return
	}
	payload := encodeScanIDs(ex.header(nil), scanID, ex.selfIdx, ids, hashes)
	ex.stats.addSentBytes(len(payload))
	_ = ex.eng.node.Endpoint().Send(dest, msgScanIDs, payload)
}

// sendShip delivers fragment output to the query initiator. The batch is
// borrowed: loopback appends it into the ship consumer's accumulator, the
// remote path encodes it — either way the caller keeps ownership after the
// call. A shipment that cannot be encoded or accepted fails the query:
// dropping it would complete the wave with a short answer.
func (ex *executor) sendShip(cb *colBatch) {
	ex.stats.addShipped(cb.cols.N)
	if ex.shipCons != nil { // this node is the initiator
		if err := ex.shipCons.receive(ex.self(), cb); err != nil {
			ex.shipCons.fail(&ShipError{Node: ex.self(), Err: err})
		}
		return
	}
	var encT0 int64
	if ex.trace != nil {
		encT0 = ex.trace.SinceUs()
	}
	payload, err := encodeShipBatch(ex.header(nil), cb, ex.phaseNow())
	if err != nil {
		ex.shipper.fail(err)
		return
	}
	if ex.trace != nil {
		ex.shipEncUs.Add(ex.trace.SinceUs() - encT0)
		ex.shipEncBatches.Add(1)
		ex.shipEncBytes.Add(int64(len(payload)))
	}
	ex.stats.addSentBytes(len(payload))
	_ = ex.eng.node.Endpoint().Send(ex.initiator, msgShipBatch, payload)
}

// sendShipCredit returns rows of a fragment's send window once the sink has
// taken them: the initiator's own fragment directly, any other by message.
func (ex *executor) sendShipCredit(to ring.NodeID, rows int) {
	if to == ex.self() {
		ex.shipper.credit.grant(rows)
		return
	}
	payload := encodeShipCredit(ex.header(nil), rows)
	ex.stats.addSentBytes(len(payload))
	_ = ex.eng.node.Endpoint().Send(to, msgShipCredit, payload)
}

// sendShipEOS reports fragment completion for the given wave phase, along
// with this node's work counters, the fragment's ship-path failure if it
// had one, and (when tracing) the fragment's span subtree.
func (ex *executor) sendShipEOS(phase uint32, fragErr error) {
	st := ex.stats.snapshot()
	ex.finishFragSpan(phase, st)
	var failure string
	if fragErr != nil {
		failure = fragErr.Error()
	}
	if ex.shipCons != nil { // this node is the initiator
		ex.shipCons.fragmentDone(ex.self(), phase, st, nil, failure)
		return
	}
	payload := encodeShipEOS(ex.header(nil), phase, st, failure, ex.trace)
	ex.stats.addSentBytes(len(payload))
	_ = ex.eng.node.Endpoint().Send(ex.initiator, msgShipEOS, payload)
}

// finishFragSpan stamps the fragment span with the fragment's totals at
// an EOS wave. Recovery waves re-stamp it — the last report wins, which
// matches how the initiator keeps the last stats report per node.
func (ex *executor) finishFragSpan(phase uint32, st NodeStats) {
	if ex.trace == nil {
		return
	}
	ex.frag.Phase = phase
	ex.frag.DurUs = ex.trace.SinceUs() - ex.frag.StartUs
	ex.frag.Rows = int64(st.Shipped)
	ex.frag.Bytes = int64(st.BytesSent)
	ex.frag.CacheHits = ex.pageHits.Load()
	ex.frag.CacheMisses = ex.pageMisses.Load()
	if ex.shipEncBatches.Load() > 0 {
		ex.mu.Lock()
		sp := ex.encSpan
		if sp == nil {
			sp = &obs.Span{Name: "ship.encode"}
			ex.encSpan = sp
			ex.mu.Unlock()
			ex.trace.Attach(ex.frag, sp)
		} else {
			ex.mu.Unlock()
		}
		sp.DurUs = ex.shipEncUs.Load()
		sp.Batches = ex.shipEncBatches.Load()
		sp.Bytes = ex.shipEncBytes.Load()
	}
}

// start launches the leaf operations for phase 0. Tickets are issued
// synchronously so a recovery directive processed later can never have its
// index work scheduled ahead of phase 0's.
func (ex *executor) start() {
	for _, leaf := range ex.scans {
		tick := leaf.idxSeq.ticket()
		go leaf.runIndexSide(0, nil, nil, tick)
	}
}

// --- prepare / dissemination ---

func (e *Engine) handlePrepare(payload []byte) error {
	p, err := decodePrepare(payload)
	if err != nil {
		return err
	}
	if e.getExec(p.queryID) != nil {
		return nil // duplicate prepare (idempotent)
	}
	ex, err := newExecutor(e, p.queryID, p.plan, p.opts, p.epoch, p.initiator, p.table, p.metas)
	if err != nil {
		return err
	}
	ex.credit = p.credit
	e.putExec(p.queryID, ex)
	return nil
}

// --- initiator-side execution ---

// resolveMetas resolves every scanned relation's schema, effective epoch,
// and coordinator record, so all nodes share one consistent snapshot.
func (e *Engine) resolveMetas(ctx context.Context, p *Plan, epoch tuple.Epoch) (map[string]*relMeta, error) {
	metas := make(map[string]*relMeta)
	for _, rel := range p.Relations() {
		eff, cat, ok, err := e.node.ResolveEpoch(ctx, rel, epoch)
		if err != nil {
			return nil, fmt.Errorf("engine: resolve %s@%d: %w", rel, epoch, err)
		}
		m := &relMeta{schema: cat.Schema, effEpoch: eff}
		if ok {
			coord, err := e.node.GetCoordinator(ctx, rel, eff)
			if err != nil {
				return nil, fmt.Errorf("engine: coordinator %s@%d: %w", rel, eff, err)
			}
			m.coord = coord
		}
		metas[rel] = m
	}
	return metas, nil
}

// Run executes a finalized plan and returns the complete, duplicate-free
// answer set as of the snapshot epoch. Node failures during execution are
// handled per opts.Recovery.
func (e *Engine) Run(ctx context.Context, p *Plan, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	epoch := opts.Epoch
	if epoch == 0 {
		epoch = e.node.Gossip().Current()
	}
	snap := e.node.Table()
	restarts := 0
	for {
		res, err := e.runOnce(ctx, p, opts, epoch, snap)
		if err == nil {
			res.Restarts = restarts
			return res, nil
		}
		var fe *FailureError
		if !errors.As(err, &fe) || opts.Recovery == RecoverFail || restarts >= opts.MaxRestarts {
			return nil, err
		}
		// Restart over the remaining nodes (§V-D "terminate and restart").
		// Incremental mode also lands here when a failure precedes query
		// start (there is no in-flight state to recover incrementally).
		restarts++
		snap2, err2 := snap.WithoutNodes(fe.Failed)
		if err2 != nil {
			return nil, fmt.Errorf("engine: restart table: %w", err2)
		}
		snap = snap2
	}
}

// FailureError reports nodes that failed during query execution when the
// recovery mode does not (or can no longer) compensate.
type FailureError struct {
	Failed []ring.NodeID
}

func (e *FailureError) Error() string {
	return fmt.Sprintf("engine: node failure during query: %v", e.Failed)
}

// limitOnlyFinal reports N when the final pipeline is limit-only (no
// agg/sort/compute): such a query can stop collecting — and cancel
// outstanding scan passes — once N rows have been gathered, because any N
// collected rows are a complete answer. Returns -1 otherwise.
func limitOnlyFinal(ops []FinalOp) int {
	if len(ops) == 0 {
		return -1
	}
	n := -1
	for _, op := range ops {
		f, ok := op.(*FinalLimit)
		if !ok {
			return -1
		}
		if n < 0 || f.N < n {
			n = f.N
		}
	}
	return n
}

func (e *Engine) runOnce(ctx context.Context, p *Plan, opts Options, epoch tuple.Epoch, snap *ring.Table) (*Result, error) {
	metas, err := e.resolveMetas(ctx, p, epoch)
	if err != nil {
		return nil, err
	}
	queryID := e.newQueryID()
	ex, err := newExecutor(e, queryID, p, opts, epoch, e.node.ID(), snap, metas)
	if err != nil {
		return nil, err
	}
	// The limit pushdown drops shipments once N rows are collected, which
	// is only sound when collected rows can never be retracted: with
	// incremental recovery (provenance mode) a later purge of tainted
	// rows could leave fewer than N even though dropped clean shipments
	// held the difference. Restart mode discards the whole executor
	// instead, so nothing collected is ever retracted.
	if !opts.Provenance {
		ex.shipCons.limit = limitOnlyFinal(p.Final)
	}
	finalOps := p.Final
	if ex.mode == shipAggMerge {
		// The partials fold on arrival, which applies Final[0] (the
		// FinalAgg); its partial layout no longer matches the merged rows,
		// so re-applying it would be wrong.
		finalOps = finalOps[1:]
	}
	final, err := compileFinal(finalOps)
	if err != nil {
		return nil, err
	}
	if ex.mode == shipStream && opts.Sink != nil {
		ex.shipCons.startStream(opts.Sink, final, relays(p, ex.mode))
		ex.credit = len(ex.producers) == 0
	}
	e.putExec(queryID, ex)
	defer func() {
		ex.abort() // stop any local pass still running
		ex.shipCons.stopStreaming()
		e.dropExec(queryID)
		ex.broadcastCancel()
	}()

	prep, err := encodePrepare(queryID, e.node.ID(), epoch, opts, ex.credit, snap, p, metas)
	if err != nil {
		return nil, err
	}
	// Two-round start: prepare everywhere (so every node's handlers exist
	// before any data flows), then begin.
	var wg sync.WaitGroup
	errCh := make(chan error, snap.Size())
	for _, id := range snap.Members() {
		if id == e.node.ID() {
			continue
		}
		wg.Add(1)
		go func(id ring.NodeID) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, e.node.Config().RequestTimeout)
			defer cancel()
			if _, err := e.node.Endpoint().Request(rctx, id, msgPrepare, prep); err != nil {
				// Report as a node failure so restart mode can retry over
				// the remaining membership.
				errCh <- fmt.Errorf("engine: prepare at %s (%v): %w",
					id, err, &FailureError{Failed: []ring.NodeID{id}})
			}
		}(id)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	begin := ex.header(nil)
	for _, id := range snap.Members() {
		if id == e.node.ID() {
			continue
		}
		_ = e.node.Endpoint().Send(id, msgBegin, begin)
	}
	ex.start()

	// Wait for completion, reacting to failures per the recovery mode. A
	// completion signal is accepted only for the current phase: if a
	// recovery advanced the phase, earlier completions are stale.
	var allFailed []ring.NodeID
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case id := <-ex.failCh:
			if !ex.currentTable().Contains(id) {
				continue // stale notification
			}
			allFailed = append(allFailed, id)
			switch opts.Recovery {
			case RecoverIncremental:
				if err := ex.initiateRecovery(id); err != nil {
					return nil, fmt.Errorf("engine: recovery after %s failed: %w", id, err)
				}
			default:
				if n := ex.shipCons.streamedRows(); n > 0 {
					// Rows already left through the sink: a restart would
					// emit them again, so the failure is terminal here no
					// matter the recovery mode.
					return nil, &StreamAbortedError{Failed: allFailed, Streamed: n}
				}
				return nil, &FailureError{Failed: allFailed}
			}
		case err := <-ex.shipCons.failCh:
			return nil, err
		case phase := <-ex.shipCons.completeCh:
			if phase != ex.phaseNow() {
				continue // stale completion from before a recovery
			}
			// Join the drainer, if streaming: it flushes whatever the last
			// arrivals left in the accumulator before stopping, so totals
			// are exact afterwards. A failure that raced the completion
			// still wins — the answer is short.
			ex.shipCons.stopStreaming()
			select {
			case err := <-ex.shipCons.failCh:
				return nil, err
			default:
			}
			collected, err := ex.shipCons.seal()
			if err != nil {
				return nil, err
			}
			ex.attachInitiatorSpans()
			finalSpan := ex.trace.Begin("final")
			// Top-K re-applies the whole pipeline over the ≤K merged
			// survivors: a sort of ≤K rows is cheap, and trailing ops stay
			// correct. A streamed query's pipeline ran per chunk; what is
			// left here is empty.
			b, err := final.apply(collected)
			if b != collected {
				// String contents alias kvstore record bytes, never the
				// vectors themselves, so recycling a batch after copying
				// its values out is safe.
				RecycleResultBatch(collected)
			}
			if err != nil {
				return nil, err
			}
			res := &Result{
				Batch:      b,
				Stats:      ex.shipCons.nodeStats(),
				Phases:     ex.phaseNow() + 1,
				Epoch:      epoch,
				Streamed:   ex.shipCons.streamedRows(),
				StreamPeak: ex.shipCons.peakBuffered(),
			}
			if finalSpan != nil {
				finalSpan.Rows = int64(b.N) + res.Streamed
				ex.trace.End(finalSpan)
				ex.trace.Attach(nil, finalSpan)
			}
			return res, nil
		}
	}
}

// attachInitiatorSpans hangs the spans gathered during execution under
// the trace root: each remote fragment's shipped subtree (last report
// per node wins) and the accumulated ship-decode work. Called once, at
// the accepted completion — nothing races with Attach by then.
func (ex *executor) attachInitiatorSpans() {
	if ex.trace == nil {
		return
	}
	for _, sp := range ex.shipCons.remoteSpans() {
		ex.trace.Attach(nil, sp)
	}
	if ex.shipDecBatches.Load() > 0 {
		ex.trace.Attach(nil, &obs.Span{
			Name:    "ship.decode",
			DurUs:   ex.shipDecUs.Load(),
			Batches: ex.shipDecBatches.Load(),
			Bytes:   ex.shipDecBytes.Load(),
		})
	}
}

// handleFailure is invoked (from the engine's peer-down callback) on the
// initiator when a node dies; it defers the decision to the Run loop.
func (ex *executor) handleFailure(id ring.NodeID) {
	if ex.failCh == nil {
		return
	}
	select {
	case ex.failCh <- id:
	default:
	}
}

// broadcastCancel tells all remote participants to abandon the query.
func (ex *executor) broadcastCancel() {
	payload := ex.header(nil)
	for _, id := range ex.snapshot.Members() {
		if id == ex.self() {
			continue
		}
		_ = ex.eng.node.Endpoint().Send(id, msgCancel, payload)
	}
}
