package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"orchestra/internal/cluster"
	"orchestra/internal/keyspace"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// relMeta is the per-relation metadata resolved by the initiator and
// shipped with the query so every node sees the same snapshot: the schema,
// the effective modification epoch, and that epoch's coordinator record.
type relMeta struct {
	schema   *tuple.Schema
	effEpoch tuple.Epoch
	coord    *vstore.Coordinator // nil when the relation has no data at the epoch
}

// scanLeaf drives one scan operator instance on one node. It has two
// halves, mirroring the distributed scan of Table I:
//
//   - The index side processes the index pages this node is responsible
//     for (under the query snapshot; under the recovery table for later
//     phases), filters tuple IDs with the sargable predicate, and ships ID
//     collections to the data storage nodes — mostly itself, thanks to
//     page/tuple colocation.
//   - The data side accumulates wanted IDs, and when every live node has
//     signalled that its index work for the phase is complete, retrieves
//     the tuples in a single pass through its local hash-ID range and
//     pushes them into the local plan.
//
// Covering index scans skip the data side entirely: key attributes are
// decoded straight out of the tuple IDs (Table I, covering index scan).
type scanLeaf struct {
	ex   *executor
	spec *ScanNode
	meta *relMeta
	out  sink

	// idxSeq orders runIndexSide invocations by launch order: a later
	// phase's index work (and its trailing done marker) must not overtake
	// an earlier phase's ID shipments on any link, or data nodes would run
	// their pass before all the earlier IDs arrived and strand stragglers.
	idxSeq sequencer

	// passSeq orders runPass invocations the same way on the data side:
	// the end-of-stream a later pass propagates must follow every emission
	// of the earlier pass on every link. A plain mutex is insufficient for
	// either: goroutine scheduling could let wave p+1 acquire it first.
	passSeq sequencer

	// gate fires a phase's data pass when every live node's index side
	// has marked it done; it claims the pass's passSeq ticket as it fires.
	gate *phaseGate

	mu    sync.Mutex
	ships []*idShipment

	// scratch is the reusable columnar batch of the data pass (see
	// batchFor); scratchCols keeps the leaf's own column header array so a
	// downstream projection cannot leak the vectors. Touched only by
	// runPass, which passSeq serializes.
	scratch     *colBatch
	scratchCols []tuple.ColVec
}

// idShipment is one sender's batch of filtered tuple IDs plus their
// placement hashes (read off the index page, never recomputed) and the
// sender's snapshot member index. The wanted set is a list of shipments
// rather than a per-ID map: arrival costs nothing per ID (loopback
// shipments alias the index page's own slices), and the data pass merges
// the shipments — each already in storage-key order — into one list and
// merge-walks it against the B-tree scan.
type idShipment struct {
	ids     []tuple.ID
	hashes  []keyspace.Key
	fromIdx int32
}

func newScanLeaf(ex *executor, spec *ScanNode, meta *relMeta, out sink) *scanLeaf {
	l := &scanLeaf{ex: ex, spec: spec, meta: meta, out: out}
	l.gate = newPhaseGate(ex.wave, &l.passSeq)
	return l
}

// runIndexSide performs this node's index work for a phase. For phase 0,
// the node serves the pages whose placement it owns under the snapshot.
// For recovery phases it serves (a) pages in ranges inherited from failed
// nodes — re-shipped in full, since every phase-0 row from those pages is
// tainted by the failed index node — and (b) its own pages, re-shipping
// only IDs whose previous data owner failed (§V-D stages 3 and 4).
func (l *scanLeaf) runIndexSide(phase uint32, inherited []ring.Range, prevTable *ring.Table, tick uint64) {
	l.idxSeq.wait(tick)
	defer l.idxSeq.done()
	cur := l.ex.currentTable()
	self := l.ex.self()
	tr := l.ex.trace
	var sp *obs.Span
	var produced int64
	if tr != nil {
		sp = tr.Begin("scan.index")
		sp.Phase = phase
	}
	// A covering scan's output: key values decoded off the tuple IDs, all
	// sharing this node's provenance stamp.
	covering := newColBatch(phase)
	var own Prov
	if l.ex.opts.Provenance {
		own = ProvOf(l.ex.snapshot.Size(), l.ex.selfIdx)
	}
	if l.meta != nil && l.meta.coord != nil {
		rt := newIDRouter(cur, self, l.spec.Pred, func(dest ring.NodeID, ids []tuple.ID, hashes []keyspace.Key) {
			produced += int64(len(ids))
			l.ex.sendScanIDs(l.spec.ScanID, dest, ids, hashes)
		})
		for _, ref := range l.meta.coord.Pages {
			placement := ref.Placement()
			full := false
			if phase == 0 {
				if cur.Owner(placement) != self {
					continue
				}
				full = true
			} else {
				inInherited := false
				for _, r := range inherited {
					if r.Contains(placement) {
						inInherited = true
						break
					}
				}
				if inInherited {
					full = true
				} else if prevTable.Owner(placement) != self {
					continue
				}
			}
			page, err := l.loadPage(ref)
			if err != nil {
				continue // replicas unreachable; data side observes the gap
			}
			// Pages carry each entry's placement hash (computed once at
			// publish time; loadPage guarantees it), so routing never hashes
			// a tuple ID.
			switch {
			case l.spec.Covering:
				if !full {
					continue
				}
				for _, id := range page.IDs {
					if !l.spec.Pred.Match(id.Key) {
						continue
					}
					if row, err := id.KeyValues(); err != nil {
						// undecodable ID: nothing to emit for it
					} else if err := covering.cols.AppendRow(row); err != nil {
						l.ex.shipper.fail(fmt.Errorf("engine: covering scan of %s: %w", l.spec.Relation, err))
					} else if own != nil {
						covering.prov = append(covering.prov, own)
					}
				}
			case full:
				rt.page(page.IDs, page.Hashes)
			default:
				// Resend mode: only IDs whose old data owner failed.
				for i, id := range page.IDs {
					h := page.Hashes[i]
					if l.spec.Pred.Match(id.Key) && !cur.Contains(prevTable.Owner(h)) {
						rt.add(cur.Owner(h), id, h)
					}
				}
			}
		}
		rt.flush()
	}
	if n := covering.cols.N; n > 0 {
		produced = int64(n)
		l.ex.stats.addScanned(n)
		l.out.push(covering)
	}
	if sp != nil {
		sp.Rows = produced // rows a covering scan produced, else IDs shipped to data nodes
		tr.End(sp)
		tr.Attach(l.ex.frag, sp)
	}
	if l.spec.Covering {
		l.out.eos(phase)
		return
	}
	// Signal that this node's index work for the phase is complete; the
	// marker follows all ID shipments on each link (FIFO), so data sides
	// that have every marker have every ID. The marker carries this wave's
	// phase, not the node's current phase, which may already be newer.
	l.ex.broadcastMark(l.spec.ScanID, phase)
}

// idRouter ships one phase's wanted tuple IDs to their data nodes. A page's
// entries are sorted by (hash, key), the data nodes' storage order, so the
// ring's ranges cut it into contiguous runs with one owner each, found by a
// binary search per range boundary (§V-B: "the tuples from each index page
// are stored nearby on disk"). Without a key predicate a run bound for this
// node ships at once as a sub-slice of the immutable page, and a run bound
// elsewhere is appended whole to that node's one shipment; a bounded
// predicate filters inside the run into the destination's shipment. flush
// sends the shipments.
type idRouter struct {
	starts []keyspace.Key // range starts, ascending
	owners []ring.NodeID  // owners[i] holds [starts[i], starts[i+1]); the last also holds hashes below starts[0]
	self   ring.NodeID
	pred   cluster.KeyPred
	send   func(dest ring.NodeID, ids []tuple.ID, hashes []keyspace.Key)
	byDest map[ring.NodeID]*idShipment
}

func newIDRouter(t *ring.Table, self ring.NodeID, pred cluster.KeyPred, send func(ring.NodeID, []tuple.ID, []keyspace.Key)) *idRouter {
	ranges := t.Ranges()
	r := &idRouter{
		starts: make([]keyspace.Key, len(ranges)),
		owners: make([]ring.NodeID, len(ranges)),
		self:   self, pred: pred, send: send,
		byDest: make(map[ring.NodeID]*idShipment),
	}
	for i, rg := range ranges {
		r.starts[i], r.owners[i] = rg.Range.Lo, rg.Owner
	}
	return r
}

// page routes the entries of one page, whose hashes must ascend.
func (r *idRouter) page(ids []tuple.ID, hashes []keyspace.Key) {
	n := len(hashes)
	lo, owner := 0, r.owners[len(r.owners)-1] // hashes below the first start wrap
	for i, start := range r.starts {
		hi := lo + sort.Search(n-lo, func(k int) bool { return hashes[lo+k].Cmp(start) >= 0 })
		r.run(owner, ids[lo:hi:hi], hashes[lo:hi:hi])
		lo, owner = hi, r.owners[i]
	}
	r.run(owner, ids[lo:n:n], hashes[lo:n:n])
}

func (r *idRouter) run(dest ring.NodeID, ids []tuple.ID, hashes []keyspace.Key) {
	switch {
	case len(ids) == 0:
	case r.pred.Lo != nil || r.pred.Hi != nil:
		for i, id := range ids {
			if r.pred.Match(id.Key) {
				r.add(dest, id, hashes[i])
			}
		}
	case dest == r.self:
		r.send(dest, ids, hashes)
	default:
		s := r.shipment(dest)
		s.ids, s.hashes = append(s.ids, ids...), append(s.hashes, hashes...)
	}
}

// add routes one entry to dest's shipment.
func (r *idRouter) add(dest ring.NodeID, id tuple.ID, h keyspace.Key) {
	s := r.shipment(dest)
	s.ids, s.hashes = append(s.ids, id), append(s.hashes, h)
}

func (r *idRouter) shipment(dest ring.NodeID) *idShipment {
	s := r.byDest[dest]
	if s == nil {
		s = &idShipment{}
		r.byDest[dest] = s
	}
	return s
}

func (r *idRouter) flush() {
	for dest, s := range r.byDest {
		r.send(dest, s.ids, s.hashes)
	}
}

// loadPage resolves a page version through the node's resolved-page
// cache (versions are immutable, so hits are always valid), the local
// store, then replicas. The page it returns has its placement hashes and
// is shared read-only.
func (l *scanLeaf) loadPage(ref vstore.PageRef) (*vstore.Page, error) {
	// No deadline of its own: a cached page needs none, and GetRecord
	// bounds each replica request by the node's RequestTimeout.
	p, hit, err := l.ex.eng.node.ResolvePage(context.Background(), ref)
	if hit {
		l.ex.pageHits.Add(1)
	} else {
		l.ex.pageMisses.Add(1)
	}
	return p, err
}

// addWanted records an incoming shipment of tuple IDs (with their
// placement hashes) from an index node. Shipments from senders already
// known to have failed are ignored; the shipment's slices are referenced,
// not copied (callers hand over ownership — loopback fast paths may even
// alias index-page slices, which are immutable). Duplicate IDs from
// several senders simply coexist; the pass emits each distinct ID once,
// from a sender that is still clean at pass time — so a dead node's
// in-flight bulk shipment can never displace the heir's re-shipped
// entries, and shipments recorded before their sender's failure became
// known are filtered by preparePass when the pass runs (executor.advance
// has set the failed bits by then) — which is why recovery has nothing to
// purge here.
func (l *scanLeaf) addWanted(ids []tuple.ID, hashes []keyspace.Key, fromIdx int) {
	if l.ex.failedProv().Has(fromIdx) {
		return
	}
	l.mu.Lock()
	l.ships = append(l.ships, &idShipment{ids: ids, hashes: hashes, fromIdx: int32(fromIdx)})
	l.mu.Unlock()
}

// mark records an index-side completion marker; when all live nodes have
// finished the current phase, the data pass runs (once per phase).
func (l *scanLeaf) mark(from ring.NodeID, phase uint32) { l.pass(l.gate.mark(from, phase)) }

// recheck re-evaluates pass readiness after a membership change.
func (l *scanLeaf) recheck() {
	if !l.spec.Covering {
		l.pass(l.gate.fire(false))
	}
}

// pass launches the data pass of a phase whose gate just fired. tick is the
// turn the gate claimed for it, so passes run in firing order.
func (l *scanLeaf) pass(phase uint32, tick uint64, ok bool) {
	if ok {
		go l.runPass(phase, tick)
	}
}

// passEntry is one live wanted entry prepared for the merge walk: its full
// local-store key as offsets into the pass buffer's slab, the shipment and
// position it came from, whether its key repeats the entry's before it (one
// ID shipped by several senders), and whether the pass has handled it.
type passEntry struct {
	off, end  uint32
	ship, pos int32
	done, dup bool
}

// passBuf is the working memory of one data pass: the key slab, the wanted
// entries in storage-key order, the merge's destination and the run bounds.
// It holds no pointers, so the GC never scans its contents. runPass takes
// one from the engine's pool and returns it when the pass ends, so the
// memory is reused from pass to pass rather than allocated per wanted ID;
// the pool retains at most one buffer per concurrent pass, each sized by
// the largest pass it has served.
type passBuf struct {
	slab     []byte
	pes, dst []passEntry
	runs     []int
}

// key is the local-store key of an entry of b.
func (b *passBuf) key(pe *passEntry) []byte { return b.slab[pe.off:pe.end] }

// runPass is the data-storage-node half: a single pass through the local
// hash-ID ranges, emitting the wanted tuple versions (§V-B: "the tuples
// from each index page are stored nearby on disk, and are retrieved in a
// single pass through the hash ID range for that page").
//
// The pass is the engine's hottest loop, so it is allocation-lean end to
// end: the wanted entries are merged into storage-key order once and
// merge-walked against the B-tree scan (one bytes.Compare per visited
// tuple instead of a hash-map probe; the scan seeks to the first wanted
// key and stops past the last), matched records decode straight into
// column-major batches (no per-row Row/Value boxing; string values alias
// the store's immutable record bytes), and whole batches flow into the
// operator pipeline. With provenance enabled every row's set is this node
// plus the index node that requested it: one set per requesting node,
// shared by all the rows it asked for.
func (l *scanLeaf) runPass(phase uint32, tick uint64) {
	l.passSeq.wait(tick)
	defer l.passSeq.done()
	l.mu.Lock()
	ships := l.ships
	l.ships = nil
	l.mu.Unlock()

	store := l.ex.eng.node.Store()
	self := l.ex.self()
	cur := l.ex.currentTable()
	prov := l.ex.opts.Provenance
	tr := l.ex.trace
	var sp *obs.Span
	var emitted int64
	if tr != nil {
		sp = tr.Begin("scan.pass")
		sp.Phase = phase
	}

	var cb *colBatch
	flush := func() {
		if cb != nil && cb.cols.N > 0 {
			emitted += int64(cb.cols.N)
			l.ex.stats.addScanned(cb.cols.N)
			l.out.push(cb)
		}
		cb = nil
	}
	var colTypes []tuple.Type
	var provOf []Prov // provenance mode: the set for rows requested by each member
	if l.meta != nil {
		colTypes = make([]tuple.Type, len(l.meta.schema.Columns))
		for i, c := range l.meta.schema.Columns {
			colTypes[i] = c.Type
		}
		if prov {
			provOf = make([]Prov, l.ex.snapshot.Size())
		}
	}
	// emit decodes one record, requested by member fromIdx, onto the batch
	// and reports success. v must be immutable: string values alias it. A
	// local decode failure (truncated/corrupt record) leaves the entry
	// un-done so the replica fallback below fetches the exact version
	// remotely, as §IV requires.
	emit := func(v []byte, fromIdx int32) bool {
		if cb == nil {
			cb = l.batchFor(phase, colTypes)
		}
		if err := vstore.DecodeTupleRecordCols(l.meta.schema, v, cb.cols); err != nil {
			return false // the refused record left the batch as it was
		}
		if prov {
			if provOf[fromIdx] == nil {
				provOf[fromIdx] = ProvOf(len(provOf), l.ex.selfIdx, int(fromIdx))
			}
			cb.prov = append(cb.prov, provOf[fromIdx])
		}
		return true
	}
	full := func() bool { return cb != nil && cb.cols.N >= flushRows }

	if len(ships) > 0 && l.meta != nil {
		buf := l.ex.eng.getPassBuf()
		defer l.ex.eng.passBufs.Put(buf)
		// The wanted list's build is its own span under the pass, so the
		// ledger shows it apart from the walk.
		var psp *obs.Span
		if sp != nil {
			psp = tr.Begin("scan.prepare")
			psp.Phase = phase
		}
		pes, err := preparePass(buf, ships, l.ex.failedProv())
		if psp != nil {
			psp.Rows = int64(len(pes))
			tr.End(psp)
			tr.Attach(sp, psp)
		}
		if err != nil {
			l.ex.shipper.fail(err)
		}
		// The walk merges the sorted wanted list against a seekable B-tree
		// iterator: dense wanted sets advance pair-by-pair (one compare per
		// visited tuple), but when the gap to the next wanted key exceeds a
		// few linear probes the iterator seeks — skipping whole subtrees
		// instead of visiting every tuple in between.
		const seekAfterSteps = 8
		// scanRange walks [lo, hi) from the wanted entry from on (or the
		// range's first, if later) and returns where it stopped; stopped
		// says it stopped early, with a full batch or an aborted query. The
		// wanted entries in the range are found once, so a visited tuple
		// costs one compare: a stored key past the range's last wanted key
		// only runs the walk out of entries.
		scanRange := func(it *kvstore.Iterator, lo, hi []byte, from int) (next int, stopped bool) {
			ptr := max(from, sort.Search(len(pes), func(i int) bool { return bytes.Compare(buf.key(&pes[i]), lo) >= 0 }))
			end := len(pes)
			if hi != nil {
				end = ptr + sort.Search(end-ptr, func(i int) bool { return bytes.Compare(buf.key(&pes[ptr+i]), hi) >= 0 })
			}
			if ptr >= end {
				return ptr, false // nothing wanted in this range
			}
			it.Seek(buf.key(&pes[ptr]))
			for it.Valid() && ptr < end {
				if l.ex.aborted.Load() || full() {
					return ptr, true // a batch to push, or the answer is complete or cancelled
				}
				k := it.Key()
				want := buf.key(&pes[ptr])
				c := bytes.Compare(want, k)
				if c < 0 {
					ptr++ // not stored locally; replica fallback below
					continue
				}
				if c > 0 {
					// Stored keys below the next wanted key: probe a few
					// pairs linearly, then seek past the whole gap.
					probed := false
					for step := 0; step < seekAfterSteps; step++ {
						it.Next()
						if !it.Valid() {
							return ptr, false
						}
						if bytes.Compare(it.Key(), want) >= 0 {
							probed = true
							break
						}
					}
					if !probed {
						it.Seek(want)
					}
					continue
				}
				// The first entry of an ID emits it; on failure it stays live
				// for the replica fallback. Its duplicates (the same ID
				// shipped by several senders) are passed over here, before a
				// full batch can stop the walk and resume it at ptr, and the
				// fallback skips them too: one emission per ID.
				if emit(it.Value(), ships[pes[ptr].ship].fromIdx) {
					pes[ptr].done = true
				}
				for ptr++; ptr < end && pes[ptr].dup; ptr++ {
				}
				it.Next()
			}
			return ptr, false
		}
		var ranges [][2][]byte
		for _, r := range cur.RangesOf(self) {
			lo, hi, wrapped := vstore.TupleScanBounds(r.Lo, r.Hi)
			if wrapped {
				ranges = append(ranges, [2][]byte{lo, []byte("t0")}, [2][]byte{[]byte("t/"), hi})
			} else {
				ranges = append(ranges, [2][]byte{lo, hi})
			}
		}
		// The walk holds the store's read lock, so it leaves the store at
		// each full batch and pushes it from outside: a push may wait on
		// ship credit for as long as the client takes, and no write to this
		// node may wait with it. Values stay valid outside the lock (they are
		// immutable), and the next visit seeks back to where this one
		// stopped.
		for ri, from := 0, 0; ri < len(ranges) && !l.ex.aborted.Load(); {
			store.Iter(func(it *kvstore.Iterator) {
				for ; ri < len(ranges); ri, from = ri+1, 0 {
					var stopped bool
					if from, stopped = scanRange(it, ranges[ri][0], ranges[ri][1], from); stopped {
						return
					}
				}
			})
			flush()
		}
		// Any IDs not found locally (replication lag, churn) are fetched
		// from other replicas — the exact version, never stale data (§IV).
		// A duplicate is left to the first entry of its ID, fetched or not.
		for i := range pes {
			pe := &pes[i]
			if pe.done || pe.dup || l.ex.aborted.Load() {
				continue
			}
			pe.done = true
			sh := ships[pe.ship]
			id := sh.ids[pe.pos]
			ctx, cancel := context.WithTimeout(context.Background(), l.ex.eng.node.Config().RequestTimeout)
			data, err := l.ex.eng.node.GetRecord(ctx, sh.hashes[pe.pos], vstore.TupleKVKey(id))
			cancel()
			if err != nil {
				continue
			}
			emit(data, sh.fromIdx) // a fetched record is a fresh, unshared buffer
			if full() {
				flush()
			}
		}
	}
	flush()
	if sp != nil {
		sp.Rows = emitted
		tr.End(sp)
		tr.Attach(l.ex.frag, sp)
	}
	l.out.eos(phase)
}

// batchFor returns a columnar batch ready for decoding, reusing the leaf's
// vectors: once a batch has been handed downstream the whole operator
// chain has finished with it (a pushed batch is borrowed, never retained),
// so the vectors can be truncated and refilled. The column header array is
// restored from the leaf's own copy because a projection downstream may
// have replaced it.
func (l *scanLeaf) batchFor(phase uint32, colTypes []tuple.Type) *colBatch {
	if l.scratch == nil {
		l.scratch = newColBatch(phase)
		l.scratch.cols.ResetTypes(colTypes)
		l.scratchCols = l.scratch.cols.Cols
		l.scratch.cols.Grow(flushRows)
		if l.ex.opts.Provenance {
			l.scratch.prov = make([]Prov, 0, flushRows)
		}
	} else {
		l.scratch.cols.Cols = l.scratchCols
		l.scratch.cols.ResetTypes(colTypes)
		l.scratch.prov = l.scratch.prov[:0]
	}
	l.scratch.phase = phase
	return l.scratch
}

// preparePass expands the live shipments (sender still clean) into one
// entry per ID in b and builds each entry's full local-store key in b's
// slab, then puts the entries in storage-key order for the merge walk by
// merging, not sorting: one sender's shipments ascend end to end (it routes
// its pages in ring order), so the list in arrival order is a few ascending
// runs, and a natural merge orders it in O(n log runs) — O(n) for one run.
// The merge is stable: an ID that several senders shipped keeps their
// shipment order, so the walk's choice among them is the first, and every
// later copy is marked dup. It returns b.pes, the ordered list.
func preparePass(b *passBuf, ships []*idShipment, failed Prov) ([]passEntry, error) {
	size, n := 0, 0
	for _, sh := range ships {
		if failed.Has(int(sh.fromIdx)) {
			continue
		}
		n += len(sh.ids)
		for _, id := range sh.ids {
			size += 2 + keyspace.Size + len(id.Key) + 1 + 8
		}
	}
	if size > math.MaxUint32 {
		return nil, fmt.Errorf("engine: a data pass of %d wanted IDs holds %d key bytes, beyond the pass buffer's 4 GiB", n, size)
	}
	b.slab = slices.Grow(b.slab[:0], size)
	b.pes = slices.Grow(b.pes[:0], n)
	b.runs = append(b.runs[:0], 0) // where each ascending run starts
	prev := []byte(nil)
	for si, sh := range ships {
		if failed.Has(int(sh.fromIdx)) {
			continue
		}
		for i, id := range sh.ids {
			start := len(b.slab)
			b.slab = append(b.slab, 't', '/')
			b.slab = append(b.slab, sh.hashes[i][:]...)
			b.slab = append(b.slab, id.Key...)
			b.slab = append(b.slab, 0)
			b.slab = binary.BigEndian.AppendUint64(b.slab, uint64(id.Epoch))
			key := b.slab[start:]
			c := 1
			if k := len(b.pes); k > 0 {
				if c = bytes.Compare(key, prev); c < 0 {
					b.runs = append(b.runs, k)
				}
			}
			prev = key
			b.pes = append(b.pes, passEntry{off: uint32(start), end: uint32(len(b.slab)), ship: int32(si), pos: int32(i), dup: c == 0})
		}
	}
	b.runs = append(b.runs, len(b.pes))
	b.mergeRuns()
	return b.pes, nil
}

// mergeRuns merges the ascending runs of b.pes that b.runs delimits (run k
// is pes[runs[k]:runs[k+1]]) pairwise, neighbour with neighbour, until one
// is left in b.pes. Ties go to the earlier run, so the result is a stable
// sort; an entry whose key the merge found equal to the one it placed
// before it becomes a dup. (Within a run dup is already right, and an entry
// that follows a strictly smaller key from the other run is not one.)
func (b *passBuf) mergeRuns() {
	bounds := b.runs
	if len(bounds) <= 2 {
		return
	}
	b.dst = slices.Grow(b.dst[:0], len(b.pes))[:len(b.pes)]
	src, dst := b.pes, b.dst
	for len(bounds) > 2 {
		n := 1
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+1]
			if i+2 < len(bounds) {
				hi = bounds[i+2]
			}
			a, z, out := src[lo:mid], src[mid:hi], dst[lo:lo]
			for len(a) > 0 && len(z) > 0 {
				c := bytes.Compare(b.key(&z[0]), b.key(&a[0]))
				if c < 0 {
					out, z = append(out, z[0]), z[1:]
					continue
				}
				if c == 0 {
					z[0].dup = true // follows a[0], or a copy of it
				}
				out, a = append(out, a[0]), a[1:]
			}
			out = append(append(out, a...), z...)
			bounds[n] = hi
			n++
		}
		bounds = bounds[:n]
		src, dst = dst, src
	}
	b.pes, b.dst = src, dst
}
