package engine

import (
	"fmt"

	"orchestra/internal/ring"
)

// recoverDirective is the initiator's recovery broadcast (§V-D): the new
// phase number, the snapshot-member indices of ALL nodes failed so far
// (cumulative, so that directives are order-insensitive), and the recovery
// routing table (survivors keep their ranges; failed ranges are split among
// the failed node's replicas).
type recoverDirective struct {
	newPhase   uint32
	failedIdxs []int
	newTable   *ring.Table
}

// initiateRecovery runs at the query initiator when a node failure is
// detected mid-query with incremental recovery enabled. It determines the
// change in range assignment (stage 1 of §V-D), then broadcasts the
// directive so every live node performs stages 2-4.
func (ex *executor) initiateRecovery(failed ring.NodeID) error {
	ex.mu.Lock()
	if !ex.table.Contains(failed) {
		ex.mu.Unlock()
		return nil // already handled
	}
	idx, ok := ex.snapshot.MemberIndex(failed)
	if !ok {
		ex.mu.Unlock()
		return fmt.Errorf("engine: failed node %s not in snapshot", failed)
	}
	newTable, err := ex.table.WithoutNodes([]ring.NodeID{failed})
	if err != nil {
		ex.mu.Unlock()
		return err
	}
	// Cumulative failed set: every index failed so far plus the new one,
	// so a node that misses or reorders directives still converges.
	failedIdxs := []int{idx}
	for i := 0; i < ex.snapshot.Size(); i++ {
		if ex.failed.Has(i) {
			failedIdxs = append(failedIdxs, i)
		}
	}
	dir := recoverDirective{
		newPhase:   ex.phase + 1,
		failedIdxs: failedIdxs,
		newTable:   newTable,
	}
	ex.mu.Unlock()

	// Advance locally before any recovery traffic can possibly arrive back.
	ex.advance(dir)

	payload := ex.header(nil)
	body, err := encodeRecoverDirective(dir)
	if err != nil {
		return err
	}
	payload = append(payload, body...)
	// Broadcast to the survivors, then apply locally. Per-link FIFO from
	// the initiator guarantees every node sees the directive before any
	// later traffic the initiator produces for the new phase.
	for _, id := range newTable.Members() {
		if id == ex.self() {
			continue
		}
		_ = ex.eng.node.Endpoint().Send(id, msgRecover, payload)
	}
	ex.applyRecover()
	return nil
}

// advance installs a directive's routing table, phase and failed set in one
// step, synchronously with the directive's receipt. The three must move
// together: a node that filters by the failed set (dropping tainted
// arrivals, skipping a dead index node's IDs) while still counting itself
// in the old phase could complete the old wave without that data, and a
// blocking aggregate would emit clean-looking but incomplete groups that no
// downstream purge retracts. Once the phase has advanced the old wave can
// no longer complete here, and this node's producers stop announcing its
// end-of-stream to others (exchProducer.eos). Reports whether the
// directive was news.
func (ex *executor) advance(dir recoverDirective) bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if dir.newPhase <= ex.phase {
		return false // duplicate or out of date: failed sets are cumulative,
		// so the newer directive subsumed this one
	}
	ex.table = dir.newTable
	ex.phase = dir.newPhase
	for _, idx := range dir.failedIdxs {
		if idx >= 0 && idx < ex.snapshot.Size() {
			ex.failed.Set(idx)
		}
	}
	return true
}

// applyRecover performs the local portion of incremental recomputation
// (§V-D stages 2-4) on every live node, for whatever advance installed since
// the last application:
//
//  2. Drop all intermediate results dependent on data from the failed
//     nodes: purge tainted tuples from join build tables, drop tainted
//     aggregate sub-groups, discard tainted pending scan IDs, and (at the
//     initiator) purge tainted collected results.
//  3. Restart leaf-level operations for the failed nodes' hash key space
//     ranges: re-run the index side over inherited ranges.
//  4. Re-create data that was sent to the failed nodes' ranges: replay the
//     exchange output caches for tuples whose destination died, routed by
//     the recovery table and tagged with the new phase.
func (ex *executor) applyRecover() {
	// Serialize whole recovery applications: directives dispatched on
	// separate goroutines must not interleave their purge/replay stages,
	// and one that runs late catches up from the last applied table to
	// the current one in a single step.
	ex.recoverMu.Lock()
	defer ex.recoverMu.Unlock()

	ex.mu.Lock()
	if ex.phase == ex.appliedPhase {
		ex.mu.Unlock()
		return // a concurrent application already caught up to this phase
	}
	prevTable, newTable := ex.applied, ex.table
	ex.applied, ex.appliedPhase = ex.table, ex.phase
	failed := ex.failed.Clone()
	newPhase := ex.phase
	ex.mu.Unlock()

	// Stage 2: purge tainted state everywhere.
	for _, r := range ex.recoverables {
		r.recover(failed)
	}
	if ex.shipCons != nil {
		ex.shipCons.purge(failed)
	}

	// Stage 4: replay cached exchange output bound for failed nodes.
	for _, prod := range ex.producers {
		prod.replay(failed, newTable, newPhase)
	}

	// Stage 3: restart leaf-level operations for the inherited ranges. A
	// range is inherited if this node owns it now but did not before.
	self := ex.self()
	var inherited []ring.Range
	for _, seg := range ring.Segments(prevTable, newTable) {
		if seg.New[0] == self && seg.Old[0] != self {
			inherited = append(inherited, seg.Range)
		}
	}
	for _, leaf := range ex.scans {
		tick := leaf.idxSeq.ticket()
		go leaf.runIndexSide(newPhase, inherited, prevTable, tick)
	}

	// The live set shrank and the phase advanced: re-evaluate every gate
	// that might already hold all the markers it needs.
	for _, m := range ex.marked {
		m.recheck()
	}
	if ex.shipCons != nil {
		ex.shipCons.recheck()
	}
}
