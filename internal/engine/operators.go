package engine

import (
	"encoding/binary"
	"fmt"
	"sync"

	"orchestra/internal/tuple"
)

// sink receives the batches an upstream operator pushes. A pushed batch is
// borrowed: the callee processes it — it may mutate it in place: compact
// it, swap its column headers — or copies what it keeps before returning,
// and never retains the batch, its vectors or its provenance slice. The
// provenance sets themselves may be kept: they are shared between rows and
// batches, so nobody mutates one without cloning it first.
//
// The end-of-stream signal carries the phase of the wave that produced it: a
// completion marker must always be attributed to the wave it terminates,
// never to whatever phase the node happens to be in when the marker is
// emitted — otherwise a phase-0 completion racing with a recovery directive
// would satisfy a phase-1 gate before the recomputed data exists (§V-D).
type sink interface {
	push(cb *colBatch)
	eos(phase uint32)
}

// recoverable state-holding operators participate in incremental recovery:
// they purge tainted state and, if they had already finished, reopen so the
// recomputation phase can flow through them (§V-D).
type recoverable interface {
	recover(failed Prov)
}

// phaseCut gathers the rows a stateful operator emits into one batch per
// phase: a batch has a single phase, and after a recovery one emission can
// mix clean earlier-wave rows with recomputed ones.
type phaseCut struct {
	withProv bool
	batches  []*colBatch
}

// add appends one output row. The first row of a batch fixes its column
// types; a later row that disagrees is an error naming the column.
func (c *phaseCut) add(row tuple.Row, prov Prov, phase uint32) error {
	var cb *colBatch
	for _, b := range c.batches {
		if b.phase == phase {
			cb = b
			break
		}
	}
	if cb == nil {
		cb = newColBatch(phase)
		c.batches = append(c.batches, cb)
	}
	if err := cb.cols.AppendRow(row); err != nil {
		return err
	}
	if c.withProv {
		cb.prov = append(cb.prov, prov)
	}
	return nil
}

func (c *phaseCut) pushTo(out sink) {
	for _, cb := range c.batches {
		out.push(cb)
	}
}

// --- select ---

// selectOp filters rows: the predicate, compiled once per query, evaluates
// over the column vectors into a selection bitset, and one compaction
// applies it to the columns and the provenance vector.
type selectOp struct {
	pred batchPredFn
	out  sink
}

func (s *selectOp) push(cb *colBatch) {
	sel := NewBitset(cb.cols.N)
	s.pred(cb.cols, sel)
	if n := sel.Count(); n == 0 {
		return
	} else if n < cb.cols.N {
		compactRows(cb, sel)
	}
	s.out.push(cb)
}

func (s *selectOp) eos(phase uint32) { s.out.eos(phase) }

// --- project ---

type projectOp struct {
	cols []int
	out  sink
}

// push projects by rearranging column headers: O(arity), not O(rows).
func (p *projectOp) push(cb *colBatch) {
	cb.cols.Project(p.cols)
	p.out.push(cb)
}

func (p *projectOp) eos(phase uint32) { p.out.eos(phase) }

// --- compute-function ---

// computeOp evaluates compiled scalar expressions into fresh vectors (the
// final pipeline's computeCols). An expression whose result changes type
// from one row to the next cannot form a column: the fragment fails, naming
// the column, rather than drop or coerce rows.
type computeOp struct {
	fns  []evalFn
	fail func(error)
	out  sink
}

func (c *computeOp) push(cb *colBatch) {
	out, err := computeCols(c.fns, cb.cols)
	if err != nil {
		c.fail(err)
		return
	}
	c.out.push(&colBatch{cols: out, phase: cb.phase, prov: cb.prov})
}

func (c *computeOp) eos(phase uint32) { c.out.eos(phase) }

// --- pipelined (symmetric) hash join ---
//
// Both inputs stream in concurrently; each side inserts into its own hash
// table and probes the other's, so results are produced as soon as both
// matching tuples have arrived — the pipelined hash join of Table I [17].
// All inserted tuples are retained until query completion for recovery.

// joinRow is a retained input row — the join's own copy of it (pushed
// batches are borrowed), with the provenance set and phase it arrived under.
type joinRow struct {
	row   tuple.Row
	prov  Prov
	phase uint32
}

type joinOp struct {
	// curPhase reports the executor's current phase; stateful operators
	// must ignore end-of-stream signals from superseded waves (a stale
	// completion decided just before a recovery landed), or they would
	// close before the recovery wave's recomputed data arrives.
	curPhase func() uint32
	fail     func(error)

	mu        sync.Mutex
	leftKeys  []int
	rightKeys []int
	left      map[string][]joinRow
	right     map[string][]joinRow
	keyBuf    []byte
	leftEOS   bool
	rightEOS  bool
	eosPhase  uint32
	finished  bool
	out       sink
}

func newJoinOp(leftKeys, rightKeys []int, curPhase func() uint32, fail func(error), out sink) *joinOp {
	return &joinOp{
		curPhase:  curPhase,
		fail:      fail,
		leftKeys:  leftKeys,
		rightKeys: rightKeys,
		left:      make(map[string][]joinRow),
		right:     make(map[string][]joinRow),
		out:       out,
	}
}

// joinSide adapts one input of the join to the sink interface.
type joinSide struct {
	j    *joinOp
	left bool
}

func (s joinSide) push(cb *colBatch) { s.j.pushSide(cb, s.left) }
func (s joinSide) eos(phase uint32)  { s.j.eosSide(s.left, phase) }

func (j *joinOp) pushSide(cb *colBatch, left bool) {
	rows := cb.cols.Rows() // the retained copies, carved from one slab
	mine, theirs, keys := j.right, j.left, j.rightKeys
	if left {
		mine, theirs, keys = j.left, j.right, j.leftKeys
	}
	out := phaseCut{withProv: cb.prov != nil}
	var concat tuple.Row
	var lastL, lastR, union Prov // matches of one batch mostly share their sets
	var err error
	j.mu.Lock()
	for i, row := range rows {
		t := joinRow{row: row, phase: cb.phase}
		if cb.prov != nil {
			t.prov = cb.prov[i]
		}
		j.keyBuf = appendBatchKey(j.keyBuf[:0], cb.cols, i, keys)
		k := string(j.keyBuf)
		mine[k] = append(mine[k], t)
		for _, o := range theirs[k] {
			lt, rt := o, t
			if left {
				lt, rt = t, o
			}
			if out.withProv && (union == nil || !sameProv(lt.prov, lastL) || !sameProv(rt.prov, lastR)) {
				lastL, lastR, union = lt.prov, rt.prov, lt.prov.Union(rt.prov)
			}
			concat = append(append(concat[:0], lt.row...), rt.row...)
			if e := out.add(concat, union, max(lt.phase, rt.phase)); e != nil && err == nil {
				err = e
			}
		}
	}
	j.mu.Unlock()
	if err != nil {
		j.fail(fmt.Errorf("engine: join output: %w", err))
		return
	}
	out.pushTo(j.out)
}

func (j *joinOp) eosSide(left bool, phase uint32) {
	j.mu.Lock()
	if j.curPhase != nil && phase < j.curPhase() {
		// Stale wave: the recovery that superseded it reset this join and
		// will drive a fresh end-of-stream for the current wave.
		j.mu.Unlock()
		return
	}
	if left {
		j.leftEOS = true
	} else {
		j.rightEOS = true
	}
	if phase > j.eosPhase {
		j.eosPhase = phase
	}
	fire := j.leftEOS && j.rightEOS && !j.finished
	outPhase := j.eosPhase
	if fire {
		j.finished = true
	}
	j.mu.Unlock()
	if fire {
		j.out.eos(outPhase)
	}
}

// recover purges tainted tuples from both build tables and reopens the
// operator so recomputed tuples can probe the retained clean state.
func (j *joinOp) recover(failed Prov) {
	j.mu.Lock()
	purge := func(table map[string][]joinRow) {
		for k, ts := range table {
			kept := ts[:0]
			for _, t := range ts {
				if !t.prov.Intersects(failed) {
					kept = append(kept, t)
				}
			}
			if len(kept) == 0 {
				delete(table, k)
			} else {
				table[k] = kept
			}
		}
	}
	purge(j.left)
	purge(j.right)
	j.leftEOS, j.rightEOS, j.finished = false, false, false
	j.mu.Unlock()
}

// --- aggregate ---
//
// Blocking hash aggregation. Each group is partitioned into sub-groups
// keyed by (provenance set, phase): the effects of all tuples from each
// possible set of contributing nodes are summarized separately, so that on
// failure exactly the tainted sub-groups can be dropped, and recomputed
// (new-phase) contributions are emitted without duplicating already-emitted
// clean sub-groups (§V-D). The sub-group count depends on node-set
// combinations, not input size.

type aggState struct {
	counts []int64   // per spec: tuples seen (for COUNT and AVG)
	sums   []float64 // per spec: running sum (SUM, AVG)
	isums  []int64   // per spec: integer running sum
	allInt []bool    // per spec: all inputs integral so far
	mins   []tuple.Value
	maxs   []tuple.Value
	n      int64 // tuples in this sub-group
}

type aggSubgroup struct {
	prov    Prov
	phase   uint32
	emitted bool // partial mode: already included in a shipped delta row
	st      *aggState
}

type aggGroup struct {
	groupVals tuple.Row
	subs      map[string]*aggSubgroup
}

type aggOp struct {
	// curPhase: see joinOp — stale-wave end-of-stream must not trigger an
	// emission, or post-purge remainders would ship as if they were the
	// full groups and later merged re-emissions would double-count.
	curPhase func() uint32
	fail     func(error)

	mu        sync.Mutex
	groupCols []int
	specs     []AggSpec
	mode      AggMode
	trackProv bool
	groups    map[string]*aggGroup
	keyBuf    []byte
	dirty     map[string]bool // groups changed since the last emission
	emitted   bool            // at least one end-of-stream emission happened
	finished  bool
	// newest is the newest wave among the absorbed batches. Senders that
	// applied a recovery directive route by the recovery table at once, so
	// a node still in the old phase can hold part of a group it is about
	// to inherit; an old wave's end-of-stream must not emit that part as
	// if it were the group (see eos).
	newest uint32
	out    sink
}

func newAggOp(groupCols []int, specs []AggSpec, mode AggMode, trackProv bool, curPhase func() uint32, fail func(error), out sink) *aggOp {
	return &aggOp{
		curPhase:  curPhase,
		fail:      fail,
		groupCols: groupCols,
		specs:     specs,
		mode:      mode,
		trackProv: trackProv,
		groups:    make(map[string]*aggGroup),
		dirty:     make(map[string]bool),
		out:       out,
	}
}

// newAggState returns the identity state for n specs.
func newAggState(n int) *aggState {
	st := &aggState{
		counts: make([]int64, n),
		sums:   make([]float64, n),
		isums:  make([]int64, n),
		allInt: make([]bool, n),
		mins:   make([]tuple.Value, n),
		maxs:   make([]tuple.Value, n),
	}
	for i := range st.allInt {
		st.allInt[i] = true
	}
	return st
}

// push folds a batch into the groups, reading the typed column vectors in
// place; what a group keeps (its key values, MIN/MAX candidates) is copied.
func (a *aggOp) push(cb *colBatch) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cb.phase > a.newest {
		a.newest = cb.phase
	}
	var sk string // sub-group key of the current run of rows sharing one set
	for i := 0; i < cb.cols.N; i++ {
		a.keyBuf = appendBatchKey(a.keyBuf[:0], cb.cols, i, a.groupCols)
		g := a.groups[string(a.keyBuf)]
		if g == nil {
			g = &aggGroup{groupVals: make(tuple.Row, len(a.groupCols)), subs: map[string]*aggSubgroup{}}
			for j, c := range a.groupCols {
				g.groupVals[j] = cb.cols.Cols[c].Value(i)
			}
			a.groups[string(a.keyBuf)] = g
		}
		if a.emitted && !a.dirty[string(a.keyBuf)] {
			// The group's previous emission is being (or has been) purged
			// downstream; re-emit it at the next end-of-stream.
			a.dirty[string(a.keyBuf)] = true
		}
		if a.trackProv && (i == 0 || !sameProv(cb.prov[i], cb.prov[i-1])) {
			sk = string(binary.BigEndian.AppendUint32([]byte(cb.prov[i].Key()), cb.phase))
		}
		sub := g.subs[sk]
		if sub == nil {
			sub = &aggSubgroup{phase: cb.phase, st: newAggState(len(a.specs))}
			if a.trackProv {
				sub.prov = cb.prov[i].Clone()
			}
			g.subs[sk] = sub
		}
		st := sub.st
		st.n++
		for j, spec := range a.specs {
			var v tuple.Value
			if spec.Col >= 0 {
				v = cb.cols.Cols[spec.Col].Value(i)
			}
			switch spec.Func {
			case AggCount:
				st.counts[j]++
			case AggSum, AggAvg:
				st.counts[j]++
				if v.T == tuple.Int64 {
					st.isums[j] += v.I64
				} else {
					st.allInt[j] = false
				}
				st.sums[j] += v.AsFloat()
			case AggMin:
				if st.counts[j] == 0 || v.Cmp(st.mins[j]) < 0 {
					st.mins[j] = v
				}
				st.counts[j]++
			case AggMax:
				if st.counts[j] == 0 || v.Cmp(st.maxs[j]) > 0 {
					st.maxs[j] = v
				}
				st.counts[j]++
			}
		}
	}
}

// sumValue returns the accumulated sum with integer preservation.
func (st *aggState) sumValue(i int) tuple.Value {
	if st.allInt[i] {
		return tuple.I(st.isums[i])
	}
	return tuple.F(st.sums[i])
}

// mergeState folds src into dst, spec by spec.
func mergeState(dst, src *aggState, specs []AggSpec) {
	dst.n += src.n
	for i, spec := range specs {
		switch spec.Func {
		case AggCount:
			dst.counts[i] += src.counts[i]
		case AggSum, AggAvg:
			dst.isums[i] += src.isums[i]
			dst.allInt[i] = dst.allInt[i] && src.allInt[i]
			dst.sums[i] += src.sums[i]
			dst.counts[i] += src.counts[i]
		case AggMin:
			if src.counts[i] > 0 && (dst.counts[i] == 0 || src.mins[i].Cmp(dst.mins[i]) < 0) {
				dst.mins[i] = src.mins[i]
			}
			dst.counts[i] += src.counts[i]
		case AggMax:
			if src.counts[i] > 0 && (dst.counts[i] == 0 || src.maxs[i].Cmp(dst.maxs[i]) > 0) {
				dst.maxs[i] = src.maxs[i]
			}
			dst.counts[i] += src.counts[i]
		}
	}
}

// appendAggValues renders st after row, one value per spec — the one place
// an aggregate state becomes output. An AVG is its quotient when final and
// the (sum, count) pair of the partial layout otherwise.
func appendAggValues(row tuple.Row, st *aggState, specs []AggSpec, final bool) tuple.Row {
	for i, spec := range specs {
		switch spec.Func {
		case AggCount:
			row = append(row, tuple.I(st.counts[i]))
		case AggSum:
			row = append(row, st.sumValue(i))
		case AggMin:
			row = append(row, st.mins[i])
		case AggMax:
			row = append(row, st.maxs[i])
		case AggAvg:
			switch {
			case !final:
				row = append(row, tuple.F(st.sums[i]), tuple.I(st.counts[i]))
			case st.counts[i] == 0:
				row = append(row, tuple.F(0))
			default:
				row = append(row, tuple.F(st.sums[i]/float64(st.counts[i])))
			}
		}
	}
	return row
}

// emit renders the merge of subs as one output row of group g. Its
// provenance is the union of the sub-groups', so a downstream purge drops
// the whole row when any contributor fails; its phase is their newest.
func (a *aggOp) emit(out *phaseCut, g *aggGroup, subs []*aggSubgroup) error {
	st := newAggState(len(a.specs))
	var prov Prov
	var phase uint32
	for _, sub := range subs {
		mergeState(st, sub.st, a.specs)
		if a.trackProv {
			prov = prov.Union(sub.prov)
		}
		phase = max(phase, sub.phase)
	}
	row := appendAggValues(g.groupVals.Clone(), st, a.specs, a.mode == AggComplete)
	return out.add(row, prov, phase)
}

// emitMerged renders one group as a single output row by merging all of its
// current sub-groups: the next emission (of the repaired merge) replaces it
// without duplication.
func (a *aggOp) emitMerged(out *phaseCut, g *aggGroup) error {
	subs := make([]*aggSubgroup, 0, len(g.subs))
	for _, sub := range g.subs {
		subs = append(subs, sub)
	}
	return a.emit(out, g, subs)
}

func (a *aggOp) eos(phase uint32) {
	a.mu.Lock()
	if phase < a.newest || (a.curPhase != nil && phase < a.curPhase()) {
		// Stale wave (see curPhase), or one this node does not yet know to
		// be stale but whose successor's tuples are already absorbed:
		// forward the marker for bookkeeping but emit nothing; the newer
		// wave's end-of-stream will emit.
		a.mu.Unlock()
		a.out.eos(phase)
		return
	}
	if a.finished {
		a.mu.Unlock()
		return
	}
	a.finished = true
	out := phaseCut{withProv: a.trackProv}
	var err error
	note := func(e error) {
		if err == nil {
			err = e
		}
	}
	if a.mode == AggPartial {
		// Partial states are merged downstream (FinalAgg at the initiator),
		// so each wave ships a DELTA: the merge of the sub-groups that have
		// not been shipped yet. Deltas compose with retained earlier rows,
		// which is essential here: with no exchange upstream, a live node's
		// clean earlier emission survives downstream purges and must not be
		// re-included. Tainted emitted sub-groups were dropped by recover()
		// and their downstream rows purged by provenance, so nothing is
		// lost or double-counted.
		for _, g := range a.groups {
			note(a.emitDeltas(&out, g))
		}
	} else if !a.emitted {
		// Complete mode, first completion: emit every group.
		for _, g := range a.groups {
			note(a.emitMerged(&out, g))
		}
	} else {
		// Complete mode, post-recovery completion: re-emit only the groups
		// whose previous emission was invalidated (their sub-groups
		// changed). A dirty group's earlier emission either carried a
		// tainted contributor and was purged downstream, or never happened
		// (the group was inherited from the failed node), so the full merge
		// replaces it exactly. That holds because a wave only completes
		// here with every contributor's output intact: see newest, and
		// executor.advance for the senders' side.
		for gk := range a.dirty {
			if g := a.groups[gk]; g != nil && len(g.subs) > 0 {
				note(a.emitMerged(&out, g))
			}
		}
	}
	a.emitted = true
	a.dirty = make(map[string]bool)
	a.mu.Unlock()
	if err != nil {
		a.fail(fmt.Errorf("engine: aggregate output: %w", err))
	} else {
		out.pushTo(a.out)
	}
	a.out.eos(phase)
}

// emitDeltas renders the group's not-yet-shipped sub-groups as partial
// rows, marking them shipped. One row is emitted per distinct provenance
// set — never merging sub-groups with different contributors into one row.
// This granularity is load-bearing: a downstream purge drops whole rows by
// provenance, so a row must contain either only-tainted or only-clean
// state. Merging a clean sub-group with a tainted one would let the purge
// silently discard clean state that is marked shipped and never resent
// (the paper's per-contributing-node-set sub-group shipping, §V-D).
func (a *aggOp) emitDeltas(out *phaseCut, g *aggGroup) error {
	byProv := make(map[string][]*aggSubgroup)
	var order []string
	for _, sub := range g.subs {
		if sub.emitted {
			continue
		}
		sub.emitted = true
		pk := sub.prov.Key()
		if byProv[pk] == nil {
			order = append(order, pk)
		}
		byProv[pk] = append(byProv[pk], sub)
	}
	for _, pk := range order {
		if err := a.emit(out, g, byProv[pk]); err != nil {
			return err
		}
	}
	return nil
}

// recover drops tainted sub-groups, marking their groups for re-emission;
// if the aggregate had already emitted, it reopens for the recovery wave.
func (a *aggOp) recover(failed Prov) {
	a.mu.Lock()
	for gk, g := range a.groups {
		for sk, sub := range g.subs {
			if sub.prov.Intersects(failed) {
				delete(g.subs, sk)
				a.dirty[gk] = true
			}
		}
		if len(g.subs) == 0 {
			delete(a.groups, gk)
		}
	}
	a.finished = false
	a.mu.Unlock()
}
