package engine

import (
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

// cutByPhase wraps the rows a stateful operator emits — cols, with each
// row's provenance (nil: none) and phase — as batches of one phase each:
// after a recovery one emission can mix clean earlier-wave rows with
// recomputed ones. Rows of one phase, the normal case, are not copied.
func cutByPhase(cols *tuple.Batch, prov []Prov, phases []uint32) ([]*colBatch, error) {
	if cols.N == 0 {
		return nil, nil
	}
	all := &colBatch{cols: cols, phase: phases[0], prov: prov}
	mixed := false
	for _, p := range phases {
		mixed = mixed || p != phases[0]
	}
	if !mixed {
		return []*colBatch{all}, nil
	}
	var out []*colBatch
next:
	for i, p := range phases {
		for _, cb := range out {
			if cb.phase == p {
				continue next
			}
		}
		var sel []int
		for j := i; j < len(phases); j++ {
			if phases[j] == p {
				sel = append(sel, j)
			}
		}
		cb := newColBatch(p)
		if err := cb.appendRows(all, sel); err != nil {
			return nil, err
		}
		out = append(out, cb)
	}
	return out, nil
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

// computeOp evaluates one compiled vector per output expression. The first
// reference to an input column passes that column's vector through: a
// pushed batch is borrowed for the call, and so is the output. A literal,
// or a column referenced again, is filled into a vector the operator owns
// and refills on the next push — a repeat must be a copy, or an in-place
// compaction downstream would compact one vector twice. (The final
// pipeline's computeCols owns every vector it returns.)
type computeOp struct {
	fns   []vecFn
	alias []bool // output j is the first reference to an input column
	fail  func(error)
	out   sink

	mu    sync.Mutex
	spare [][]tuple.ColVec // owned vectors no push is using; pushes may run concurrently
}

func newComputeOp(exprs []Expr, fail func(error), out sink) *computeOp {
	c := &computeOp{fns: compileVecs(exprs), alias: make([]bool, len(exprs)), fail: fail, out: out}
	seen := make(map[int]bool)
	for j, e := range exprs {
		if col, ok := e.(Col); ok && !seen[col.Idx] {
			seen[col.Idx], c.alias[j] = true, true
		}
	}
	return c
}

func (c *computeOp) push(cb *colBatch) {
	n := cb.cols.N
	if n == 0 {
		return // possibly untyped: no columns to read
	}
	own := c.take()
	defer c.give(own)
	out := &tuple.Batch{N: n, Cols: make([]tuple.ColVec, len(c.fns))}
	for j, fn := range c.fns {
		v := fn(cb.cols)
		switch {
		case !v.T.IsValidType():
			c.fail(fmt.Errorf("engine: compute: column %d has invalid type", j))
			return
		case c.alias[j] || !v.konst && !v.borrowed:
			out.Cols[j] = v.ColVec
		default:
			own[j] = v.fill(own[j], n)
			out.Cols[j] = own[j]
		}
	}
	c.out.push(&colBatch{cols: out, phase: cb.phase, prov: cb.prov})
}

// take returns a set of owned vectors no other push is using.
func (c *computeOp) take() []tuple.ColVec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := len(c.spare); k > 0 {
		own := c.spare[k-1]
		c.spare = c.spare[:k-1]
		return own
	}
	return make([]tuple.ColVec, len(c.fns))
}

// give returns owned vectors whose push has finished with them.
func (c *computeOp) give(own []tuple.ColVec) {
	c.mu.Lock()
	c.spare = append(c.spare, own)
	c.mu.Unlock()
}

func (c *computeOp) eos(phase uint32) { c.out.eos(phase) }

// --- pipelined (symmetric) hash join ---
//
// Both inputs stream in concurrently; each side inserts into its own build
// table and probes the other's, so results are produced as soon as both
// matching tuples have arrived — the pipelined hash join of Table I [17].
// All inserted tuples are retained until query completion for recovery.

// joinBuild is one input of the join as retained: its rows as one growing
// batch — the join's own copy (pushed batches are borrowed), with the
// provenance set and phase each row arrived under — and a hash index from
// key to the chain of rows holding it.
type joinBuild struct {
	keys   []int
	rows   colBatch // rows.phase is unused: see phases
	phases []uint32
	idx    keyIndex // distinct key → id
	head   []int32  // per key id: the newest row holding the key, +1
	next   []int32  // per row: the next older row of the same key, +1; 0 ends the chain
}

// link indexes rows [base, base+n) of the build batch, whose keys vecs hold.
func (s *joinBuild) link(vecs []*tuple.ColVec, n, base int) error {
	ids, err := s.idx.lookup(vecs, n, true)
	if err != nil {
		return err
	}
	s.head = grown(s.head, s.idx.len())
	for i, id := range ids {
		s.next = append(s.next, s.head[id])
		s.head[id] = int32(base + i + 1)
	}
	return nil
}

type joinOp struct {
	// curPhase reports the executor's current phase; stateful operators
	// must ignore end-of-stream signals from superseded waves (a stale
	// completion decided just before a recovery landed), or they would
	// close before the recovery wave's recomputed data arrives.
	curPhase func() uint32
	fail     func(error)

	mu          sync.Mutex
	left, right joinBuild
	msel, tsel  []int // scratch: the matched row pairs of one push, (mine, theirs)
	leftEOS     bool
	rightEOS    bool
	eosPhase    uint32
	finished    bool
	out         sink
}

func newJoinOp(leftKeys, rightKeys []int, curPhase func() uint32, fail func(error), out sink) *joinOp {
	j := &joinOp{curPhase: curPhase, fail: fail, out: out}
	j.left.keys, j.right.keys = leftKeys, rightKeys
	j.left.rows.cols, j.right.rows.cols = &tuple.Batch{}, &tuple.Batch{}
	return j
}

// joinSide adapts one input of the join to the sink interface.
type joinSide struct {
	j    *joinOp
	left bool
}

func (s joinSide) push(cb *colBatch) { s.j.pushSide(cb, s.left) }
func (s joinSide) eos(phase uint32)  { s.j.eosSide(s.left, phase) }

// pushSide inserts the batch into its side's build table, then probes the
// other side's — under one lock, so every matching pair is produced exactly
// once, by whichever of its rows arrived second.
func (j *joinOp) pushSide(cb *colBatch, left bool) {
	if cb.cols.N == 0 {
		return // possibly untyped: no key columns to read
	}
	j.mu.Lock()
	out, err := j.insertProbe(cb, left)
	j.mu.Unlock()
	if err != nil {
		j.fail(fmt.Errorf("engine: join: %w", err))
		return
	}
	for _, cb := range out {
		j.out.push(cb)
	}
}

func (j *joinOp) insertProbe(cb *colBatch, left bool) ([]*colBatch, error) {
	mine, theirs := &j.right, &j.left
	if left {
		mine, theirs = theirs, mine
	}
	base, vecs := mine.rows.cols.N, keyVecs(cb.cols, mine.keys)
	if err := mine.rows.appendBatch(cb); err != nil {
		return nil, err
	}
	for i := 0; i < cb.cols.N; i++ {
		mine.phases = append(mine.phases, cb.phase)
	}
	if err := mine.link(vecs, cb.cols.N, base); err != nil {
		return nil, err
	}
	ids, _ := theirs.idx.lookup(vecs, cb.cols.N, false) // a probe has no error
	msel, tsel := j.msel[:0], j.tsel[:0]
	for i, id := range ids {
		if id < 0 {
			continue
		}
		for r := theirs.head[id]; r != 0; r = theirs.next[r-1] {
			msel, tsel = append(msel, base+i), append(tsel, int(r-1))
		}
	}
	j.msel, j.tsel = msel, tsel
	if len(msel) == 0 {
		return nil, nil
	}
	lsel, rsel := tsel, msel
	if left {
		lsel, rsel = msel, tsel
	}
	// Output = left columns then right: two gathers by the pair lists.
	n := len(lsel)
	out, rcols := &tuple.Batch{}, &tuple.Batch{}
	if err := out.AppendRowsFrom(j.left.rows.cols, lsel); err != nil {
		return nil, err
	}
	if err := rcols.AppendRowsFrom(j.right.rows.cols, rsel); err != nil {
		return nil, err
	}
	out.Cols = append(out.Cols, rcols.Cols...)
	phases := make([]uint32, n)
	var prov []Prov
	if cb.prov != nil {
		prov = make([]Prov, n)
	}
	var lastL, lastR, union Prov // matches of one batch mostly share their sets
	for i := range phases {
		l, r := lsel[i], rsel[i]
		phases[i] = max(j.left.phases[l], j.right.phases[r])
		if prov != nil {
			if lp, rp := j.left.rows.prov[l], j.right.rows.prov[r]; union == nil || !sameProv(lp, lastL) || !sameProv(rp, lastR) {
				lastL, lastR, union = lp, rp, lp.Union(rp)
			}
			prov[i] = union
		}
	}
	return cutByPhase(out, prov, phases)
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

// recover purges tainted tuples from both build tables — compacting the
// batches and indexing what is left afresh — and reopens the operator so
// recomputed tuples can probe the retained clean state.
func (j *joinOp) recover(failed Prov) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, s := range []*joinBuild{&j.left, &j.right} {
		keep := dropTainted(&s.rows, failed)
		if keep == nil {
			continue
		}
		s.phases = compactVec(s.phases, keep)
		s.idx.reset()
		s.head, s.next = s.head[:0], s.next[:0]
		if err := s.link(keyVecs(s.rows.cols, s.keys), s.rows.cols.N, 0); err != nil {
			j.fail(fmt.Errorf("engine: join recovery: %w", err))
		}
	}
	j.leftEOS, j.rightEOS, j.finished = false, false, false
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
	// tab holds one slot per sub-group: its key is the group columns and,
	// with provenance, the sub-group's provenance set (its index in sets)
	// and phase.
	tab      *groupTable
	sets     []Prov           // the distinct provenance sets seen, the operator's own copies
	setIDs   map[string]int64 // Prov.Key → index in sets
	setVec   []int64          // scratch: the set of each row of a push
	phaseVec []int64          // scratch: the phase of each row of a push
	dirty    keyIndex         // groups changed since the last emission
	emitted  bool             // at least one end-of-stream emission happened
	finished bool
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
		tab:       newGroupTable(specs),
		setIDs:    make(map[string]int64),
		out:       out,
	}
}

// push folds a batch into the sub-groups, reading the typed column vectors
// in place.
func (a *aggOp) push(cb *colBatch) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cb.phase > a.newest {
		a.newest = cb.phase
	}
	if cb.cols.N == 0 {
		return // possibly untyped: no key columns to read
	}
	vecs := keyVecs(cb.cols, a.groupCols)
	var err error
	if a.emitted {
		// The groups' previous emission is being (or has been) purged
		// downstream; re-emit them at the next end-of-stream.
		_, err = a.dirty.lookup(vecs, cb.cols.N, true)
	}
	if a.trackProv {
		a.setVec, a.phaseVec = a.setVec[:0], a.phaseVec[:0]
		for i, p := range cb.prov {
			if i == 0 || !sameProv(p, cb.prov[i-1]) { // else: a run of rows sharing one set
				k := p.Key()
				if _, ok := a.setIDs[k]; !ok {
					a.setIDs[k], a.sets = int64(len(a.sets)), append(a.sets, p.Clone())
				}
				a.setVec = append(a.setVec, a.setIDs[k])
			} else {
				a.setVec = append(a.setVec, a.setVec[i-1])
			}
			a.phaseVec = append(a.phaseVec, int64(cb.phase))
		}
		vecs = append(vecs, &tuple.ColVec{T: tuple.Int64, I64: a.setVec}, &tuple.ColVec{T: tuple.Int64, I64: a.phaseVec})
	}
	if err == nil {
		_, err = a.tab.fold(vecs, cb.cols, -1)
	}
	if err != nil {
		a.fail(fmt.Errorf("engine: aggregate: %w", err))
	}
}

// emit renders the merge of the sub-groups, one output row per group or —
// in partial mode — per group and provenance set; with only, just the rows
// of the groups it indexes. A row's provenance is the union of its sub-groups', so
// a downstream purge drops the whole row when any contributor fails; its
// phase is their newest. The merge is the fold again, over the sub-groups'
// partial layout; an AVG leaves as its quotient in complete mode and as its
// (sum, count) pair otherwise.
func (a *aggOp) emit(only *keyIndex) ([]*colBatch, error) {
	part := a.tab.render(false)
	if part.N == 0 {
		return nil, nil
	}
	g := len(a.groupCols)
	keys := g
	if a.mode == AggPartial && a.trackProv {
		keys++ // the set column follows the group columns
	}
	merged := newGroupTable(a.specs)
	ids, err := merged.fold(vecsOf(part.Cols[:keys]), part, len(a.tab.keys.Cols))
	if err != nil {
		return nil, err
	}
	out := merged.render(a.mode == AggComplete)
	out.Cols = append(out.Cols[:g], out.Cols[keys:]...)
	phases := make([]uint32, out.N)
	var prov []Prov
	if a.trackProv {
		prov = make([]Prov, out.N)
		for i, id := range ids {
			phases[id] = max(phases[id], uint32(part.Cols[g+1].I64[i]))
			prov[id] = prov[id].Union(a.sets[part.Cols[g].I64[i]])
		}
	} else {
		for i := range phases {
			phases[i] = a.newest
		}
	}
	if only != nil {
		keep := NewBitset(out.N)
		hit, _ := only.lookup(vecsOf(out.Cols[:g]), out.N, false) // a probe has no error
		for i, id := range hit {
			if id >= 0 {
				keep.Set(i)
			}
		}
		out.CompactWords(keep)
		prov, phases = compactVec(prov, keep), compactVec(phases, keep)
	}
	return cutByPhase(out, prov, phases)
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
	var out []*colBatch
	var err error
	switch {
	case a.mode == AggPartial:
		// Partial states are merged downstream (FinalAgg at the initiator),
		// so each wave ships a DELTA — the merge of the sub-groups not
		// shipped yet — and then forgets them. Deltas compose with
		// retained earlier rows, which is essential here: with no exchange
		// upstream, a live node's clean earlier emission survives
		// downstream purges and must not be re-included. The downstream
		// rows of a tainted shipped sub-group are purged by provenance and
		// the recovery wave recomputes its input, so nothing is lost or
		// double-counted.
		//
		// One row is emitted per distinct provenance set — never merging
		// sub-groups with different contributors into one row. This
		// granularity is load-bearing: a downstream purge drops whole rows
		// by provenance, so a row must contain either only-tainted or
		// only-clean state. Merging a clean sub-group with a tainted one
		// would let the purge silently discard clean state that has been
		// shipped and is never resent (the paper's
		// per-contributing-node-set sub-group shipping, §V-D).
		out, err = a.emit(nil)
		a.tab = newGroupTable(a.specs)
	case !a.emitted:
		// Complete mode, first completion: emit every group.
		out, err = a.emit(nil)
	default:
		// Complete mode, post-recovery completion: re-emit only the groups
		// whose previous emission was invalidated (their sub-groups
		// changed). A dirty group's earlier emission either carried a
		// tainted contributor and was purged downstream, or never happened
		// (the group was inherited from the failed node), so the full merge
		// of its sub-groups replaces it exactly. That holds because a wave
		// only completes here with every contributor's output intact: see
		// newest, and executor.advance for the senders' side.
		out, err = a.emit(&a.dirty)
	}
	a.emitted = true
	a.dirty.reset()
	a.mu.Unlock()
	if err != nil {
		a.fail(fmt.Errorf("engine: aggregate output: %w", err))
	}
	for _, cb := range out {
		a.out.push(cb)
	}
	a.out.eos(phase)
}

// recover drops tainted sub-groups, marking their groups for re-emission;
// if the aggregate had already emitted, it reopens for the recovery wave.
func (a *aggOp) recover(failed Prov) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.finished = false
	if !a.trackProv || a.tab.len() == 0 {
		return
	}
	g, slots := len(a.groupCols), a.tab.len()
	keep := NewBitset(slots)
	var lost []int
	for slot, set := range a.tab.keys.Cols[g].I64 {
		if a.sets[set].Intersects(failed) {
			lost = append(lost, slot)
		} else {
			keep.Set(slot)
		}
	}
	if lost == nil {
		return
	}
	var groups tuple.Batch
	err := groups.AppendRowsFrom(&tuple.Batch{N: slots, Cols: a.tab.keys.Cols[:g]}, lost)
	if err == nil {
		_, err = a.dirty.lookup(vecsOf(groups.Cols), groups.N, true)
	}
	if err != nil {
		a.fail(fmt.Errorf("engine: aggregate recovery: %w", err))
	}
	a.tab.compact(keep)
}
