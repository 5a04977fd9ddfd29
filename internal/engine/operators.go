package engine

import (
	"encoding/binary"
	"sync"

	"orchestra/internal/tuple"
)

// sink receives batches of tuples pushed by an upstream producer. The
// end-of-stream signal carries the phase of the wave that produced it: a
// completion marker must always be attributed to the wave it terminates,
// never to whatever phase the node happens to be in when the marker is
// emitted — otherwise a phase-0 completion racing with a recovery directive
// would satisfy a phase-1 gate before the recomputed data exists (§V-D).
type sink interface {
	push(ts []Tup)
	eos(phase uint32)
}

// recoverable state-holding operators participate in incremental recovery:
// they purge tainted state and, if they had already finished, reopen so the
// recomputation phase can flow through them (§V-D).
type recoverable interface {
	recover(failed Prov)
}

// --- select ---

// selectOp filters rows. The predicate is compiled once per query: the
// row form for per-tuple pushes, the batch form evaluating over column
// vectors into a selection bitset for columnar pushes.
type selectOp struct {
	pred  predFn
	batch batchPredFn
	out   sink
	outB  batchSink
}

func newSelectOp(pred Expr, out sink) *selectOp {
	return &selectOp{
		pred:  compilePred(pred),
		batch: compileBatchPred(pred),
		out:   out,
		outB:  asBatchSink(out),
	}
}

func (s *selectOp) push(ts []Tup) {
	kept := ts[:0:len(ts)]
	for _, t := range ts {
		if s.pred(t.Row) {
			kept = append(kept, t)
		}
	}
	if len(kept) > 0 {
		s.out.push(kept)
	}
}

func (s *selectOp) pushCols(cb *colBatch) {
	sel := NewBitset(cb.cols.N)
	s.batch(&cb.cols, sel)
	if n := sel.Count(); n == 0 {
		return
	} else if n < cb.cols.N {
		cb.cols.CompactWords(sel)
	}
	forwardBatch(s.out, s.outB, cb)
}

func (s *selectOp) eos(phase uint32) { s.out.eos(phase) }

// --- project ---

type projectOp struct {
	cols []int
	out  sink
	outB batchSink
}

func (p *projectOp) push(ts []Tup) {
	for i := range ts {
		ts[i].Row = ts[i].Row.Project(p.cols)
	}
	p.out.push(ts)
}

// pushCols projects by rearranging column headers: O(arity), not O(rows).
func (p *projectOp) pushCols(cb *colBatch) {
	cb.cols.Project(p.cols)
	forwardBatch(p.out, p.outB, cb)
}

func (p *projectOp) eos(phase uint32) { p.out.eos(phase) }

// --- compute-function ---

// computeOp evaluates compiled scalar expressions per row. It is not
// batch-aware (expression results may change type row to row, which would
// fracture column vectors); upstream batches materialize at its input
// edge and the compiled closures keep the per-row cost low.
type computeOp struct {
	fns []evalFn
	out sink
}

func (c *computeOp) push(ts []Tup) {
	for i := range ts {
		row := make(tuple.Row, len(c.fns))
		for j, f := range c.fns {
			row[j] = f(ts[i].Row)
		}
		ts[i].Row = row
	}
	c.out.push(ts)
}

func (c *computeOp) eos(phase uint32) { c.out.eos(phase) }

// --- pipelined (symmetric) hash join ---
//
// Both inputs stream in concurrently; each side inserts into its own hash
// table and probes the other's, so results are produced as soon as both
// matching tuples have arrived — the pipelined hash join of Table I [17].
// All inserted tuples are retained until query completion for recovery.

type joinOp struct {
	// curPhase reports the executor's current phase; stateful operators
	// must ignore end-of-stream signals from superseded waves (a stale
	// completion decided just before a recovery landed), or they would
	// close before the recovery wave's recomputed data arrives.
	curPhase func() uint32

	mu        sync.Mutex
	leftKeys  []int
	rightKeys []int
	left      map[string][]Tup
	right     map[string][]Tup
	leftEOS   bool
	rightEOS  bool
	eosPhase  uint32
	finished  bool
	out       sink
}

func newJoinOp(leftKeys, rightKeys []int, curPhase func() uint32, out sink) *joinOp {
	return &joinOp{
		curPhase:  curPhase,
		leftKeys:  leftKeys,
		rightKeys: rightKeys,
		left:      make(map[string][]Tup),
		right:     make(map[string][]Tup),
		out:       out,
	}
}

// joinKey encodes the join-key column values of a row.
func joinKey(row tuple.Row, cols []int) string {
	return string(tuple.EncodeKey(row, cols))
}

// joinSide adapts one input of the join to the sink interface.
type joinSide struct {
	j    *joinOp
	left bool
}

func (s joinSide) push(ts []Tup)    { s.j.pushSide(ts, s.left) }
func (s joinSide) eos(phase uint32) { s.j.eosSide(s.left, phase) }

func (j *joinOp) pushSide(ts []Tup, left bool) {
	var outBatch []Tup
	j.mu.Lock()
	for _, t := range ts {
		var mine, theirs map[string][]Tup
		var myKeys, theirKeys []int
		if left {
			mine, theirs = j.left, j.right
			myKeys = j.leftKeys
		} else {
			mine, theirs = j.right, j.left
			myKeys = j.rightKeys
		}
		_ = theirKeys
		k := joinKey(t.Row, myKeys)
		mine[k] = append(mine[k], t)
		for _, o := range theirs[k] {
			var lt, rt Tup
			if left {
				lt, rt = t, o
			} else {
				lt, rt = o, t
			}
			phase := lt.Phase
			if rt.Phase > phase {
				phase = rt.Phase
			}
			outBatch = append(outBatch, Tup{
				Row:   lt.Row.Concat(rt.Row),
				Prov:  lt.Prov.Union(rt.Prov),
				Phase: phase,
			})
		}
	}
	j.mu.Unlock()
	if len(outBatch) > 0 {
		j.out.push(outBatch)
	}
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
	purge := func(table map[string][]Tup) {
		for k, ts := range table {
			kept := ts[:0]
			for _, t := range ts {
				if !t.Prov.Intersects(failed) {
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

	mu        sync.Mutex
	groupCols []int
	specs     []AggSpec
	mode      AggMode
	trackProv bool
	groups    map[string]*aggGroup
	dirty     map[string]bool // groups changed since the last emission
	emitted   bool            // at least one end-of-stream emission happened
	finished  bool
	// newest is the newest wave among the absorbed tuples. Senders that
	// applied a recovery directive route by the recovery table at once, so
	// a node still in the old phase can hold part of a group it is about
	// to inherit; an old wave's end-of-stream must not emit that part as
	// if it were the group (see eos).
	newest uint32
	out    sink
}

func newAggOp(groupCols []int, specs []AggSpec, mode AggMode, trackProv bool, curPhase func() uint32, out sink) *aggOp {
	return &aggOp{
		curPhase:  curPhase,
		groupCols: groupCols,
		specs:     specs,
		mode:      mode,
		trackProv: trackProv,
		groups:    make(map[string]*aggGroup),
		dirty:     make(map[string]bool),
		out:       out,
	}
}

func newAggState(n int) *aggState {
	return &aggState{
		counts: make([]int64, n),
		sums:   make([]float64, n),
		isums:  make([]int64, n),
		allInt: make([]bool, n),
		mins:   make([]tuple.Value, n),
		maxs:   make([]tuple.Value, n),
	}
}

func (a *aggOp) push(ts []Tup) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range ts {
		if t.Phase > a.newest {
			a.newest = t.Phase
		}
		gk := string(tuple.EncodeKey(t.Row, a.groupCols))
		g := a.groups[gk]
		if g == nil {
			g = &aggGroup{groupVals: t.Row.Project(a.groupCols), subs: map[string]*aggSubgroup{}}
			a.groups[gk] = g
		}
		if a.emitted {
			// The group's previous emission is being (or has been) purged
			// downstream; re-emit it at the next end-of-stream.
			a.dirty[gk] = true
		}
		var sk string
		if a.trackProv {
			var pb [4]byte
			binary.BigEndian.PutUint32(pb[:], t.Phase)
			sk = t.Prov.Key() + string(pb[:])
		}
		sub := g.subs[sk]
		if sub == nil {
			sub = &aggSubgroup{phase: t.Phase, st: newAggState(len(a.specs))}
			for i := range a.specs {
				sub.st.allInt[i] = true
			}
			if a.trackProv {
				sub.prov = t.Prov.Clone()
			}
			g.subs[sk] = sub
		} else if a.trackProv {
			sub.prov.UnionInto(t.Prov)
		}
		st := sub.st
		st.n++
		for i, spec := range a.specs {
			var v tuple.Value
			if spec.Col >= 0 {
				v = t.Row[spec.Col]
			}
			switch spec.Func {
			case AggCount:
				st.counts[i]++
			case AggSum, AggAvg:
				st.counts[i]++
				if v.T == tuple.Int64 {
					st.isums[i] += v.I64
				} else {
					st.allInt[i] = false
				}
				st.sums[i] += v.AsFloat()
			case AggMin:
				if st.counts[i] == 0 || v.Cmp(st.mins[i]) < 0 {
					st.mins[i] = v
				}
				st.counts[i]++
			case AggMax:
				if st.counts[i] == 0 || v.Cmp(st.maxs[i]) > 0 {
					st.maxs[i] = v
				}
				st.counts[i]++
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

// emitMerged renders one group as a single output row by merging all of its
// current sub-groups. Its provenance is the union of the sub-groups', so
// downstream purges drop the whole row when any contributor fails, and the
// next emission (of the repaired merge) replaces it without duplication.
func (a *aggOp) emitMerged(g *aggGroup) Tup {
	st := newAggState(len(a.specs))
	for i := range a.specs {
		st.allInt[i] = true
	}
	var prov Prov
	var phase uint32
	for _, sub := range g.subs {
		mergeState(st, sub.st, a.specs)
		if a.trackProv && sub.prov != nil {
			if prov == nil {
				prov = sub.prov.Clone()
			} else {
				prov.UnionInto(sub.prov)
			}
		}
		if sub.phase > phase {
			phase = sub.phase
		}
	}
	row := g.groupVals.Clone()
	for i, spec := range a.specs {
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
			if a.mode == AggComplete {
				if st.counts[i] == 0 {
					row = append(row, tuple.F(0))
				} else {
					row = append(row, tuple.F(st.sums[i]/float64(st.counts[i])))
				}
			} else {
				// Partial layout: sum then count.
				row = append(row, tuple.F(st.sums[i]), tuple.I(st.counts[i]))
			}
		}
	}
	return Tup{Row: row, Prov: prov, Phase: phase}
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
	var out []Tup
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
			out = append(out, a.emitDeltas(g)...)
		}
	} else if !a.emitted {
		// Complete mode, first completion: emit every group.
		for _, g := range a.groups {
			out = append(out, a.emitMerged(g))
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
				out = append(out, a.emitMerged(g))
			}
		}
	}
	a.emitted = true
	a.dirty = make(map[string]bool)
	a.mu.Unlock()
	if len(out) > 0 {
		a.out.push(out)
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
func (a *aggOp) emitDeltas(g *aggGroup) []Tup {
	type acc struct {
		st    *aggState
		prov  Prov
		phase uint32
	}
	byProv := make(map[string]*acc)
	var order []string
	for _, sub := range g.subs {
		if sub.emitted {
			continue
		}
		sub.emitted = true
		pk := sub.prov.Key()
		a2 := byProv[pk]
		if a2 == nil {
			a2 = &acc{st: newAggState(len(a.specs))}
			for i := range a.specs {
				a2.st.allInt[i] = true
			}
			if a.trackProv && sub.prov != nil {
				a2.prov = sub.prov.Clone()
			}
			byProv[pk] = a2
			order = append(order, pk)
		}
		mergeState(a2.st, sub.st, a.specs)
		if sub.phase > a2.phase {
			a2.phase = sub.phase
		}
	}
	out := make([]Tup, 0, len(byProv))
	for _, pk := range order {
		a2 := byProv[pk]
		st := a2.st
		row := g.groupVals.Clone()
		for i, spec := range a.specs {
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
				// Partial layout: sum then count.
				row = append(row, tuple.F(st.sums[i]), tuple.I(st.counts[i]))
			}
		}
		out = append(out, Tup{Row: row, Prov: a2.prov, Phase: a2.phase})
	}
	return out
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
