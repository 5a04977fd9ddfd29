package engine

import (
	"testing"

	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// recSink records what an operator pushes — each row with its batch's phase
// and, in provenance mode, its set — and which waves it ends.
type recSink struct {
	rows   []tuple.Row
	phases []uint32
	prov   []Prov
	eosd   []uint32
}

func (s *recSink) push(cb *colBatch) {
	s.rows = append(s.rows, cb.cols.Rows()...)
	for i := 0; i < cb.cols.N; i++ {
		s.phases = append(s.phases, cb.phase)
	}
	s.prov = append(s.prov, cb.prov...)
}

// purge drops the recorded rows tainted by failed, as the operators
// downstream of a recovering one do.
func (s *recSink) purge(failed Prov) {
	n := 0
	for i, p := range s.prov {
		if !p.Intersects(failed) {
			s.rows[n], s.phases[n], s.prov[n] = s.rows[i], s.phases[i], p
			n++
		}
	}
	s.rows, s.phases, s.prov = s.rows[:n], s.phases[:n], s.prov[:n]
}
func (s *recSink) eos(phase uint32) { s.eosd = append(s.eosd, phase) }

// TestAggHoldsEmissionOnSupersededWave replays, in forced order, the
// interleaving behind the TestRecoveryWithAggregation flake: senders that
// already applied a recovery directive route part of a group they used to
// send to the dead node to its heir, the heir — still in phase 0 — sees
// the old wave complete, and only then learns of the recovery and receives
// the rest. The group must come out once, whole.
func TestAggHoldsEmissionOnSupersededWave(t *testing.T) {
	var cur uint32
	out := &recSink{}
	specs := []AggSpec{{Func: AggCount, Col: -1}, {Func: AggSum, Col: 1}}
	fail := func(err error) { t.Errorf("aggregate failed: %v", err) }
	a := newAggOp([]int{0}, specs, AggComplete, true, func() uint32 { return cur }, fail, out)
	batch := func(vs ...int64) *colBatch { // group 7, from member 1, tagged phase 1
		cb := newColBatch(1)
		for _, v := range vs {
			if err := cb.cols.AppendRow(tuple.Row{tuple.I(7), tuple.I(v)}); err != nil {
				t.Fatal(err)
			}
			cb.prov = append(cb.prov, ProvOf(4, 1))
		}
		return cb
	}
	a.push(batch(1, 2)) // re-routed early arrivals, tagged phase 1
	a.eos(0)            // the heir has not advanced: curPhase is 0
	if len(out.rows) != 0 {
		t.Fatalf("phase-0 end-of-stream emitted a partial group: %v", out.rows)
	}
	a.recover(ProvOf(4, 3))
	cur = 1
	a.push(batch(3, 4, 5))
	a.eos(1)
	want := []tuple.Row{{tuple.I(7), tuple.I(5), tuple.I(15)}}
	if !rowsEqual(out.rows, want) {
		t.Fatalf("after recovery: %s", diffSummary(out.rows, want))
	}
	if len(out.eosd) != 2 || out.eosd[0] != 0 || out.eosd[1] != 1 {
		t.Fatalf("forwarded end-of-stream markers %v, want [0 1]", out.eosd)
	}
}

// TestAdvanceSupersedesWave pins the other two halves of the fix: a
// directive's failed set, table and phase land in one synchronous step (no
// window in which a node filters by the failed set yet completes the old
// wave), and a node that advanced no longer announces the old wave's
// exchange end-of-stream.
func TestAdvanceSupersedesWave(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaS())
	p := &Plan{Root: &AggNode{
		GroupCols: []int{1}, Aggs: []AggSpec{{Func: AggCount, Col: -1}}, Mode: AggComplete,
		Child: &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "S"}},
	}}
	ex := initiatorExec(t, h, p, Options{Recovery: RecoverIncremental})
	self, snap := ex.self(), ex.snapshot
	victim := h.local.Node(2).ID()
	vidx, _ := snap.MemberIndex(victim)
	table1, err := snap.WithoutNodes([]ring.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	dir := recoverDirective{newPhase: 1, failedIdxs: []int{vidx}, newTable: table1}
	if !ex.advance(dir) || ex.advance(dir) {
		t.Fatal("advance must accept a directive exactly once")
	}
	if ex.phaseNow() != 1 || !ex.failedProv().Has(vidx) || ex.currentTable() != table1 {
		t.Fatal("advance did not move phase, failed set and table together")
	}
	var prod *exchProducer
	var cons *exchConsumer
	for id := range ex.producers {
		prod, cons = ex.producers[id], ex.consumers[id]
	}
	prod.eos(0)
	if cons.gate.marks[phaseMark{0, self}] {
		t.Fatal("superseded wave's end-of-stream was announced")
	}
	prod.eos(1)
	if !cons.gate.marks[phaseMark{1, self}] {
		t.Fatal("current wave's end-of-stream was not announced")
	}
}

// TestLoopbackStampLeavesSenderBatch: a rehash block delivered on loopback is
// filtered and stamped by the local consumer while its sender keeps it for
// replay, and its rows share provenance sets. The consumer must work on its
// own copy of the vectors and stamp fresh sets: the sender's block — rows,
// vector and the shared set itself — is as it was.
func TestLoopbackStampLeavesSenderBatch(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaS())
	p := &Plan{Root: &AggNode{
		GroupCols: []int{1}, Aggs: []AggSpec{{Func: AggCount, Col: -1}}, Mode: AggComplete,
		Child: &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "S"}},
	}}
	ex := initiatorExec(t, h, p, Options{Recovery: RecoverIncremental})
	got := &recSink{}
	var exchID int
	for id, cons := range ex.consumers {
		exchID, cons.out = id, got
	}
	other, dead := (ex.selfIdx+1)%3, (ex.selfIdx+2)%3 // the two members that are not this node
	table1, err := ex.snapshot.WithoutNodes([]ring.NodeID{ex.snapshot.Members()[dead]})
	if err != nil {
		t.Fatal(err)
	}
	ex.advance(recoverDirective{newPhase: 1, failedIdxs: []int{dead}, newTable: table1})

	shared, tainted := ProvOf(3, other), ProvOf(3, other, dead)
	sent := newColBatch(0)
	sent.prov = []Prov{shared, shared, tainted, shared}
	for i := range sent.prov {
		if err := sent.cols.AppendRow(tuple.Row{tuple.I(int64(i)), tuple.I(9)}); err != nil {
			t.Fatal(err)
		}
	}
	ex.sendExchBatch(exchID, ex.self(), sent)

	want := []tuple.Row{{tuple.I(0), tuple.I(9)}, {tuple.I(1), tuple.I(9)}, {tuple.I(3), tuple.I(9)}}
	if !rowsEqual(got.rows, want) {
		t.Fatalf("consumer passed on: %s", diffSummary(got.rows, want))
	}
	for i, p := range got.prov {
		if p.Key() != ProvOf(3, ex.selfIdx, other).Key() || !sameProv(p, got.prov[0]) {
			t.Fatalf("row %d stamped %v; want one shared set of this node and the sender's", i, p)
		}
	}
	if sent.cols.N != 4 || len(sent.prov) != 4 || sent.cols.Cols[0].I64[2] != 2 {
		t.Fatalf("sender's block was compacted: %d rows, %d sets", sent.cols.N, len(sent.prov))
	}
	if shared.Key() != ProvOf(3, other).Key() || !sameProv(sent.prov[0], shared) || !sameProv(sent.prov[3], shared) {
		t.Fatalf("sender's shared set was stamped in place: %v", shared)
	}
}
