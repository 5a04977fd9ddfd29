package engine

import (
	"testing"

	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// tupSink records what an operator pushes and which waves it ends.
type tupSink struct {
	rows []tuple.Row
	eosd []uint32
}

func (s *tupSink) push(ts []Tup) {
	for _, t := range ts {
		s.rows = append(s.rows, t.Row)
	}
}
func (s *tupSink) eos(phase uint32) { s.eosd = append(s.eosd, phase) }

// TestAggHoldsEmissionOnSupersededWave replays, in forced order, the
// interleaving behind the TestRecoveryWithAggregation flake: senders that
// already applied a recovery directive route part of a group they used to
// send to the dead node to its heir, the heir — still in phase 0 — sees
// the old wave complete, and only then learns of the recovery and receives
// the rest. The group must come out once, whole.
func TestAggHoldsEmissionOnSupersededWave(t *testing.T) {
	var cur uint32
	out := &tupSink{}
	specs := []AggSpec{{Func: AggCount, Col: -1}, {Func: AggSum, Col: 1}}
	a := newAggOp([]int{0}, specs, AggComplete, true, func() uint32 { return cur }, out)
	tup := func(v int64) Tup {
		return Tup{Row: tuple.Row{tuple.I(7), tuple.I(v)}, Prov: ProvOf(4, 1), Phase: 1}
	}
	a.push([]Tup{tup(1), tup(2)}) // re-routed early arrivals, tagged phase 1
	a.eos(0)                      // the heir has not advanced: curPhase is 0
	if len(out.rows) != 0 {
		t.Fatalf("phase-0 end-of-stream emitted a partial group: %v", out.rows)
	}
	a.recover(ProvOf(4, 3))
	cur = 1
	a.push([]Tup{tup(3), tup(4), tup(5)})
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
	if cons.eosFrom[0][self] {
		t.Fatal("superseded wave's end-of-stream was announced")
	}
	prod.eos(1)
	if !cons.eosFrom[1][self] {
		t.Fatal("current wave's end-of-stream was not announced")
	}
}
