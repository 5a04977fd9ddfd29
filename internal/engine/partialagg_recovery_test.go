package engine

import (
	"testing"
	"time"

	"orchestra/internal/tuple"
)

// TestPartialAggRecoveryRegression pins the partial-aggregation recovery
// protocol: per-provenance delta emission and eager failed-bit marking.
// Earlier versions lost boundary tuples whose index page lived at the
// victim but whose data lived at a survivor.
func TestPartialAggRecoveryRegression(t *testing.T) {
	h := newHarness(t, 6)
	h.create(tuple.MustSchema("big",
		[]tuple.Column{{Name: "k", Type: tuple.Int64}, {Name: "g", Type: tuple.Int64}}, "k"))
	rows := make([]tuple.Row, 30000)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.I(int64(i % 37))}
	}
	h.publish("big", rows)

	specs := []AggSpec{{Func: AggCount, Col: -1}}
	p := &Plan{
		Root: &AggNode{
			GroupCols: []int{0},
			Aggs:      specs,
			Mode:      AggPartial,
			Child: &ComputeNode{
				Exprs: []Expr{C(1), CI(1)},
				Child: &ScanNode{Relation: "big"},
			},
		},
		Final: []FinalOp{&FinalAgg{GroupCols: []int{0}, Aggs: []AggSpec{{Func: AggCount, Col: 1}}}},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 1; trial++ {
		victim := h.local.Node(3).ID()
		go func(d int) {
			time.Sleep(time.Duration(2+d) * time.Millisecond)
			h.local.Kill(victim)
		}(trial % 4)
		res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverIncremental})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var total, scanned int64
		for _, r := range res.Batch.Rows() {
			total += r[1].AsInt()
		}
		scanned = int64(res.TotalStats().Scanned)
		t.Logf("trial %d: groups=%d total=%d scanned=%d phases=%d",
			trial, res.Batch.N, total, scanned, res.Phases)
		if total != 30000 {
			t.Fatalf("trial %d: total=%d scanned=%d phases=%d", trial, total, scanned, res.Phases)
		}
		// Only the first trial has a live victim; subsequent trials run on
		// the survivors.
		break
	}
}
