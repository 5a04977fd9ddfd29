package engine

import (
	"math/rand"
	"testing"
	"time"
)

// TestSoakIncrementalRecovery is a randomized soak of the incremental
// recovery protocol: many independent runs with a node killed at varying
// offsets relative to query start. Every run must return exactly the
// reference answer — complete and duplicate-free (the paper's core §V-D
// claim). The loop historically surfaced several wave-ordering races
// (stale-phase completion markers, replay double-delivery, dead-sender
// clobbering of re-shipped scan IDs), so it earns its runtime.
func TestSoakIncrementalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	iters := 25
	for i := 0; i < iters; i++ {
		h := newHarness(t, 6)
		h.create(schemaR())
		h.create(schemaS())
		rng := rand.New(rand.NewSource(int64(100 + i)))
		h.publish("R", genR(500, rng))
		h.publish("S", genS(120, rng))
		p := failurePlan()
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		victim := h.local.Node(1 + i%5).ID()
		go func(d int) {
			time.Sleep(time.Duration(d%6) * time.Millisecond)
			h.local.Kill(victim)
		}(i)
		res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverIncremental})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		want, err := refEval(p, h.data, h.schemas)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(res.Batch.Rows(), want) {
			t.Fatalf("iter %d (victim %s, phases %d): %s",
				i, victim, res.Phases, diffSummary(res.Batch.Rows(), want))
		}
	}
}
