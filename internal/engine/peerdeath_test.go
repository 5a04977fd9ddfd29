package engine

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"orchestra/internal/cluster"
	"orchestra/internal/ring"
)

// TestFragmentDeathIsNotified is ROADMAP item 1(b) on the simulator: an
// initiator learns that a fragment's node died from the transport, never
// from RequestTimeout. RequestTimeout is 30 s; a non-initiator is lost at
// each point of the prepare / begin / scan-IDs / ship / mark handshake, by
// Kill and — for the detector's other entrance — by Hang under the pinger;
// every query must be over within 2 s, with the model answer (by restart) or
// the typed error (in fail mode).
func TestFragmentDeathIsNotified(t *testing.T) {
	const nodes, victimIdx = 5, 3
	points := []struct {
		name string
		// sure: a victim armed here cannot finish its part first, so a
		// restart-mode answer must have come from a restart.
		sure bool
		// arm makes the victim fail at this point of the next query.
		arm func(h *harness, victim ring.NodeID, die func())
	}{
		{"during prepare", true, func(h *harness, _ ring.NodeID, die func()) {
			// The victim takes the prepare request and never answers it.
			h.local.Node(victimIdx).Endpoint().Handle(msgPrepare, func(ring.NodeID, []byte) ([]byte, error) {
				die()
				return nil, nil
			})
		}},
		{"after begin, before its scan-IDs", true, func(h *harness, _ ring.NodeID, die func()) {
			// Prepared like everyone else, it dies instead of starting.
			h.local.Node(victimIdx).Endpoint().Handle(msgBegin, func(ring.NodeID, []byte) ([]byte, error) {
				die()
				return nil, nil
			})
		}},
		{"mid-ship", false, func(h *harness, victim ring.NodeID, die func()) {
			// The initiator holds the victim's first shipment when it
			// dies; the rest, and its msgShipEOS, are lost unless they
			// were queued behind it already — a victim that quick has
			// legitimately finished. (The body is the engine's own
			// msgShipBatch handler.)
			h.engines[0].handle(msgShipBatch, func(ex *executor, from ring.NodeID, rest []byte) error {
				if from == victim {
					die()
				}
				if err := ex.shipCons.receiveWire(from, rest); err != nil {
					ex.shipCons.fail(&ShipError{Node: from, Err: err})
				}
				return nil
			})
		}},
		{"before its final mark", true, func(h *harness, _ ring.NodeID, die func()) {
			// The victim has every peer's tuple IDs (per-link FIFO puts
			// them before that peer's mark) and ships, but its scan never
			// sees the last mark, so its msgShipEOS is never sent.
			marks := 0
			h.local.Node(victimIdx).Endpoint().Handle(msgMark, func(ring.NodeID, []byte) ([]byte, error) {
				if marks++; marks == nodes-1 {
					die()
				}
				return nil, nil
			})
		}},
		{"hung before prepare, found by the pinger", true, func(h *harness, victim ring.NodeID, _ func()) {
			h.local.StartPingers(10*time.Millisecond, 50*time.Millisecond)
			h.local.Hang(victim)
		}},
	}
	for _, pt := range points {
		for _, mode := range []RecoveryMode{RecoverRestart, RecoverFail} {
			t.Run(pt.name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				h := newHarnessCfg(t, nodes, cluster.Config{Replication: 3, RequestTimeout: 30 * time.Second})
				h.create(schemaR())
				h.publish("R", genR(12000, rand.New(rand.NewSource(31))))
				p := &Plan{Root: &ScanNode{Relation: "R"}}

				victim := h.local.Node(victimIdx).ID()
				var once sync.Once
				pt.arm(h, victim, func() { once.Do(func() { h.local.Kill(victim) }) })

				start := time.Now()
				res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: mode})
				if took := time.Since(start); took > 2*time.Second {
					t.Errorf("query took %v: it waited out something other than the failure detector", took)
				}
				if err == nil {
					// Only a restart answers a query whose victim died
					// inside it — unless the victim got its part done first.
					if pt.sure && (mode == RecoverFail || res.Restarts == 0) {
						t.Errorf("answered in %s mode after %d restarts: the victim did not fail inside the query", mode, res.Restarts)
					}
					h.check(p, res)
					return
				}
				var fe *FailureError
				if mode == RecoverRestart || !errors.As(err, &fe) {
					t.Fatalf("%s mode: %v, want an answer or a *FailureError", mode, err)
				}
				if len(fe.Failed) != 1 || fe.Failed[0] != victim {
					t.Fatalf("FailureError names %v, want %s", fe.Failed, victim)
				}
			})
		}
	}
}
