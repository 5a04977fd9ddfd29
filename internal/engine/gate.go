package engine

import (
	"sync"

	"orchestra/internal/ring"
)

// phaseGate is the completion rule of §V-D, written once: a wave is complete
// when every live member has marked the executor's current phase, and it
// completes exactly once. Marks are kept per (phase, member) because they
// arrive in any order relative to this node's own phase changes — a peer
// that has applied a recovery directive marks the new phase before this
// node has heard of it, and a mark of a superseded phase can still be in
// flight after it — and only marks of the current phase ever count.
//
// Three things wait on one: an exchange consumer (every producer reached
// end-of-stream), a scan's data side (every index side has shipped its tuple
// IDs) and the initiator's ship consumer (every fragment reported done).
// mark and fire report whether the call completed the current phase; the
// caller then does what completion means for it.
type phaseGate struct {
	// wave reads the executor's current phase and the members live in it.
	wave func() (uint32, []ring.NodeID)
	// seq, when set, has a ticket claimed for each firing under the lock
	// that decides to fire, so work ordered by those tickets runs in firing
	// order — which is phase order — however its goroutines are scheduled.
	seq *sequencer

	mu    sync.Mutex
	marks map[phaseMark]bool
	fired map[uint32]bool
}

// phaseMark says that member from has finished phase.
type phaseMark struct {
	phase uint32
	from  ring.NodeID
}

func newPhaseGate(wave func() (uint32, []ring.NodeID), seq *sequencer) *phaseGate {
	return &phaseGate{wave: wave, seq: seq, marks: make(map[phaseMark]bool), fired: make(map[uint32]bool)}
}

// mark records that member from has finished phase, then applies the rule.
func (g *phaseGate) mark(from ring.NodeID, phase uint32) (uint32, uint64, bool) {
	g.mu.Lock()
	g.marks[phaseMark{phase, from}] = true
	g.mu.Unlock()
	return g.fire(false)
}

// fire completes the current phase if it has not completed yet and every
// live member has marked it. Holders call it when no new mark has arrived
// but the phase or the live set changed (a recovery can leave the gate
// already holding every mark it now needs), and with early set when they
// have all they need without the marks (a pushed-down limit is satisfied):
// the wave of marks still to arrive for that phase is then a no-op. It
// returns the phase, the ticket claimed from seq (0 without one) and
// whether this call fired.
func (g *phaseGate) fire(early bool) (phase uint32, tick uint64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	phase, live := g.wave()
	if g.fired[phase] {
		return phase, 0, false
	}
	for _, id := range live {
		if !early && !g.marks[phaseMark{phase, id}] {
			return phase, 0, false
		}
	}
	g.fired[phase] = true
	if g.seq != nil {
		tick = g.seq.ticket()
	}
	return phase, tick, true
}
