package engine

import (
	"sync"
	"testing"

	"orchestra/internal/ring"
)

// gateWorld is the executor state a phaseGate reads: the current phase and
// the members live in it, moved together as executor.advance moves them.
type gateWorld struct {
	mu    sync.Mutex
	phase uint32
	live  []ring.NodeID
}

func (w *gateWorld) wave() (uint32, []ring.NodeID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.phase, w.live
}

func (w *gateWorld) advance(phase uint32, live ...ring.NodeID) {
	w.mu.Lock()
	w.phase, w.live = phase, live
	w.mu.Unlock()
}

// TestPhaseGate drives the one completion rule through the orders in which
// marks, phase changes and membership changes can reach a node. Each step is
// a mark, a recovery (advance to a phase over a live set, then recheck, as
// applyRecover does) or an early fire; want is the phase the step must
// complete, or -1 for "nothing fires".
func TestPhaseGate(t *testing.T) {
	type step struct {
		mark    ring.NodeID // a mark from this member ...
		phase   uint32      // ... for this phase; or, with advance, the new phase
		advance []ring.NodeID
		early   bool
		want    int
	}
	abc := []ring.NodeID{"a", "b", "c"}
	cases := []struct {
		name  string
		steps []step
	}{
		{"fires on the last live member's mark, once", []step{
			{mark: "a", want: -1}, {mark: "b", want: -1}, {mark: "c", want: 0},
			{mark: "c", want: -1}, {mark: "a", want: -1},
		}},
		{"marks that arrive before the phase advance count after it", []step{
			{mark: "a", phase: 1, want: -1}, {mark: "b", phase: 1, want: -1}, {mark: "c", phase: 1, want: -1},
			{advance: abc, phase: 1, want: 1},
		}},
		{"a stale-phase mark never satisfies a newer phase", []step{
			{mark: "a", want: -1}, {mark: "b", want: -1},
			{advance: abc, phase: 1, want: -1},
			{mark: "c", phase: 0, want: -1}, // the old wave's last marker, late
			{mark: "a", phase: 1, want: -1}, {mark: "b", phase: 1, want: -1},
			{mark: "c", phase: 1, want: 1},
		}},
		{"the live set shrinking fires on recheck, without a new mark", []step{
			{mark: "a", phase: 1, want: -1}, {mark: "b", phase: 1, want: -1},
			{mark: "a", want: -1}, {mark: "b", want: -1}, // c never marks: it died
			{advance: []ring.NodeID{"a", "b"}, phase: 1, want: 1},
			{advance: []ring.NodeID{"a", "b"}, phase: 1, want: -1}, // a second recheck
		}},
		{"a mark from a member that is no longer live is not needed, nor harmful", []step{
			{advance: []ring.NodeID{"a", "b"}, phase: 1, want: -1},
			{mark: "c", phase: 1, want: -1},
			{mark: "a", phase: 1, want: -1}, {mark: "b", phase: 1, want: 1},
		}},
		{"an early fire swallows the wave that follows", []step{
			{mark: "a", want: -1},
			{early: true, want: 0},
			{mark: "b", want: -1}, {mark: "c", want: -1},
			{early: true, want: -1},
			{advance: abc, phase: 1, want: -1}, // the next phase is a fresh gate
			{mark: "a", phase: 1, want: -1}, {mark: "b", phase: 1, want: -1}, {mark: "c", phase: 1, want: 1},
		}},
		{"a phase skipped by a cumulative directive never fires", []step{
			{mark: "a", phase: 1, want: -1}, {mark: "b", phase: 1, want: -1}, {mark: "c", phase: 1, want: -1},
			{advance: []ring.NodeID{"a"}, phase: 2, want: -1},
			{mark: "a", phase: 2, want: 2},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &gateWorld{live: abc}
			var seq sequencer
			g := newPhaseGate(w.wave, &seq)
			fired := 0
			for i, s := range tc.steps {
				var phase uint32
				var tick uint64
				var ok bool
				switch {
				case s.advance != nil:
					w.advance(s.phase, s.advance...)
					phase, tick, ok = g.fire(false)
				case s.early:
					phase, tick, ok = g.fire(true)
				default:
					phase, tick, ok = g.mark(s.mark, s.phase)
				}
				got := -1
				if ok {
					got = int(phase)
				}
				if got != s.want {
					t.Fatalf("step %d (%+v): fired %d, want %d", i, s, got, s.want)
				}
				if ok {
					if tick != uint64(fired) {
						t.Fatalf("step %d: firing %d claimed ticket %d — tickets must follow firing order", i, fired, tick)
					}
					fired++
				}
			}
		})
	}
}

// TestPhaseGateFiresOncePerPhase hammers one gate from many goroutines: per
// phase, every member's mark several times over, the next wave's marks
// arriving early, and rechecks, all racing. Each phase must fire exactly
// once, with tickets claimed in phase order. Run it under -race.
func TestPhaseGateFiresOncePerPhase(t *testing.T) {
	const phases, markers = 6, 4
	members := []ring.NodeID{"a", "b", "c", "d", "e"}
	w := &gateWorld{live: members}
	var seq sequencer
	g := newPhaseGate(w.wave, &seq)
	var mu sync.Mutex
	fires := make(map[uint32][]uint64)
	note := func(phase uint32, tick uint64, ok bool) {
		if ok {
			mu.Lock()
			fires[phase] = append(fires[phase], tick)
			mu.Unlock()
		}
	}
	for p := uint32(0); p < phases; p++ {
		w.advance(p, members...)
		var wg sync.WaitGroup
		for _, id := range members {
			for k := 0; k < markers; k++ { // duplicates of one mark race each other too
				wg.Add(1)
				go func(id ring.NodeID) {
					defer wg.Done()
					note(g.mark(id, p))
					note(g.mark(id, p+1)) // the next wave's marks, early
					note(g.fire(false))
				}(id)
			}
		}
		wg.Wait()
	}
	var last uint64
	for p := uint32(0); p < phases; p++ {
		if len(fires[p]) != 1 {
			t.Fatalf("phase %d fired %d times (tickets %v), want exactly once", p, len(fires[p]), fires[p])
		}
		if p > 0 && fires[p][0] <= last {
			t.Fatalf("phase %d claimed ticket %d after phase %d claimed %d", p, fires[p][0], p-1, last)
		}
		last = fires[p][0]
	}
	if len(fires) != phases {
		t.Fatalf("fired for phases %v, want exactly 0..%d", fires, phases-1)
	}
}
