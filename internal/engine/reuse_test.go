package engine

import (
	"math/rand"
	"sync"
	"testing"

	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// aliasingExprs reads R(x, y) as (y, y, 'lit', 7, x): the first y passes the
// scan's vector through, the second y and both literals are the compute
// operator's own vectors.
func aliasingExprs() []Expr { return []Expr{C(1), C(1), CS("lit"), CI(7), C(0)} }

// TestComputeAliasesUnderInPlaceCompaction: a compute that passes a borrowed
// column through and repeats it beside literals feeds each operator that
// rewrites or keeps what it is pushed — a select that compacts the batch in
// place, the top-K fragment, and a join's build side — and every answer is
// the reference answer. Had the repeat aliased the first reference, the
// select would compact one vector twice.
func TestComputeAliasesUnderInPlaceCompaction(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(41))
	h.publish("R", genR(3000, rng))
	h.publish("S", genS(200, rng))
	compute := func(child Node) Node { return &ComputeNode{Exprs: aliasingExprs(), Child: child} }
	plans := []struct {
		name string
		p    *Plan
	}{
		{"select", &Plan{Root: &SelectNode{
			Pred:  B(OpLt, C(1), CI(300)),
			Child: compute(&ScanNode{Relation: "R"}),
		}}},
		{"top-k", &Plan{
			Root:  compute(&ScanNode{Relation: "R"}),
			Final: []FinalOp{&FinalSort{Keys: []SortKey{{Col: 4, Desc: true}}}, &FinalLimit{N: 40}},
		}},
		{"join build", &Plan{Root: &JoinNode{
			LeftKeys:  []int{1},
			RightKeys: []int{0},
			Left:      compute(&RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R"}}),
			Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
		}}},
	}
	for _, tc := range plans {
		name, p := tc.name, tc.p
		t.Run(name, func(t *testing.T) {
			if err := p.Finalize(); err != nil {
				t.Fatal(err)
			}
			if name == "top-k" && PushdownClass(p) != shipTopK.String() {
				t.Fatalf("plan ships as %s, want %s", PushdownClass(p), shipTopK)
			}
			h.t = t
			h.run(p, Options{})
		})
	}
}

// compactingSink compacts every batch it is pushed to its even rows in
// place and checks them against the (y, y, 'lit', 7, x) layout of a batch
// whose rows all have one y - x.
type compactingSink struct{ t *testing.T }

func (s compactingSink) push(cb *colBatch) {
	sel := NewBitset(cb.cols.N)
	for i := 0; i < cb.cols.N; i += 2 {
		sel.Set(i)
	}
	compactRows(cb, sel)
	c := cb.cols.Cols
	for i := 0; i < cb.cols.N; i++ {
		if c[0].I64[i] != c[1].I64[i] || c[2].Str[i] != "lit" || c[3].I64[i] != 7 || c[0].I64[i]-c[4].I64[i] != c[0].I64[0]-c[4].I64[0] {
			s.t.Errorf("row %d after compaction: (%d, %d, %q, %d, %d)", i, c[0].I64[i], c[1].I64[i], c[2].Str[i], c[3].I64[i], c[4].I64[i])
			return
		}
	}
}

func (compactingSink) eos(uint32) {}

// TestComputeOpConcurrentPushes: pushes to one compute operator from
// several goroutines at once (a join's output arrives from each of its
// inputs) never share the operator's own vectors; run it under -race.
func TestComputeOpConcurrentPushes(t *testing.T) {
	const pushers, pushes, rows = 4, 200, 300
	c := newComputeOp(aliasingExprs(), func(err error) { t.Error(err) }, compactingSink{t})
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		offset := int64(1000 * (g + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < pushes; n++ {
				cb := newColBatch(0)
				for i := 0; i < rows; i++ {
					if err := cb.cols.AppendRow(tuple.Row{tuple.I(int64(i)), tuple.I(int64(i) + offset)}); err != nil {
						t.Error(err)
						return
					}
				}
				c.push(cb)
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentScansOwnTheirPassBuffers: scans running at once on one
// engine each take their own pass buffer from the pool — queries with
// different predicates from several goroutines all answer the reference
// answer, and -race sees no buffer shared.
func TestConcurrentScansOwnTheirPassBuffers(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaR())
	h.publish("R", genR(4000, rand.New(rand.NewSource(42))))
	const clients, queries = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				p := &Plan{Root: &SelectNode{
					Pred:  B(OpLt, C(1), CI(int64(100*(g+1)+10*q))),
					Child: &ScanNode{Relation: "R"},
				}}
				res, err := h.engines[g%len(h.engines)].Run(h.ctx(), p, Options{})
				if err != nil {
					t.Errorf("client %d, query %d: %v", g, q, err)
					return
				}
				want, err := refEval(p, h.data, h.schemas)
				if err != nil {
					t.Errorf("refEval: %v", err)
					return
				}
				if got := res.Batch.Rows(); !rowsEqual(got, want) {
					t.Errorf("client %d, query %d: %s", g, q, diffSummary(got, want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// dirtyPassBuf is a pass buffer as a large earlier pass might leave it:
// a slab of junk and entries already done, duplicated and out of order.
func dirtyPassBuf() *passBuf {
	b := &passBuf{slab: make([]byte, 64<<10), runs: []int{7, 3, 99}}
	for i := range b.slab {
		b.slab[i] = 0xff
	}
	for i := 0; i < 2000; i++ {
		pe := passEntry{off: uint32(i), end: uint32(i + 40), ship: int32(i % 3), pos: int32(-i), done: true, dup: i%2 == 0}
		b.pes, b.dst = append(b.pes, pe), append(b.dst, pe)
	}
	return b
}

// TestRecoveryPassOnReusedBuffer: a recovery wave's data pass (phase ≥ 1)
// runs on a pass buffer an earlier pass left behind. Every engine's pool is
// seeded with dirty buffers, a non-initiator dies before its last index
// marker arrives — so its ranges must be recomputed in phase 1 — and the
// answer is still the reference answer.
func TestRecoveryPassOnReusedBuffer(t *testing.T) {
	const nodes, victimIdx = 5, 3
	h := newHarness(t, nodes)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(43))
	h.publish("R", genR(3000, rng))
	h.publish("S", genS(300, rng))
	for _, e := range h.engines {
		for i := 0; i < 4; i++ {
			e.passBufs.Put(dirtyPassBuf())
		}
	}
	victim := h.local.Node(victimIdx).ID()
	var once sync.Once
	marks := 0
	h.local.Node(victimIdx).Endpoint().Handle(msgMark, func(ring.NodeID, []byte) ([]byte, error) {
		if marks++; marks == nodes-1 {
			once.Do(func() { h.local.Kill(victim) })
		}
		return nil, nil
	})
	p := failurePlan()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := h.run(p, Options{Recovery: RecoverIncremental})
	if res.Phases < 2 {
		t.Fatalf("the query ran %d phase(s): no recovery wave ran", res.Phases)
	}
	t.Logf("answered after %d phases", res.Phases)
}
