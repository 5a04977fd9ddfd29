package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// initiatorExec builds node 0's executor for p the way runOnce does, without
// starting it: the ship path can then be driven by hand.
func initiatorExec(t *testing.T, h *harness, p *Plan, opts Options) *executor {
	t.Helper()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	eng := h.engines[0]
	epoch := eng.node.Gossip().Current()
	metas, err := eng.resolveMetas(h.ctx(), p, epoch)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := newExecutor(eng, eng.newQueryID(), p, opts.withDefaults(), epoch, eng.node.ID(), eng.node.Table(), metas)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestShipConsumerPurge drives the initiator's accumulator — a batch plus
// the parallel provenance vector — through a failure: shipments before it,
// the purge of the failed set, then the recovery wave's re-shipment beside
// a tainted straggler. Survivors must be exactly the clean rows, once, with
// the provenance vector still in step.
func TestShipConsumerPurge(t *testing.T) {
	const members, dead = 4, 2
	type shipment struct {
		keys []int64 // one row per key
		prov []int   // per row: the other member (besides 0) that touched it
	}
	cases := []struct {
		name          string
		before, after []shipment
		want          []int64
	}{
		{"nothing tainted",
			[]shipment{{[]int64{1, 2}, []int{1, 3}}, {[]int64{3}, []int{1}}}, nil,
			[]int64{1, 2, 3}},
		{"tainted rows interleaved across shipments",
			[]shipment{{[]int64{1, 2, 3}, []int{dead, 1, dead}}, {[]int64{4, 5}, []int{3, dead}}}, nil,
			[]int64{2, 4}},
		{"everything tainted, re-shipped once by the heir",
			[]shipment{{[]int64{1, 2}, []int{dead, dead}}},
			[]shipment{{[]int64{1, 2}, []int{3, 3}}},
			[]int64{1, 2}},
		{"straggler from the old wave after the purge",
			[]shipment{{[]int64{1, 2}, []int{1, dead}}},
			[]shipment{{[]int64{2, 9}, []int{3, dead}}, {[]int64{8}, []int{dead}}},
			[]int64{1, 2}},
	}
	h := newHarness(t, members)
	h.create(schemaR())
	snap := h.local.Node(0).Table()
	table1, err := snap.WithoutNodes([]ring.NodeID{snap.Members()[dead]})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := initiatorExec(t, h, &Plan{Root: &ScanNode{Relation: "R"}}, Options{Recovery: RecoverIncremental})
			ship := func(ss []shipment) {
				for _, s := range ss {
					b, prov := &tuple.Batch{}, make([]Prov, len(s.keys))
					for i, k := range s.keys {
						if err := b.AppendRow(tuple.Row{tuple.I(k), tuple.I(-k)}); err != nil {
							t.Fatal(err)
						}
						prov[i] = ProvOf(members, 0, s.prov[i])
					}
					if err := ex.shipCons.receive(snap.Members()[1], b, prov); err != nil {
						t.Fatal(err)
					}
				}
			}
			ship(tc.before)
			ex.advance(recoverDirective{newPhase: 1, failedIdxs: []int{dead}, newTable: table1})
			ex.shipCons.purge(ex.failedProv())
			ship(tc.after)

			got, err := ex.shipCons.seal()
			if err != nil {
				t.Fatal(err)
			}
			var want []tuple.Row
			for _, k := range tc.want {
				want = append(want, tuple.Row{tuple.I(k), tuple.I(-k)})
			}
			if !rowsEqual(got.Rows(), want) {
				t.Fatalf("survivors: %s", diffSummary(got.Rows(), want))
			}
			if len(ex.shipCons.prov) != got.N {
				t.Fatalf("%d provenance sets beside %d rows", len(ex.shipCons.prov), got.N)
			}
			for i, p := range ex.shipCons.prov {
				if p.Has(dead) {
					t.Fatalf("row %d survived with the failed node in its provenance", i)
				}
			}
		})
	}
}

// TestShipMismatchFailsQuery: a shipment that cannot join the collection —
// here, column types that disagree with what was shipped before — fails
// the query with a *ShipError; it never completes with a short answer.
// Once at the fragment (a compute whose result type flips by row, pushed
// into the ship producer), once at the consumer.
func TestShipMismatchFailsQuery(t *testing.T) {
	h := newHarness(t, 1) // funcExpr does not serialize: no remote fragments
	h.create(schemaR())
	h.publish("R", genR(50, rand.New(rand.NewSource(3))))
	flip := funcExpr(func(row tuple.Row) tuple.Value {
		if row[0].I64%2 == 0 {
			return tuple.I(row[0].I64)
		}
		return tuple.S("odd")
	})
	var se *ShipError
	p := &Plan{Root: &ComputeNode{Exprs: []Expr{flip}, Child: &ScanNode{Relation: "R"}}}
	res, err := h.engines[0].Run(h.ctx(), p, Options{})
	if !errors.As(err, &se) {
		t.Fatalf("fragment-side mismatch: res=%v err=%v, want a *ShipError", res, err)
	}

	ex := initiatorExec(t, h, &Plan{Root: &ScanNode{Relation: "R"}}, Options{})
	ints, strs := &tuple.Batch{}, &tuple.Batch{}
	if err := errors.Join(ints.AppendRow(tuple.Row{tuple.I(1)}), strs.AppendRow(tuple.Row{tuple.S("x")})); err != nil {
		t.Fatal(err)
	}
	ex.sendShip(ints, nil)
	ex.sendShip(strs, nil)
	select {
	case err := <-ex.shipCons.failCh:
		if !errors.As(err, &se) || se.Node != ex.self() {
			t.Fatalf("consumer-side mismatch reported %v", err)
		}
	default:
		t.Fatal("consumer accepted a shipment of a different shape without failing the query")
	}
}

// TestTopKOverJoin: a join's output reaches the ship producer as rows, so
// the top-K pushdown sorts and truncates a batch that push built. Sort
// keys are unique (each R row joins at most one S row), so the answer is
// pinned exactly.
func TestTopKOverJoin(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(31))
	h.publish("R", genR(400, rng))
	h.publish("S", genS(60, rng))
	const k = 17
	p := failurePlan()
	p.Final = []FinalOp{&FinalSort{Keys: []SortKey{{Col: 0, Desc: true}}}, &FinalLimit{N: k}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := planShipMode(p, Options{}); got != shipTopK {
		t.Fatalf("planShipMode = %s, want top-k", got)
	}
	res := h.run(p, Options{}) // checked against the reference
	if res.Batch.N != k {
		t.Fatalf("got %d rows, want %d", res.Batch.N, k)
	}
	if shipped := res.TotalStats().Shipped; shipped > 4*k {
		t.Fatalf("shipped %d rows, want at most members × K = %d", shipped, 4*k)
	}
}

// FuzzShipBatchDecode hammers the ship decoder — same layout as the rehash
// codec, decoded onto column vectors with the provenance beside them. It
// must reject garbage with an error, never panic, and hand back a
// provenance vector that is absent or in step with the rows.
func FuzzShipBatchDecode(f *testing.F) {
	seeds := [][]tuple.Row{
		nil,
		{{tuple.I(3), tuple.I(7), tuple.F(2.5)}},
		{{tuple.I(1), tuple.F(math.NaN()), tuple.S("x")}, {tuple.I(2), tuple.F(0.25), tuple.S("")}},
	}
	for i, rows := range seeds {
		b, prov := &tuple.Batch{}, []Prov{}
		for j, r := range rows {
			if err := b.AppendRow(r); err != nil {
				f.Fatal(err)
			}
			prov = append(prov, ProvOf(8, j, 3))
		}
		for _, pv := range [][]Prov{nil, prov} {
			data, err := encodeShipBatch(nil, b, pv, uint32(i))
			if err != nil {
				f.Fatalf("encodeShipBatch seed %d: %v", i, err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		into := &tuple.Batch{}
		prov, err := decodeShipBatch(data, into)
		if err != nil {
			if into.N != 0 {
				t.Fatalf("failed decode left %d rows behind", into.N)
			}
			return
		}
		if prov != nil && len(prov) != into.N {
			t.Fatalf("%d provenance sets beside %d rows", len(prov), into.N)
		}
		if _, err := encodeShipBatch(nil, into, prov, 0); err != nil {
			t.Fatalf("re-encode of valid decode failed: %v", err)
		}
	})
}
