package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/keyspace"
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
					cb := newColBatch(0)
					for i, k := range s.keys {
						if err := cb.cols.AppendRow(tuple.Row{tuple.I(k), tuple.I(-k)}); err != nil {
							t.Fatal(err)
						}
						cb.prov = append(cb.prov, ProvOf(members, 0, s.prov[i]))
					}
					if err := ex.shipCons.receive(snap.Members()[1], cb); err != nil {
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
			if len(ex.shipCons.acc.prov) != got.N {
				t.Fatalf("%d provenance sets beside %d rows", len(ex.shipCons.acc.prov), got.N)
			}
			for i, p := range ex.shipCons.acc.prov {
				if p.Has(dead) {
					t.Fatalf("row %d survived with the failed node in its provenance", i)
				}
			}
		})
	}
}

// TestShipMismatchFailsQuery: fragment output that cannot form one batch —
// column types that disagree from row to row, or with what was shipped
// before — fails the query with a *ShipError; it never completes with a
// short answer. At the fragment the operator whose output edge cannot carry
// the rows reports it (a compute whose result type flips by row: straight
// into the ship producer, and below a rehash and a join, where nothing
// downstream ever looks at the types again); at the consumer, a shipment of
// another shape.
func TestShipMismatchFailsQuery(t *testing.T) {
	h := newHarness(t, 1) // funcExpr does not serialize: no remote fragments
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(3))
	h.publish("R", genR(50, rng))
	h.publish("S", genS(20, rng))
	flip := funcExpr(func(row tuple.Row) tuple.Value {
		if row[0].I64%2 == 0 {
			return tuple.I(row[0].I64)
		}
		return tuple.S("odd")
	})
	flipR := &ComputeNode{Exprs: []Expr{flip, C(1)}, Child: &ScanNode{Relation: "R"}}
	var se *ShipError
	for name, root := range map[string]Node{
		"compute under ship": flipR,
		"compute under rehash": &JoinNode{LeftKeys: []int{1}, RightKeys: []int{0},
			Left:  &RehashNode{Keys: []int{1}, Child: flipR},
			Right: &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}}},
	} {
		for _, prov := range []bool{false, true} {
			for i, eng := range h.engines {
				res, err := eng.Run(h.ctx(), &Plan{Root: root}, Options{Provenance: prov})
				if !errors.As(err, &se) || !strings.Contains(err.Error(), "compute") || !strings.Contains(err.Error(), "column 0") {
					t.Fatalf("%s, provenance=%v, initiator %d: res=%v err=%v, want a *ShipError naming the compute and column 0",
						name, prov, i, res, err)
				}
			}
		}
	}

	ex := initiatorExec(t, h, &Plan{Root: &ScanNode{Relation: "R"}}, Options{})
	ints, strs := newColBatch(0), newColBatch(0)
	if err := errors.Join(ints.cols.AppendRow(tuple.Row{tuple.I(1)}), strs.cols.AppendRow(tuple.Row{tuple.S("x")})); err != nil {
		t.Fatal(err)
	}
	ex.sendShip(ints)
	ex.sendShip(strs)
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

// shipLayoutSeeds are batches the inter-node layout must carry exactly. Both
// message types travel in it — rehash blocks (msgExchBatch) and shipments
// (msgShipBatch) — so one table and one fuzz target cover both.
var shipLayoutSeeds = []struct {
	name string
	rows []tuple.Row
	prov []Prov // one per row
}{
	{name: "empty batch"},
	{name: "one row",
		rows: []tuple.Row{{tuple.I(3), tuple.I(7), tuple.F(2.5)}},
		prov: []Prov{ProvOf(8, 0, 3)}},
	{name: "NaN, infinities, negative zero, empty string",
		rows: []tuple.Row{
			{tuple.I(1), tuple.F(math.Inf(-1)), tuple.S("a")},
			{tuple.I(2), tuple.F(math.NaN()), tuple.S("b")},
			{tuple.I(3), tuple.F(math.Copysign(0, -1)), tuple.S("")},
		},
		prov: []Prov{ProvOf(16, 0, 5), ProvOf(16, 5), ProvOf(16, 0, 5)}},
	// Partial-agg shaped: group col, count, sum, min, max, avg pair.
	{name: "partial aggregates",
		rows: []tuple.Row{
			{tuple.I(4), tuple.I(10), tuple.F(12.5), tuple.I(-3), tuple.I(9), tuple.F(12.5), tuple.I(10)},
			{tuple.I(5), tuple.I(2), tuple.F(-0.75), tuple.I(0), tuple.I(1), tuple.F(-0.75), tuple.I(2)},
		},
		prov: []Prov{ProvOf(8, 1, 3), ProvOf(8, 2)}},
	{name: "sets over 64 members and more",
		rows: []tuple.Row{{tuple.I(1)}, {tuple.I(2)}, {tuple.I(3)}},
		prov: []Prov{ProvOf(64, 63), ProvOf(200, 0, 64, 199), ProvOf(64, 63)}},
}

// seedBatch builds a seed's batch, with prov beside its rows.
func seedBatch(t testing.TB, rows []tuple.Row, prov []Prov) *colBatch {
	t.Helper()
	cb := newColBatch(0)
	for _, r := range rows {
		if err := cb.cols.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	cb.prov = prov
	return cb
}

// TestShipLayoutRoundTrip: the layout carries phase, rows and provenance
// exactly, with and without the provenance column, and rows whose sets are
// equal come back sharing one set.
func TestShipLayoutRoundTrip(t *testing.T) {
	check := func(t *testing.T, rows []tuple.Row, prov []Prov, phase uint32) {
		t.Helper()
		data, err := encodeShipBatch(nil, seedBatch(t, rows, prov), phase)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec := newColBatch(0)
		if err := decodeShipBatch(data, dec); err != nil {
			t.Fatalf("decode: %v", err)
		}
		got, gotProv := dec.cols, dec.prov
		if dec.phase != phase || got.N != len(rows) {
			t.Fatalf("phase=%d rows=%d, want %d/%d", dec.phase, got.N, phase, len(rows))
		}
		if (gotProv == nil) != (prov == nil) || len(gotProv) != len(prov) {
			t.Fatalf("%d provenance sets (nil=%v), want %d (nil=%v)", len(gotProv), gotProv == nil, len(prov), prov == nil)
		}
		for i, r := range got.Rows() {
			if rowKey(r) != rowKey(rows[i]) {
				t.Fatalf("row %d: got %s, want %s", i, rowKey(r), rowKey(rows[i]))
			}
		}
		for i := range gotProv {
			if gotProv[i].Key() != prov[i].Key() {
				t.Fatalf("row %d provenance mismatch", i)
			}
			for j := 0; j < i; j++ {
				if prov[i].Key() == prov[j].Key() && !sameProv(gotProv[i], gotProv[j]) {
					t.Fatalf("rows %d and %d decoded equal sets twice", j, i)
				}
			}
		}
	}
	for i, seed := range shipLayoutSeeds {
		t.Run(seed.name, func(t *testing.T) {
			check(t, seed.rows, nil, uint32(i))
			if len(seed.rows) > 0 { // an empty vector is "no provenance column"
				check(t, seed.rows, seed.prov, uint32(i)+9)
			}
		})
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows := genR(1+rng.Intn(40), rng)
		prov := make([]Prov, len(rows))
		for i := range prov {
			prov[i] = ProvOf(64, rng.Intn(64), rng.Intn(64))
		}
		check(t, rows, prov, uint32(trial))
	}
}

// FuzzShipBatchDecode hammers the inter-node decoder — the rehash and ship
// handlers both run it on bytes straight off the wire. It must reject
// garbage with an error, never panic, leave nothing behind on failure, and
// hand back a provenance vector that is absent or in step with the rows.
func FuzzShipBatchDecode(f *testing.F) {
	for i, seed := range shipLayoutSeeds {
		for _, pv := range [][]Prov{nil, seed.prov} {
			data, err := encodeShipBatch(nil, seedBatch(f, seed.rows, pv), uint32(i))
			if err != nil {
				f.Fatalf("encodeShipBatch seed %q: %v", seed.name, err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		into := newColBatch(0)
		if err := decodeShipBatch(data, into); err != nil {
			if into.cols.N != 0 || into.prov != nil {
				t.Fatalf("failed decode left %d rows, %d sets behind", into.cols.N, len(into.prov))
			}
			return
		}
		if into.prov != nil && len(into.prov) != into.cols.N {
			t.Fatalf("%d provenance sets beside %d rows", len(into.prov), into.cols.N)
		}
		if _, err := encodeShipBatch(nil, into, into.phase); err != nil {
			t.Fatalf("re-encode of valid decode failed: %v", err)
		}
	})
}

// scanIDSeeds are tuple-ID shipments as index nodes send them.
func scanIDSeeds() [][]byte {
	ship := func(scanID, fromIdx int, keys ...string) []byte {
		ids := make([]tuple.ID, len(keys))
		hashes := make([]keyspace.Key, len(keys))
		for i, k := range keys {
			ids[i] = tuple.ID{Key: k, Epoch: tuple.Epoch(i + 1)}
			hashes[i] = ids[i].Hash()
		}
		return encodeScanIDs(nil, scanID, fromIdx, ids, hashes)
	}
	return [][]byte{
		ship(0, 0),
		ship(1, 2, "k000017"),
		ship(3, 63, "", "a", strings.Repeat("long-key/", 40)),
		ship(0, 1, "k1", "k1", "k2"), // one ID from two senders' pages coexists
	}
}

// TestScanIDsRoundTrip: the shipment layout carries scan, sender, IDs and
// hashes exactly, and a count the payload cannot hold is refused before
// anything is allocated for it.
func TestScanIDsRoundTrip(t *testing.T) {
	for i, data := range scanIDSeeds() {
		scanID, fromIdx, ids, hashes, err := decodeScanIDs(data)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if again := encodeScanIDs(nil, scanID, fromIdx, ids, hashes); !bytes.Equal(again, data) {
			t.Fatalf("seed %d: re-encoding differs", i)
		}
	}
	// scan 0, sender 0, "2^26 IDs follow", then nothing: 6 bytes that used
	// to reserve ~2.9 GB.
	bomb := binary.AppendUvarint([]byte{0, 0}, 1<<26)
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, _, _, err := decodeScanIDs(bomb); err == nil {
			t.Fatal("a count beyond the payload was accepted")
		}
	})
	if allocs > 2 { // the error value
		t.Fatalf("refusing the count took %.0f allocations", allocs)
	}
}

// FuzzScanIDsDecode: the msgScanIDs decoder runs on bytes off the wire. It
// must reject garbage with an error, never panic or reserve memory the
// payload cannot back, and what it accepts must re-encode to itself.
func FuzzScanIDsDecode(f *testing.F) {
	for _, seed := range scanIDSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(binary.AppendUvarint([]byte{0, 0}, 1<<26))
	f.Fuzz(func(t *testing.T, data []byte) {
		scanID, fromIdx, ids, hashes, err := decodeScanIDs(data)
		if err != nil {
			return
		}
		if len(ids) != len(hashes) || cap(ids) > len(data) {
			t.Fatalf("%d ids (cap %d), %d hashes from %d bytes", len(ids), cap(ids), len(hashes), len(data))
		}
		again, _, ids2, _, err := decodeScanIDs(encodeScanIDs(nil, scanID, fromIdx, ids, hashes))
		if err != nil || again != scanID || len(ids2) != len(ids) {
			t.Fatalf("re-encode of a valid decode: %v", err)
		}
	})
}
