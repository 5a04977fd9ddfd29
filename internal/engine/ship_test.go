package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// TestShipMismatchFailsQuery: rows that cannot join what an operator holds
// — a batch whose column types disagree with the batches before it — fail
// the query with a *ShipError; it never completes with a short answer. A
// column's type is a function of the plan and the schemas, so no plan
// produces such a batch: each stateful edge of a fragment is fed one by
// hand (the ship producer's pending batch, a rehash block, a join's build
// side, an aggregate's group keys, where nothing downstream ever looks at
// the types again), and the consumer is sent a shipment of another shape.
func TestShipMismatchFailsQuery(t *testing.T) {
	h := newHarness(t, 1)
	h.create(schemaR())
	h.create(schemaS())
	scan := func(rel string) Node { return &ScanNode{Relation: rel} }
	shaped := func(v tuple.Value) *colBatch {
		cb := newColBatch(0)
		if err := cb.cols.AppendRow(tuple.Row{v, v}); err != nil {
			t.Fatal(err)
		}
		return cb
	}
	var se *ShipError
	for name, tc := range map[string]struct {
		root Node
		push func(ex *executor, cb *colBatch)
	}{
		"ship": {scan("R"), func(ex *executor, cb *colBatch) { ex.shipper.push(cb) }},
		"rehash": {&RehashNode{Keys: []int{0}, Child: scan("R")}, func(ex *executor, cb *colBatch) {
			for _, p := range ex.producers {
				p.push(cb)
			}
		}},
		"join": {&JoinNode{LeftKeys: []int{0}, RightKeys: []int{0}, Left: scan("R"), Right: scan("S")},
			func(ex *executor, cb *colBatch) { ex.recoverables[0].(*joinOp).pushSide(cb, true) }},
		"aggregate": {&AggNode{GroupCols: []int{0}, Aggs: []AggSpec{{Func: AggCount, Col: -1}}, Mode: AggComplete, Child: scan("R")},
			func(ex *executor, cb *colBatch) { ex.recoverables[0].(*aggOp).push(cb) }},
	} {
		ex := initiatorExec(t, h, &Plan{Root: tc.root}, Options{})
		tc.push(ex, shaped(tuple.I(1)))
		tc.push(ex, shaped(tuple.S("x")))
		ex.shipper.eos(0)
		select {
		case err := <-ex.shipCons.failCh:
			if !errors.As(err, &se) || se.Node != ex.self() || !strings.Contains(err.Error(), "type") {
				t.Fatalf("%s: mismatch reported %v, want a *ShipError naming the types", name, err)
			}
		default:
			t.Fatalf("%s: a batch of another shape did not fail the fragment", name)
		}
	}

	ex := initiatorExec(t, h, &Plan{Root: scan("R")}, Options{})
	ex.sendShip(shaped(tuple.I(1)))
	ex.sendShip(shaped(tuple.S("x")))
	select {
	case err := <-ex.shipCons.failCh:
		if !errors.As(err, &se) || se.Node != ex.self() {
			t.Fatalf("consumer-side mismatch reported %v", err)
		}
	default:
		t.Fatal("consumer accepted a shipment of a different shape without failing the query")
	}
}

// TestTopKFragmentHoldsKPlusOneBatch feeds a top-K fragment's ship producer
// by hand: after every push it holds at most K rows, and what it ships is
// the first K of a stable sort of everything pushed — keys tie heavily, so
// the arrival order of equal keys is pinned too.
func TestTopKFragmentHoldsKPlusOneBatch(t *testing.T) {
	h := newHarness(t, 1)
	h.create(schemaR())
	const k = 25
	keys := []SortKey{{Col: 0, Desc: true}}
	p := &Plan{Root: &ScanNode{Relation: "R"}, Final: []FinalOp{&FinalSort{Keys: keys}, &FinalLimit{N: k}}}
	ex := initiatorExec(t, h, p, Options{})
	rng := rand.New(rand.NewSource(9))
	var all []tuple.Row
	for batch := 0; batch < 40; batch++ {
		cb := newColBatch(0)
		for i := rng.Intn(30); i >= 0; i-- {
			row := tuple.Row{tuple.I(int64(rng.Intn(12))), tuple.I(int64(len(all)))} // (key, arrival)
			all = append(all, row)
			if err := cb.cols.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		ex.shipper.push(cb)
		if held := ex.shipper.pending.cols.N; held > k {
			t.Fatalf("after batch %d the fragment holds %d rows, want ≤ K = %d", batch, held, k)
		}
	}
	ex.shipper.eos(0)
	sort.SliceStable(all, func(i, j int) bool { return all[i][0].I64 > all[j][0].I64 })
	got := ex.shipCons.runs[ex.self()].Rows()
	if fmt.Sprint(got) != fmt.Sprint(all[:k]) {
		t.Fatalf("shipped run:\n got  %v\n want %v", got, all[:k])
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

// TestScanIDsDecodeAllocsPerMessage: a shipment's keys decode into one
// string, so a message of 1 000 IDs costs the allocations of a message of
// ten — the key bytes, the ID slice and the hash slice — and every key
// still reads back exactly.
func TestScanIDsDecodeAllocsPerMessage(t *testing.T) {
	msg := func(n int) ([]byte, []tuple.ID) {
		ids := make([]tuple.ID, n)
		hashes := make([]keyspace.Key, n)
		for i := range ids {
			ids[i] = tuple.ID{Key: fmt.Sprintf("key-%06d", i), Epoch: tuple.Epoch(i + 1)}
			hashes[i] = ids[i].Hash()
		}
		return encodeScanIDs(nil, 1, 2, ids, hashes), ids
	}
	var per []float64
	for _, n := range []int{10, 1000} {
		data, want := msg(n)
		_, _, got, _, err := decodeScanIDs(data)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d IDs: decoded IDs differ", n)
		}
		per = append(per, testing.AllocsPerRun(20, func() {
			if _, _, _, _, err := decodeScanIDs(data); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if per[0] != per[1] || per[1] > 3 {
		t.Fatalf("decoding 10 IDs took %.0f allocations and 1 000 IDs %.0f; want one constant, at most 3", per[0], per[1])
	}
}
