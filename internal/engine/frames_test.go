package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// --- fixtures: one real instance of everything the engine puts on the wire ---

func frameTable(t testing.TB) *ring.Table {
	t.Helper()
	table, err := ring.New([]ring.NodeID{"orch-001", "orch-002", "orch-003"}, ring.Balanced, 2)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// framePlan uses every node kind, every final op and every expression kind.
func framePlan(t testing.TB) *Plan {
	t.Helper()
	scanR := &ScanNode{Relation: "R"}
	scanR.Pred.Lo, scanR.Pred.Hi = []byte{1, 0x80, 0, 0, 0, 0, 0, 0, 5}, []byte{1, 0x80, 0, 0, 0, 0, 0, 0, 9}
	left := &SelectNode{Pred: B(OpAnd, B(OpGe, C(1), CI(-3)), Not{E: B(OpEq, C(2), CS("a\x00b"))}), Child: scanR}
	right := &ProjectNode{Cols: []int{1, 0}, Child: &ScanNode{Relation: "S", Covering: true}}
	join := &JoinNode{LeftKeys: []int{0}, RightKeys: []int{1},
		Left:  &RehashNode{Keys: []int{0}, Child: left},
		Right: &RehashNode{Keys: []int{1}, Child: right}}
	agg := &AggNode{GroupCols: []int{0}, Mode: AggPartial, Child: &ComputeNode{
		Exprs: []Expr{C(0), B(OpMul, C(1), CF(2.5)), B(OpConcat, C(2), CS(""))}, Child: join},
		Aggs: []AggSpec{{AggCount, -1}, {AggSum, 1}, {AggMin, 1}, {AggMax, 1}, {AggAvg, 1}}}
	p := &Plan{Root: agg, Final: []FinalOp{
		&FinalAgg{GroupCols: []int{0}, Aggs: agg.Aggs},
		&FinalSort{Keys: []SortKey{{Col: 1, Desc: true}, {Col: 0}}},
		&FinalCompute{Exprs: []Expr{C(0), B(OpDiv, C(2), CI(2))}},
		&FinalLimit{N: 300},
	}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func frameMeta(withCoord bool) *relMeta {
	m := &relMeta{effEpoch: 7, schema: tuple.MustSchema("R",
		[]tuple.Column{{Name: "k", Type: tuple.Int64}, {Name: "v", Type: tuple.Float64}, {Name: "s", Type: tuple.String}}, "k")}
	if withCoord {
		m.coord = &vstore.Coordinator{Relation: "R", Epoch: 7, Pages: []vstore.PageRef{{
			ID: vstore.PageID{Relation: "R", Epoch: 7, Seq: 1}, Max: keyspace.Max, Entries: 3, DeltaEntries: 1, Depth: 1}}}
	}
	return m
}

func frameIDs(keys ...string) ([]tuple.ID, []keyspace.Key) {
	ids := make([]tuple.ID, len(keys))
	hashes := make([]keyspace.Key, len(keys))
	for i, k := range keys {
		ids[i] = tuple.ID{Key: k, Epoch: tuple.Epoch(i + 1)}
		hashes[i] = ids[i].Hash()
	}
	return ids, hashes
}

func must(t testing.TB) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// --- every decoder of the package, in the FuzzClusterFrames form ---

// engineFrame is one decoder of bytes a peer sent: decode reports how many
// elements it made room for (0 when it sizes nothing by a count) and checks
// whatever else must hold of an accepted payload; seeds are real encodes.
type engineFrame struct {
	name   string
	decode func(t testing.TB, b []byte) (room int, err error)
	seeds  func(t testing.TB) [][]byte
	// tail, when set, measures the part of a valid message that belongs to
	// another decoder (a batch body) or is optional (a span subtree): cut
	// inside it, the message may still decode, as the shorter one.
	tail func(seed []byte) int
}

func engineFrames() []engineFrame {
	return []engineFrame{
		{name: "prepare",
			decode: func(t testing.TB, b []byte) (int, error) {
				p, err := decodePrepare(b)
				if err != nil {
					return 0, err
				}
				return len(p.metas), nil
			},
			seeds: func(t testing.TB) [][]byte {
				tr := obs.NewTrace(0xfeed, "query", "orch-001")
				return [][]byte{
					must(t)(encodePrepare(0x0102030405060708, "orch-002", 9, Options{}, true, frameTable(t), framePlan(t), map[string]*relMeta{"R": frameMeta(true)})),
					must(t)(encodePrepare(1, "orch-001", 2, Options{Provenance: true, Recovery: RecoverIncremental, Trace: tr}, false,
						frameTable(t), &Plan{Root: &ScanNode{Relation: "S"}}, map[string]*relMeta{"S": frameMeta(false)})),
				}
			}},
		{name: "meta",
			decode: func(t testing.TB, b []byte) (int, error) {
				r := codec.NewReader(b)
				_, m := decodeMeta(&r)
				if err := r.Done("meta"); err != nil {
					return 0, err
				}
				if m.coord != nil {
					return cap(m.coord.Pages), nil
				}
				return 0, nil
			},
			seeds: func(t testing.TB) [][]byte {
				return [][]byte{encodeMeta(nil, "R", frameMeta(true)), encodeMeta(nil, "S", frameMeta(false))}
			}},
		{name: "plan",
			decode: func(t testing.TB, b []byte) (int, error) {
				p, err := DecodePlan(b)
				if err != nil {
					return 0, err
				}
				again := EncodePlan(p)
				if p2, err := DecodePlan(again); err != nil || !bytes.Equal(EncodePlan(p2), again) {
					t.Fatalf("accepted plan %x re-encodes to %x, which does not decode to itself: %v", b, again, err)
				}
				return cap(p.Final), nil
			},
			seeds: func(t testing.TB) [][]byte {
				return [][]byte{EncodePlan(framePlan(t)), EncodePlan(&Plan{Root: &ScanNode{Relation: "R"}})}
			}},
		{name: "expr",
			decode: func(t testing.TB, b []byte) (int, error) {
				e, err := DecodeExpr(b)
				if err != nil {
					return 0, err
				}
				again := e.append(nil)
				if e2, err := DecodeExpr(again); err != nil || !bytes.Equal(e2.append(nil), again) {
					t.Fatalf("accepted expression %x re-encodes to %x, which does not decode to itself: %v", b, again, err)
				}
				return 0, nil
			},
			seeds: func(t testing.TB) [][]byte {
				sel := framePlan(t).Root.(*AggNode).Child.(*ComputeNode).Child.(*JoinNode).Left.(*RehashNode).Child.(*SelectNode)
				return [][]byte{sel.Pred.append(nil), C(0).append(nil), CF(-0.5).append(nil)}
			}},
		{name: "recover directive",
			decode: func(t testing.TB, b []byte) (int, error) {
				d, err := decodeRecoverDirective(b)
				return cap(d.failedIdxs), err
			},
			seeds: func(t testing.TB) [][]byte {
				survivors, err := frameTable(t).WithoutNodes([]ring.NodeID{"orch-002"})
				if err != nil {
					t.Fatal(err)
				}
				return [][]byte{must(t)(encodeRecoverDirective(recoverDirective{newPhase: 2, failedIdxs: []int{1}, newTable: survivors}))}
			}},
		{name: "node stats",
			decode: func(t testing.TB, b []byte) (int, error) {
				r := codec.NewReader(b)
				decodeNodeStats(&r)
				return 0, r.Done("node stats")
			},
			seeds: func(t testing.TB) [][]byte {
				return [][]byte{encodeNodeStats(nil, NodeStats{1, 2, 3, 4, 5, 1 << 40})}
			}},
		{name: "ship credit",
			decode: func(t testing.TB, b []byte) (int, error) { _, err := decodeShipCredit(b); return 0, err },
			seeds: func(t testing.TB) [][]byte {
				return [][]byte{encodeShipCredit(nil, 1), encodeShipCredit(nil, shipCreditRows)}
			}},
		{name: "mark",
			decode: func(t testing.TB, b []byte) (int, error) { _, _, err := decodeMark(b); return 0, err },
			seeds: func(t testing.TB) [][]byte {
				return [][]byte{encodeMark(nil, 5, 2), encodeMark(nil, 300, 0)}
			}},
		{name: "ship eos",
			tail: func(seed []byte) int { _, _, _, span, _ := decodeShipEOS(seed); return len(span) },
			decode: func(t testing.TB, b []byte) (int, error) {
				_, _, _, span, err := decodeShipEOS(b)
				if err == nil && len(span) > 0 {
					_, _, _ = obs.DecodeSpan(span) // lost at worst, never a panic
				}
				return 0, err
			},
			seeds: func(t testing.TB) [][]byte {
				tr := obs.NewTrace(0xfeed, "fragment", "orch-003")
				tr.Attach(nil, &obs.Span{Name: "scan.pass", Rows: 10, Batches: 1})
				return [][]byte{
					encodeShipEOS(nil, 0, NodeStats{Scanned: 10, Shipped: 10}, "", nil),
					encodeShipEOS(nil, 3, NodeStats{1, 2, 3, 4, 5, 6}, "engine: compute, row 4: boom", tr),
				}
			}},
		{name: "scan ids", // every property of the former FuzzScanIDsDecode
			decode: func(t testing.TB, b []byte) (int, error) {
				scanID, fromIdx, ids, hashes, err := decodeScanIDs(b)
				if err != nil {
					return 0, err
				}
				if len(ids) != len(hashes) {
					t.Fatalf("%d ids, %d hashes", len(ids), len(hashes))
				}
				again, _, ids2, _, err := decodeScanIDs(encodeScanIDs(nil, scanID, fromIdx, ids, hashes))
				if err != nil || again != scanID || len(ids2) != len(ids) {
					t.Fatalf("re-encode of a valid decode: %v", err)
				}
				return cap(ids), nil
			},
			seeds: func(testing.TB) [][]byte { return scanIDSeeds() }},
		{name: "batch header",
			tail: func(seed []byte) int { _, _, body, _ := decodeBatchHeader(seed); return len(body) },
			decode: func(t testing.TB, b []byte) (int, error) {
				_, provs, _, err := decodeBatchHeader(b)
				return cap(provs), err
			},
			seeds: shipBatchSeeds},
		{name: "ship batch", // every property of the former FuzzShipBatchDecode
			decode: func(t testing.TB, b []byte) (int, error) { return decodeShipChecked(t, b) },
			seeds:  shipBatchSeeds},
		{name: "ship relay", // the check a whole block passes before it is relayed undecoded
			decode: func(t testing.TB, b []byte) (int, error) { return relayChecked(t, b) },
			seeds: func(t testing.TB) [][]byte {
				return append(shipBatchSeeds(t), wholeBlockSeed(t))
			}},
		{name: "exch batch",
			decode: func(t testing.TB, b []byte) (int, error) {
				_, batch, err := decodeExchBatch(b)
				if err != nil {
					return 0, err
				}
				return decodeShipChecked(t, batch)
			},
			seeds: func(t testing.TB) [][]byte {
				var out [][]byte
				for i, seed := range shipLayoutSeeds {
					out = append(out, must(t)(encodeExchBatch(nil, 7*i, seedBatch(t, seed.rows, seed.prov), uint32(i))))
				}
				return out
			}},
	}
}

func shipBatchSeeds(t testing.TB) [][]byte {
	var out [][]byte
	for i, seed := range shipLayoutSeeds {
		for _, pv := range [][]Prov{nil, seed.prov} {
			out = append(out, must(t)(encodeShipBatch(nil, seedBatch(t, seed.rows, pv), uint32(i))))
		}
	}
	return out
}

// decodeShipChecked decodes an inter-node batch and holds the decoder to
// what the rehash and ship handlers rely on: a failed decode leaves nothing
// behind, the provenance vector is absent or in step with the rows, and
// what was accepted encodes again.
func decodeShipChecked(t testing.TB, b []byte) (int, error) {
	into := newColBatch(0)
	if err := decodeShipBatch(b, into); err != nil {
		if into.cols.N != 0 || into.prov != nil {
			t.Fatalf("failed decode left %d rows, %d sets behind", into.cols.N, len(into.prov))
		}
		return 0, err
	}
	if into.prov != nil && len(into.prov) != into.cols.N {
		t.Fatalf("%d provenance sets beside %d rows", len(into.prov), into.cols.N)
	}
	if _, err := encodeShipBatch(nil, into, into.phase); err != nil {
		t.Fatalf("re-encode of valid decode failed: %v", err)
	}
	return cap(into.prov), nil
}

// wholeBlockSeed is a shipment of flushRows rows, compressed: the shape the
// initiator relays to a served client without decoding it.
func wholeBlockSeed(t testing.TB) []byte {
	cb := newColBatch(0)
	for i := 0; i < flushRows; i++ {
		row := tuple.Row{tuple.I(int64(i)), tuple.S(fmt.Sprintf("k%06d", i)), tuple.F(float64(i%17) / 4)}
		if err := cb.cols.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return must(t)(encodeShipBatch(nil, cb, 0))
}

// relayChecked runs the relay's check of a shipment — the header, then
// every value of the body — and holds it to the decoder's verdict: a body
// the check passes decodes to the row count it read, and one it refuses
// does not decode.
func relayChecked(t testing.TB, b []byte) (int, error) {
	_, provs, enc, err := decodeBatchHeader(b)
	if err != nil {
		return cap(provs), err
	}
	rows := 0
	bb, err := tuple.OpenBatch(enc)
	if err == nil {
		rows = bb.Rows()
		_, err = bb.Check(nil)
	}
	into := newColBatch(0)
	decErr := decodeShipBatch(b, into)
	if provs == nil && (err == nil) != (decErr == nil) {
		t.Fatalf("relay check says %v, decoder says %v", err, decErr)
	}
	if err == nil && decErr == nil && into.cols.N != rows {
		t.Fatalf("relay check read %d rows, decoder %d", rows, into.cols.N)
	}
	return cap(provs), err
}

// nestingBomb is 4 MiB of NOT tags: an expression four million levels deep.
// (Built once: the tests after this file's are timing-sensitive, and garbage
// by the tens of megabytes is not a fair thing to leave them.)
var nestingBomb = sync.OnceValue(func() []byte { return bytes.Repeat([]byte{exprNot}, 4<<20) })

// engineBombs are payloads of a few bytes (or, the last, a few megabytes of
// one repeated byte) that claim far more than they hold.
func engineBombs() [][]byte {
	count := binary.AppendUvarint(nil, 1<<26)
	field := binary.AppendUvarint(nil, 1<<63)
	var tableBomb [40]byte // one member whose id is 2⁶⁴−1 bytes long
	tableBomb[31] = 1
	copy(tableBomb[32:], bytes.Repeat([]byte{0xff}, 8))
	prepare := append(make([]byte, 8), 0)              // query id, empty initiator
	prepare = append(prepare, make([]byte, 18)...)     // epoch, flags, trace id
	prepare = codec.AppendBytes(prepare, tableBomb[:]) // the table
	prepare = append(prepare, 0)                       // an empty plan
	return [][]byte{
		binary.AppendUvarint([]byte{0, 0}, 1<<26),  // scan ids: 6 bytes that used to reserve ~2.9 GB
		append([]byte{0, 0, 0, 0}, count...),       // recover directive; ship eos
		append([]byte{0, 0, 0, 1, 1}, count...),    // batch header: dictionary
		append([]byte{0, 0, 0, 1, 1, 0}, count...), // batch header: index
		{0, 0, 0, 1, 2}, {0, 0, 0, 1, 1, 2}, // FuzzShipBatchDecode's seeds
		append([]byte{nodeProject}, count...),             // plan: int list
		append([]byte{nodeAgg, 1, 0}, count...),           // plan: agg specs
		append([]byte{nodeScan}, field...),                // plan: relation name
		append([]byte{nodeScan, 0, 0, 0, 0, 0}, count...), // plan: final ops
		append(make([]byte, 8), field...),                 // prepare: initiator
		prepare,
		append(make([]byte, 52), field...), // ship eos: failure
		nestingBomb(),                      // expr, plan under a select: stack
	}
}

func FuzzEngineFrames(f *testing.F) {
	frames := engineFrames()
	for _, fr := range frames {
		for _, seed := range fr.seeds(f) {
			f.Add(seed)
		}
	}
	f.Add([]byte{})
	for _, bomb := range engineBombs() {
		if len(bomb) < 1<<16 { // the corpus keeps the small ones; TestEngineFrameBombs runs them all
			f.Add(bomb)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// No panic, and no room made that the payload does not back.
		for _, fr := range frames {
			if room, _ := fr.decode(t, data); room > len(data) {
				t.Fatalf("%s: room for %d elements from %d bytes", fr.name, room, len(data))
			}
		}
	})
}

// TestEngineFrameSeeds: every seed decodes with its own decoder, and cut
// short at any point it is refused (or, cut inside an optional tail, is the
// shorter message) — never a panic, never a silently shorter answer.
func TestEngineFrameSeeds(t *testing.T) {
	for _, fr := range engineFrames() {
		for i, seed := range fr.seeds(t) {
			if _, err := fr.decode(t, seed); err != nil {
				t.Errorf("%s, seed %d: %v", fr.name, i, err)
			}
			closed := len(seed)
			if fr.tail != nil {
				closed -= fr.tail(seed)
			}
			for cut := 0; cut < len(seed); cut++ {
				if _, err := fr.decode(t, seed[:cut]); err == nil && cut < closed {
					t.Errorf("%s, seed %d: accepted when cut to %d of %d bytes", fr.name, i, cut, len(seed))
				}
			}
		}
	}
}

// TestEngineFrameBombs pins the cost of refusing a bomb: an error value, not
// the gigabytes its count asks for nor a stack that grows until the process
// dies. (A bomb built for one decoder may be a well-formed message to
// another; what is bounded is the cost, whatever the verdict.)
func TestEngineFrameBombs(t *testing.T) {
	bombs := engineBombs()
	for _, fr := range engineFrames() {
		for i, bomb := range bombs {
			// The least of three: TotalAlloc is process-wide, and goroutines
			// earlier tests left behind allocate too.
			grew := uint64(1 << 62)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				fr.decode(t, bomb)
				runtime.ReadMemStats(&after)
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			}
			// A few KiB (an error, an empty batch, a pooled scratch buffer the
			// pool had dropped) — plus, for the megabytes-long nesting bomb,
			// the values a decoder builds on the way down to the level where
			// the reader stops it.
			if grew > 8<<10+uint64(len(bomb))/16 {
				t.Errorf("%s, bomb %d: %d bytes allocated for a %d-byte payload", fr.name, i, grew, len(bomb))
			}
		}
	}
}

// TestNestingBombIsRefusedFast is the issue's second bugfix on its own: a
// 4 MiB predicate of nested NOTs inside a prepare ended the process with a
// stack overflow; it is now an error from the reader's depth bound.
func TestNestingBombIsRefusedFast(t *testing.T) {
	nots := nestingBomb()
	plan := append([]byte{nodeSelect}, nots...)
	for name, decode := range map[string]func() error{
		"expr": func() error { _, err := DecodeExpr(nots); return err },
		"plan": func() error { _, err := DecodePlan(plan); return err },
	} {
		best := time.Hour
		for try := 0; try < 3; try++ { // the fastest of three: a descheduled run is not the decoder's cost
			start := time.Now()
			if err := decode(); !errors.Is(err, codec.ErrDepth) {
				t.Fatalf("%s: nesting bomb: %v, want %v", name, err, codec.ErrDepth)
			}
			best = min(best, time.Since(start))
		}
		if best > 10*time.Millisecond {
			t.Errorf("%s: %v to refuse a nesting bomb", name, best)
		}
	}
}

// --- byte-identical to the parent commit ---

// TestEngineGoldenBytes pins one encode of every engine message, generated
// by the encoders of the commit before the decoders moved onto codec.Reader:
// an encoder that drifts fails here before it meets a peer running the old
// layout.
func TestEngineGoldenBytes(t *testing.T) {
	ids, hashes := frameIDs("k1", "", "long-key")
	withProv := shipLayoutSeeds[2]
	survivors, err := frameTable(t).WithoutNodes([]ring.NodeID{"orch-002"})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0xfeed, "fragment", "orch-003")
	tr.Attach(nil, &obs.Span{Name: "scan.pass", Rows: 10, Batches: 1})
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"header", (&executor{queryID: 0x0102030405060708}).header(nil), goldenHeader},
		{"plan", EncodePlan(framePlan(t)), goldenPlan},
		{"prepare", must(t)(encodePrepare(0x0102030405060708, "orch-002", 9, Options{Provenance: true, Recovery: RecoverIncremental, Trace: obs.NewTrace(0xfeed, "query", "orch-002")}, false,
			frameTable(t), framePlan(t), map[string]*relMeta{"R": frameMeta(true)})), goldenPrepare},
		{"meta without coordinator", encodeMeta(nil, "S", frameMeta(false)), goldenMetaBare},
		{"mark", encodeMark(nil, 300, 2), goldenMark},
		{"ship credit", encodeShipCredit(nil, 1500), goldenShipCredit},
		{"scan ids", encodeScanIDs(nil, 3, 1, ids, hashes), goldenScanIDs},
		{"exch batch", must(t)(encodeExchBatch(nil, 7, seedBatch(t, withProv.rows, withProv.prov), 4)), goldenExchBatch},
		{"ship batch", must(t)(encodeShipBatch(nil, seedBatch(t, withProv.rows, nil), 1)), goldenShipBatch},
		{"ship eos", encodeShipEOS(nil, 3, NodeStats{1, 2, 3, 4, 5, 6}, "boom", tr), goldenShipEOS},
		{"ship eos untraced", encodeShipEOS(nil, 0, NodeStats{Scanned: 10}, "", nil), goldenShipEOSBare},
		{"recover directive", must(t)(encodeRecoverDirective(recoverDirective{newPhase: 2, failedIdxs: []int{1, 300}, newTable: survivors})), goldenRecover},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s encodes to\n%s\nthe parent commit wrote\n%s", g.name, got, g.want)
		}
	}
}

// Generated at commit baacd0b by the encoders it had (the mark, rehash-block
// and ship-EOS payloads by the statements then inline in executor.go).
const (
	goldenHeader = "0102030405060708"
	goldenPlan   = "06020100050101020203020402050204030100030901010202c004000000000000030d01020203000005010001020701" +
		"000002030b0306010102017ffffffffffffffd040301010202036100ff62000001015209018000000000000005090180" +
		"000000000000090001070102020302020001015300000103040101000501010202030204020502020201010000030201" +
		"00030a01020201800000000000000204ac02"
	goldenPrepare = "0102030405060708086f7263682d30303200000000000000090102000000000000feedac010000000000000001000000" +
		"00000000000000000000000002000000000000000300000000000000086f7263682d30303300000000000000086f7263" +
		"682d30303100000000000000086f7263682d303032000000000000000300000000000000000000000000000000000000" +
		"00000000000000000055555555555555555555555555555555555555550000000000000001aaaaaaaaaaaaaaaaaaaaaa" +
		"aaaaaaaaaaaaaaaaaa0000000000000002a20106020100050101020203020402050204030100030901010202c0040000" +
		"00000000030d01020203000005010001020701000002030b0306010102017ffffffffffffffd040301010202036100ff" +
		"620000010152090180000000000000050901800000000000000900010701020203020200010153000001030401010005" +
		"0101020203020402050202020101000003020100030a01020201800000000000000204ac020101520000000000000007" +
		"0e015203016b010176020173030100014401520000000000000007010152000000000000000700000001000000000000" +
		"0000000000000000000000000000ffffffffffffffffffffffffffffffffffffffff030101"
	goldenMetaBare = "015300000000000000070e015203016b01017602017303010000"
	goldenMark     = "ac0200000002"
	// The ship credit message is younger than the commit above; its golden
	// is its first encoder's output.
	goldenShipCredit = "dc0b"
	goldenScanIDs    = "0301030000000000000001026b31a2ab1959c1c3bfa295b0fc90199378272db76b45000000000000000200da39a3ee5e" +
		"6b4b0d3255bfef95601890afd807090000000000000003086c6f6e672d6b65790e8d8e948e472a71123c33aee7562c7f" +
		"1c913b8a"
	// The exch and ship batches carry a tuple batch, whose layout changed
	// after that commit (version 2: each column encoded for its type); their
	// goldens were regenerated then, headers unchanged.
	goldenExchBatch = "0700000004010208210000000000000008200000000000000003000100020003030102022402fff00000000000007ff8" +
		"000000000001800000000000000003000103026162"
	goldenShipBatch = "0000000100020003030102022402fff00000000000007ff8000000000001800000000000000003000103026162"
	goldenShipEOS   = "000000030000000000000001000000000000000200000000000000030000000000000004000000000000000500000000" +
		"0000000604626f6f6d08667261676d656e74086f7263682d303033000000000000000001097363616e2e706173730000" +
		"00000a0100000000"
	goldenShipEOSBare = "00000000000000000000000a000000000000000000000000000000000000000000000000000000000000000000000000" +
		"0000000000"
	goldenRecover = "000000020201ac029c010000000000000002000000000000000000000000000000020000000000000002000000000000" +
		"00086f7263682d30303300000000000000086f7263682d30303100000000000000030000000000000000000000000000" +
		"000000000000000000000000000055555555555555555555555555555555555555550000000000000001aaaaaaaaaaaa" +
		"aaaaaaaaaaaaaaaaaaaaaaaaaaaa0000000000000000"
)
