package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// Differential suite for streamed execution: every pushdown class
// (stream / top-k / partial-agg) must produce the same answer as the
// collected path. The collected reference is the engine itself run with
// Provenance on, which forces shipCollect for every plan shape (the same
// rule incremental recovery relies on).
//
// Determinism caveats pinned here:
//   - A limit without a sort keeps *some* N rows, chosen by arrival
//     order — both paths are compared by count and containment, not
//     element-wise.
//   - NaN sort keys break strict weak ordering (Value.Cmp treats NaN as
//     equal to everything), so the selected top K is algorithm-dependent
//     — count and containment again.
//   - Float SUM/AVG stay order-independent because the generator only
//     emits exactly-representable multiples of 0.25 (plus NaN/Inf, whose
//     propagation is order-insensitive for addition).

// schemaFD is the NaN-bearing differential schema: unique int key,
// low-cardinality int group, adversarial float value.
func schemaFD() *tuple.Schema {
	return tuple.MustSchema("FD", []tuple.Column{
		{Name: "k", Type: tuple.Int64},
		{Name: "g", Type: tuple.Int64},
		{Name: "v", Type: tuple.Float64},
	}, "k")
}

func genFD(n int, rng *rand.Rand) []tuple.Row {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	rows := make([]tuple.Row, n)
	for i := range rows {
		v := float64(rng.Intn(4001)-2000) * 0.25
		if rng.Intn(8) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.I(int64(rng.Intn(8))), tuple.F(v)}
	}
	return rows
}

// canonValueKey is valueKey with NaN payloads and zero signs collapsed:
// aggregate arithmetic may produce a different NaN bit pattern (or -0)
// than the one that went in, and both are the same answer.
func canonValueKey(v tuple.Value) string {
	if v.T == tuple.Float64 {
		if math.IsNaN(v.F64) {
			return "fNaN"
		}
		if v.F64 == 0 {
			return "f0"
		}
	}
	return valueKey(v)
}

func canonRowKey(r tuple.Row) string {
	s := ""
	for _, v := range r {
		s += canonValueKey(v) + "|"
	}
	return s
}

func multiset(rows []tuple.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[canonRowKey(r)]++
	}
	return m
}

func multisetEqual(a, b []tuple.Row) bool {
	if len(a) != len(b) {
		return false
	}
	ma, mb := multiset(a), multiset(b)
	for k, n := range ma {
		if mb[k] != n {
			return false
		}
	}
	return true
}

// multisetSubset reports whether every row of sub (with multiplicity)
// appears in super.
func multisetSubset(sub, super []tuple.Row) bool {
	ms := multiset(super)
	for _, r := range sub {
		k := canonRowKey(r)
		if ms[k] == 0 {
			return false
		}
		ms[k]--
	}
	return true
}

// captureSink is a StreamSink that copies every chunk out (the engine's
// emission contract only lends the batch for the duration of the call).
type captureSink struct {
	mu    sync.Mutex
	rows  []tuple.Row
	calls int
}

func (c *captureSink) StreamCols(b *tuple.Batch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.rows = append(c.rows, b.Rows()...) // Rows copies out of the batch
	return nil
}

func (c *captureSink) snapshot() (rows []tuple.Row, calls int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rows, c.calls
}

// diffSpecs is the aggregate set used by the partial-agg cases: MIN/MAX
// only on the int column (NaN makes float extrema order-dependent),
// SUM/AVG on the exactly-representable float column.
func diffSpecs() []AggSpec {
	return []AggSpec{
		{Func: AggCount, Col: -1},
		{Func: AggSum, Col: 2},
		{Func: AggMin, Col: 0},
		{Func: AggMax, Col: 0},
		{Func: AggAvg, Col: 2},
	}
}

// diffBase builds a fresh copy of one of the base (pre-final) plan
// shapes over FD — fresh because Finalize mutates the node tree.
func diffBase(base string) Node {
	scan := &ScanNode{Relation: "FD"}
	switch base {
	case "filter":
		return &SelectNode{Pred: B(OpLt, C(1), CI(5)), Child: scan}
	case "join":
		// FD ⋈ S on FD.g = S.y, rehashing both sides.
		return &JoinNode{
			LeftKeys:  []int{1},
			RightKeys: []int{0},
			Left:      &RehashNode{Keys: []int{1}, Child: scan},
			Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
		}
	default:
		return scan
	}
}

func TestStreamDiffRandomPlans(t *testing.T) {
	cases := []struct {
		name string
		cat  string // final-pipeline category
		base string
		mode shipMode
	}{
		{"stream/scan", "none", "scan", shipStream},
		{"stream/filter", "none", "filter", shipStream},
		{"stream/join", "none", "join", shipStream},
		{"stream/compute", "compute", "scan", shipStream},
		{"stream/limit", "limit", "filter", shipStream},
		{"topk/int-keys", "topk-int", "scan", shipTopK},
		{"topk/int-keys-filter", "topk-int", "filter", shipTopK},
		{"topk/nan-keys", "topk-nan", "scan", shipTopK},
		{"agg/scan", "agg", "scan", shipAggMerge},
		{"agg/filter", "agg", "filter", shipAggMerge},
		{"collect/sort-only", "sort", "scan", shipCollect},
	}
	for ci, tc := range cases {
		for _, nodes := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, nodes), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*ci + nodes)))
				h := newHarness(t, nodes)
				h.create(schemaFD())
				h.publish("FD", genFD(300, rng))
				if tc.base == "join" {
					h.create(schemaS())
					h.publish("S", genS(60, rng))
				}

				mkPlan := func(final bool) *Plan {
					p := &Plan{Root: diffBase(tc.base)}
					if !final {
						return p
					}
					switch tc.cat {
					case "compute":
						p.Final = []FinalOp{&FinalCompute{Exprs: []Expr{
							C(0), C(1), B(OpAdd, C(0), C(1)),
						}}}
					case "limit":
						p.Final = []FinalOp{&FinalLimit{N: 37}}
					case "topk-int":
						p.Final = []FinalOp{
							&FinalSort{Keys: []SortKey{{Col: 1}, {Col: 0, Desc: true}}},
							&FinalLimit{N: 10},
						}
					case "topk-nan":
						p.Final = []FinalOp{
							&FinalSort{Keys: []SortKey{{Col: 2}, {Col: 0}}},
							&FinalLimit{N: 15},
						}
					case "agg":
						specs := diffSpecs()
						p.Root = &AggNode{
							GroupCols: []int{1},
							Aggs:      specs,
							Mode:      AggPartial,
							Child:     p.Root,
						}
						p.Final = []FinalOp{&FinalAgg{GroupCols: []int{0}, Aggs: offsetSpecs(specs)}}
					case "sort":
						p.Final = []FinalOp{&FinalSort{Keys: []SortKey{{Col: 1}, {Col: 0}}}}
					}
					return p
				}

				p := mkPlan(true)
				if got := planShipMode(p, Options{}); got != tc.mode {
					t.Fatalf("planShipMode = %s, want %s", got, tc.mode)
				}

				// Collected reference: provenance forces shipCollect for
				// every class, on a fresh copy of the plan.
				refRes, err := h.engines[0].Run(h.ctx(), mkPlan(true), Options{Provenance: true})
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				ref := refRes.Batch.Rows()

				sink := &captureSink{}
				res, err := h.engines[0].Run(h.ctx(), p, Options{Sink: sink})
				if err != nil {
					t.Fatalf("pushdown run: %v", err)
				}

				got := res.Batch.Rows()
				if tc.mode == shipStream {
					if res.Batch.N != 0 {
						t.Fatalf("streamed run returned collected rows (%d)", res.Batch.N)
					}
					captured, _ := sink.snapshot()
					if res.Streamed != int64(len(captured)) {
						t.Fatalf("Streamed = %d, sink saw %d", res.Streamed, len(captured))
					}
					got = captured
				} else {
					if captured, calls := sink.snapshot(); calls != 0 || len(captured) != 0 {
						t.Fatalf("%s run invoked the sink (%d calls)", tc.mode, calls)
					}
					if res.Streamed != 0 {
						t.Fatalf("%s run reported Streamed = %d", tc.mode, res.Streamed)
					}
				}

				switch tc.cat {
				case "limit", "topk-nan":
					// Nondeterministic selection: pin count and containment
					// in the full (no-final) answer.
					if len(got) != len(ref) {
						t.Fatalf("got %d rows, reference has %d", len(got), len(ref))
					}
					fullRes, err := h.engines[0].Run(h.ctx(), mkPlan(false), Options{Provenance: true})
					if err != nil {
						t.Fatalf("full run: %v", err)
					}
					if !multisetSubset(got, fullRes.Batch.Rows()) {
						t.Fatalf("pushdown emitted rows outside the full answer")
					}
				case "topk-int", "sort":
					// Unique sort keys: order is pinned exactly.
					gk, rk := rowKeys(got), rowKeys(ref)
					if len(gk) != len(rk) {
						t.Fatalf("got %d rows, reference has %d", len(gk), len(rk))
					}
					for i := range gk {
						if gk[i] != rk[i] {
							t.Fatalf("row %d: got %s, want %s", i, gk[i], rk[i])
						}
					}
				default:
					if !multisetEqual(got, ref) {
						t.Fatalf("streamed ≠ collected: %s", diffSummary(got, ref))
					}
				}
			})
		}
	}
}

// Top-K pushdown must bound shipping: each fragment ships at most K
// rows, so the initiator receives no more than members×K.
func TestStreamTopKShipsAtMostKPerFragment(t *testing.T) {
	const k = 10
	h := newHarness(t, 3)
	h.create(schemaFD())
	h.publish("FD", genFD(3000, rand.New(rand.NewSource(42))))

	p := &Plan{
		Root: &ScanNode{Relation: "FD"},
		Final: []FinalOp{
			&FinalSort{Keys: []SortKey{{Col: 1}, {Col: 0}}},
			&FinalLimit{N: k},
		},
	}
	res, err := h.engines[0].Run(h.ctx(), p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Batch.N != k {
		t.Fatalf("got %d rows, want %d", res.Batch.N, k)
	}
	members := uint64(len(h.local.Nodes()))
	if shipped := res.TotalStats().Shipped; shipped > members*k {
		t.Fatalf("shipped %d tuples, top-K bound is %d", shipped, members*k)
	}
	ref, err := h.engines[0].Run(h.ctx(), &Plan{
		Root: &ScanNode{Relation: "FD"},
		Final: []FinalOp{
			&FinalSort{Keys: []SortKey{{Col: 1}, {Col: 0}}},
			&FinalLimit{N: k},
		},
	}, Options{Provenance: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	gk, rk := rowKeys(res.Batch.Rows()), rowKeys(ref.Batch.Rows())
	for i := range gk {
		if gk[i] != rk[i] {
			t.Fatalf("row %d: got %s, want %s", i, gk[i], rk[i])
		}
	}
}

// A streamed scan must not accumulate the whole answer at the initiator: the
// fragments ship against credit the drainer returns as the sink takes rows,
// so the buffered high-water mark is at most members × shipCreditRows by
// construction — here under half the answer.
func TestStreamPeakBounded(t *testing.T) {
	const members = 4
	const bound = members * shipCreditRows
	const total = 2*bound + 4000
	h := newHarness(t, members)
	h.create(schemaFD())
	h.publish("FD", genFD(total, rand.New(rand.NewSource(7))))

	// Relayed blocks wait in the relay queue rather than the accumulator;
	// they count toward the peak, and their credit comes back the same way.
	for _, relay := range []bool{false, true} {
		fs := &frameSink{}
		var sink StreamSink = &fs.captureSink
		if relay {
			sink = fs
		}
		res, err := h.engines[0].Run(h.ctx(), &Plan{Root: &ScanNode{Relation: "FD"}},
			Options{Sink: sink})
		if err != nil {
			t.Fatalf("relay=%v: Run: %v", relay, err)
		}
		captured, calls := fs.snapshot()
		if len(captured) != total || res.Streamed != total {
			t.Fatalf("relay=%v: streamed %d rows (sink saw %d), want %d", relay, res.Streamed, len(captured), total)
		}
		if calls < 2 {
			t.Fatalf("relay=%v: answer arrived in %d chunk(s); streaming should deliver incrementally", relay, calls)
		}
		if res.StreamPeak <= 0 || res.StreamPeak > bound {
			t.Fatalf("relay=%v: StreamPeak = %d, want within (0, %d]", relay, res.StreamPeak, bound)
		}
		if _, relayed := fs.blocks(); relay && relayed == 0 {
			t.Fatal("no block was relayed")
		}
	}
}

// faultSink kills a node the first time the initiator hands it a chunk —
// i.e. strictly after result rows have left the engine — then slows
// later chunks down so the failure detector outruns completion.
type faultSink struct {
	h      *harness
	victim ring.NodeID
	once   sync.Once
	chunks atomic.Int64
	fired  atomic.Bool
}

func (f *faultSink) note() error {
	if f.chunks.Add(1) > 1 {
		time.Sleep(5 * time.Millisecond)
	}
	f.once.Do(func() {
		f.h.local.Kill(f.victim)
		f.fired.Store(true)
	})
	return nil
}

func (f *faultSink) StreamCols(*tuple.Batch) error { return f.note() }

// A node failure after rows have streamed is terminal: the engine must
// surface StreamAbortedError (never FailureError, which the restart loop
// would swallow and re-run — duplicating the emitted prefix) and never
// silently return a short answer.
func TestStreamMidExecutionFailureAborts(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		h := newHarness(t, 6)
		h.create(schemaR())
		h.create(schemaS())
		rng := rand.New(rand.NewSource(int64(100 + attempt)))
		h.publish("R", genR(8000, rng))
		h.publish("S", genS(1500, rng))

		p := failurePlan()
		sink := &faultSink{h: h, victim: h.local.Node(3).ID()} // never node 0, the initiator
		// RecoverRestart would normally retry FailureError; a streamed
		// prefix must make the failure terminal anyway.
		_, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverRestart, Sink: sink})
		if err == nil {
			// The victim finished its fragments before the kill landed —
			// a legal schedule, but not the one under test. Try again.
			continue
		}
		var sa *StreamAbortedError
		if !errors.As(err, &sa) {
			t.Fatalf("got %T (%v), want *StreamAbortedError", err, err)
		}
		if sa.Streamed <= 0 {
			t.Fatalf("StreamAbortedError.Streamed = %d, want > 0", sa.Streamed)
		}
		var fe *FailureError
		if errors.As(err, &fe) {
			t.Fatalf("StreamAbortedError matched FailureError — restart loop would retry it")
		}
		return
	}
	t.Fatal("victim outran the kill in every attempt; no mid-stream failure was observed")
}

// Incremental recovery keeps the collected path: a sink attached to a
// provenance-mode run is ignored, and a mid-query failure still recovers
// to the exact answer instead of aborting.
func TestStreamSinkIgnoredUnderIncrementalRecovery(t *testing.T) {
	h := newHarness(t, 6)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(21))
	h.publish("R", genR(600, rng))
	h.publish("S", genS(150, rng))

	p := failurePlan()
	if planShipMode(p, Options{Recovery: RecoverIncremental}.withDefaults()) == shipStream {
		t.Fatal("incremental recovery must not be stream-eligible")
	}
	victim := h.local.Node(3).ID()
	go func() {
		time.Sleep(2 * time.Millisecond)
		h.local.Kill(victim)
	}()
	sink := &captureSink{}
	res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverIncremental, Sink: sink})
	if err != nil {
		t.Fatalf("Run with recovery: %v", err)
	}
	if _, calls := sink.snapshot(); calls != 0 {
		t.Fatalf("sink invoked %d times under incremental recovery", calls)
	}
	if res.Streamed != 0 {
		t.Fatalf("Streamed = %d under incremental recovery", res.Streamed)
	}
	h.check(p, res)
}
