package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"orchestra/internal/cluster"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// harness is a local simulated cluster with one engine per node.
type harness struct {
	t       *testing.T
	local   *cluster.Local
	engines []*Engine
	schemas map[string]*tuple.Schema
	data    map[string][]tuple.Row
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	return newHarnessCfg(t, n, cluster.Config{Replication: 3})
}

func newHarnessCfg(t *testing.T, n int, cfg cluster.Config) *harness {
	t.Helper()
	local, err := cluster.NewLocal(n, cfg, transport.Config{})
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	t.Cleanup(local.Shutdown)
	h := &harness{
		t:       t,
		local:   local,
		schemas: make(map[string]*tuple.Schema),
		data:    make(map[string][]tuple.Row),
	}
	for _, node := range local.Nodes() {
		h.engines = append(h.engines, New(node))
	}
	return h
}

func (h *harness) ctx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	h.t.Cleanup(cancel)
	return ctx
}

// create registers a relation on the cluster and in the oracle.
func (h *harness) create(s *tuple.Schema) {
	h.t.Helper()
	if err := h.local.Node(0).CreateRelation(h.ctx(), s); err != nil {
		h.t.Fatalf("CreateRelation(%s): %v", s.Relation, err)
	}
	h.schemas[s.Relation] = s
}

// publish inserts rows as one published batch and records them in the
// oracle's current state.
func (h *harness) publish(relation string, rows []tuple.Row) tuple.Epoch {
	h.t.Helper()
	ups := make([]vstore.Update, len(rows))
	for i, r := range rows {
		ups[i] = vstore.Update{Op: vstore.OpInsert, Row: r}
	}
	e, err := h.local.Node(0).Publish(h.ctx(), relation, ups)
	if err != nil {
		h.t.Fatalf("Publish(%s): %v", relation, err)
	}
	h.data[relation] = append(h.data[relation], rows...)
	return e
}

// run executes the plan from node 0 and checks the answer against the
// reference evaluator.
func (h *harness) run(p *Plan, opts Options) *Result {
	h.t.Helper()
	return h.runFrom(0, p, opts)
}

func (h *harness) runFrom(initiator int, p *Plan, opts Options) *Result {
	h.t.Helper()
	res, err := h.engines[initiator].Run(h.ctx(), p, opts)
	if err != nil {
		h.t.Fatalf("Run: %v", err)
	}
	h.check(p, res)
	return res
}

func (h *harness) check(p *Plan, res *Result) {
	h.t.Helper()
	want, err := refEval(p, h.data, h.schemas)
	if err != nil {
		h.t.Fatalf("refEval: %v", err)
	}
	if got := res.Batch.Rows(); !rowsEqual(got, want) {
		h.t.Fatalf("wrong answer: %s", diffSummary(got, want))
	}
}

// --- test schemas and data generators ---

func schemaR() *tuple.Schema {
	return tuple.MustSchema("R",
		[]tuple.Column{{Name: "x", Type: tuple.Int64}, {Name: "y", Type: tuple.Int64}}, "x")
}

func schemaS() *tuple.Schema {
	return tuple.MustSchema("S",
		[]tuple.Column{{Name: "y", Type: tuple.Int64}, {Name: "z", Type: tuple.Int64}}, "y")
}

func schemaT() *tuple.Schema {
	return tuple.MustSchema("T",
		[]tuple.Column{{Name: "z", Type: tuple.Int64}, {Name: "w", Type: tuple.String}}, "z")
}

func genR(n int, rng *rand.Rand) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.I(int64(rng.Intn(n/4 + 1)))}
	}
	return rows
}

func genS(n int, rng *rand.Rand) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.I(int64(rng.Intn(100)))}
	}
	return rows
}

func genT(n int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.S(fmt.Sprintf("w%04d", i))}
	}
	return rows
}

// --- basic execution tests ---

func TestCopyQuery(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.publish("R", genR(500, rand.New(rand.NewSource(1))))

	p := &Plan{Root: &ScanNode{Relation: "R"}}
	res := h.run(p, Options{})
	if res.Batch.N != 500 {
		t.Fatalf("got %d rows, want 500", res.Batch.N)
	}
	if res.Phases != 1 {
		t.Fatalf("phases = %d, want 1", res.Phases)
	}
}

func TestCopySingleNode(t *testing.T) {
	h := newHarness(t, 1)
	h.create(schemaR())
	h.publish("R", genR(200, rand.New(rand.NewSource(2))))
	h.run(&Plan{Root: &ScanNode{Relation: "R"}}, Options{})
}

func TestCoveringIndexScan(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.publish("R", genR(300, rand.New(rand.NewSource(3))))
	p := &Plan{Root: &ScanNode{Relation: "R", Covering: true}}
	res := h.run(p, Options{})
	for _, r := range res.Batch.Rows() {
		if len(r) != 1 {
			t.Fatalf("covering scan row has arity %d, want 1", len(r))
		}
	}
}

func TestSargablePredicate(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.publish("R", genR(400, rand.New(rand.NewSource(4))))
	// Key equality via the order-preserving key encoding.
	pred := cluster.EqPred(schemaR(), tuple.I(42))
	p := &Plan{Root: &ScanNode{Relation: "R", Pred: KeyPredOf(pred)}}
	res := h.run(p, Options{})
	if res.Batch.N != 1 {
		t.Fatalf("got %d rows, want 1", res.Batch.N)
	}
}

func TestSelectOperator(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaS())
	h.publish("S", genS(500, rand.New(rand.NewSource(5))))
	p := &Plan{Root: &SelectNode{
		Pred:  B(OpLt, C(1), CI(50)),
		Child: &ScanNode{Relation: "S"},
	}}
	h.run(p, Options{})
}

func TestProjectAndCompute(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaT())
	h.publish("T", genT(100))
	p := &Plan{Root: &ComputeNode{
		Exprs: []Expr{C(0), B(OpConcat, C(1), CS("-suffix"))},
		Child: &ProjectNode{Cols: []int{0, 1}, Child: &ScanNode{Relation: "T"}},
	}}
	h.run(p, Options{})
}

func TestJoinWithRehash(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(6))
	h.publish("R", genR(300, rng))
	h.publish("S", genS(80, rng))
	// R ⋈ S on R.y = S.y: rehash both sides on the join key.
	p := &Plan{Root: &JoinNode{
		LeftKeys:  []int{1},
		RightKeys: []int{0},
		Left:      &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R"}},
		Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
	}}
	h.run(p, Options{})
}

func TestThreeWayJoin(t *testing.T) {
	h := newHarness(t, 5)
	h.create(schemaR())
	h.create(schemaS())
	h.create(schemaT())
	rng := rand.New(rand.NewSource(7))
	h.publish("R", genR(150, rng))
	h.publish("S", genS(60, rng))
	h.publish("T", genT(100))
	// (R ⋈y S) ⋈z T
	rs := &JoinNode{
		LeftKeys:  []int{1},
		RightKeys: []int{0},
		Left:      &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R"}},
		Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
	}
	p := &Plan{Root: &JoinNode{
		LeftKeys:  []int{3}, // RS.z
		RightKeys: []int{0},
		Left:      &RehashNode{Keys: []int{3}, Child: rs},
		Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "T"}},
	}}
	h.run(p, Options{})
}

func TestAggregatePartialWithFinalMerge(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaS())
	h.publish("S", genS(500, rand.New(rand.NewSource(8))))
	// SELECT z, COUNT(*), SUM(y), MIN(y), MAX(y), AVG(y) FROM S GROUP BY z
	// via per-node partial aggregation + final merge at the initiator.
	specs := []AggSpec{
		{Func: AggCount, Col: -1},
		{Func: AggSum, Col: 0},
		{Func: AggMin, Col: 0},
		{Func: AggMax, Col: 0},
		{Func: AggAvg, Col: 0},
	}
	p := &Plan{
		Root: &AggNode{
			GroupCols: []int{1},
			Aggs:      specs,
			Mode:      AggPartial,
			Child:     &ScanNode{Relation: "S"},
		},
		Final: []FinalOp{&FinalAgg{GroupCols: []int{0}, Aggs: offsetSpecs(specs)}},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := h.engines[0].Run(h.ctx(), p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Reference: complete aggregation over S grouped by z.
	want := refAggregate([]int{1}, specs, h.data["S"])
	if !rowsEqual(res.Batch.Rows(), want) {
		t.Fatalf("wrong answer: %s", diffSummary(res.Batch.Rows(), want))
	}
}

// offsetSpecs rewrites aggregate input columns for the initiator-side merge
// of partial states: after partial aggregation the row layout is group
// columns first, then one column per spec (two for AVG).
func offsetSpecs(specs []AggSpec) []AggSpec {
	out := make([]AggSpec, len(specs))
	col := 1 // single group column in these tests
	for i, s := range specs {
		out[i] = AggSpec{Func: s.Func, Col: col}
		if s.Func == AggAvg {
			col += 2
		} else {
			col++
		}
	}
	return out
}

func TestAggregateCompleteAfterRehash(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaS())
	h.publish("S", genS(400, rand.New(rand.NewSource(9))))
	// Rehash on the grouping key, then complete aggregation at each node.
	specs := []AggSpec{{Func: AggCount, Col: -1}, {Func: AggSum, Col: 0}}
	p := &Plan{Root: &AggNode{
		GroupCols: []int{1},
		Aggs:      specs,
		Mode:      AggComplete,
		Child:     &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "S"}},
	}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := h.engines[0].Run(h.ctx(), p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := refAggregate([]int{1}, specs, h.data["S"])
	if !rowsEqual(res.Batch.Rows(), want) {
		t.Fatalf("wrong answer: %s", diffSummary(res.Batch.Rows(), want))
	}
}

func TestJoinThenAggregate(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(10))
	h.publish("R", genR(250, rng))
	h.publish("S", genS(70, rng))
	// SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x — the paper's
	// running example (Example 5.1, Fig 6).
	specs := []AggSpec{{Func: AggMin, Col: 3}}
	join := &JoinNode{
		LeftKeys:  []int{1},
		RightKeys: []int{0},
		Left:      &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R"}},
		Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
	}
	p := &Plan{Root: &AggNode{
		GroupCols: []int{0},
		Aggs:      specs,
		Mode:      AggComplete,
		Child:     &RehashNode{Keys: []int{0}, Child: join},
	}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := h.engines[0].Run(h.ctx(), p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	joined, err := refNode(join, h.data, h.schemas)
	if err != nil {
		t.Fatal(err)
	}
	want := refAggregate([]int{0}, specs, joined)
	if !rowsEqual(res.Batch.Rows(), want) {
		t.Fatalf("wrong answer: %s", diffSummary(res.Batch.Rows(), want))
	}
}

func TestFinalSortAndLimit(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaR())
	h.publish("R", genR(100, rand.New(rand.NewSource(11))))
	p := &Plan{
		Root:  &ScanNode{Relation: "R"},
		Final: []FinalOp{&FinalSort{Keys: []SortKey{{Col: 0, Desc: true}}}, &FinalLimit{N: 10}},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := h.engines[0].Run(h.ctx(), p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rows := res.Batch.Rows()
	if len(rows) != 10 {
		t.Fatalf("limit: got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].AsInt() < rows[i][0].AsInt() {
			t.Fatalf("rows not descending at %d", i)
		}
	}
	if rows[0][0].AsInt() != 99 {
		t.Fatalf("top row key = %d, want 99", rows[0][0].AsInt())
	}
}

func TestQueryFromEveryInitiator(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.publish("R", genR(200, rand.New(rand.NewSource(12))))
	p := &Plan{Root: &ScanNode{Relation: "R"}}
	for i := range h.engines {
		h.runFrom(i, p, Options{})
	}
}

// --- versioning tests ---

func TestVersionedSnapshotQueries(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	e1 := h.publish("R", []tuple.Row{
		{tuple.I(1), tuple.I(10)},
		{tuple.I(2), tuple.I(20)},
	})
	stateAtE1 := append([]tuple.Row(nil), h.data["R"]...)

	// Second batch: insert one tuple and update another.
	ups := []vstore.Update{
		{Op: vstore.OpInsert, Row: tuple.Row{tuple.I(3), tuple.I(30)}},
		{Op: vstore.OpUpdate, Row: tuple.Row{tuple.I(2), tuple.I(99)}},
	}
	e2, err := h.local.Node(0).Publish(h.ctx(), "R", ups)
	if err != nil {
		t.Fatalf("publish 2: %v", err)
	}
	if e2 <= e1 {
		t.Fatalf("epoch did not advance: %d then %d", e1, e2)
	}

	p := &Plan{Root: &ScanNode{Relation: "R"}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}

	// Query at e1 must see the old state, including the pre-update value.
	res1, err := h.engines[1].Run(h.ctx(), p, Options{Epoch: e1})
	if err != nil {
		t.Fatalf("Run@e1: %v", err)
	}
	if !rowsEqual(res1.Batch.Rows(), stateAtE1) {
		t.Fatalf("snapshot at e1: %s", diffSummary(res1.Batch.Rows(), stateAtE1))
	}

	// Query at e2 must see the new state, never the stale version of key 2.
	want2 := []tuple.Row{
		{tuple.I(1), tuple.I(10)},
		{tuple.I(2), tuple.I(99)},
		{tuple.I(3), tuple.I(30)},
	}
	res2, err := h.engines[2].Run(h.ctx(), p, Options{Epoch: e2})
	if err != nil {
		t.Fatalf("Run@e2: %v", err)
	}
	if !rowsEqual(res2.Batch.Rows(), want2) {
		t.Fatalf("snapshot at e2: %s", diffSummary(res2.Batch.Rows(), want2))
	}
}

func TestEmptyRelation(t *testing.T) {
	h := newHarness(t, 3)
	h.create(schemaR())
	p := &Plan{Root: &ScanNode{Relation: "R"}}
	res := h.run(p, Options{})
	if res.Batch.N != 0 {
		t.Fatalf("got %d rows from empty relation", res.Batch.N)
	}
}

func TestUnknownRelationFails(t *testing.T) {
	h := newHarness(t, 2)
	p := &Plan{Root: &ScanNode{Relation: "nope"}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.engines[0].Run(h.ctx(), p, Options{}); err == nil {
		t.Fatal("expected error for unknown relation")
	}
}

// --- provenance overhead and options ---

func TestProvenanceOverheadCorrectness(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(13))
	h.publish("R", genR(200, rng))
	h.publish("S", genS(60, rng))
	p := &Plan{Root: &JoinNode{
		LeftKeys:  []int{1},
		RightKeys: []int{0},
		Left:      &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R"}},
		Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
	}}
	// Same answers with and without provenance tracking.
	h.run(p, Options{})
	h.run(p, Options{Provenance: true})
}

func TestStatsReported(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.publish("R", genR(400, rand.New(rand.NewSource(14))))
	p := &Plan{Root: &ScanNode{Relation: "R"}}
	res := h.run(p, Options{})
	if len(res.Stats) != 4 {
		t.Fatalf("stats from %d nodes, want 4", len(res.Stats))
	}
	total := res.TotalStats()
	if total.Scanned != 400 {
		t.Fatalf("scanned %d tuples, want 400", total.Scanned)
	}
	if total.Shipped != 400 {
		t.Fatalf("shipped %d tuples, want 400", total.Shipped)
	}
}

// --- plan serialization ---

func TestPlanEncodeDecodeRoundTrip(t *testing.T) {
	specs := []AggSpec{{Func: AggMin, Col: 3}, {Func: AggCount, Col: -1}}
	join := &JoinNode{
		LeftKeys:  []int{1},
		RightKeys: []int{0},
		Left:      &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R", Covering: true}},
		Right: &RehashNode{Keys: []int{0}, Child: &SelectNode{
			Pred:  B(OpLt, C(1), CI(50)),
			Child: &ScanNode{Relation: "S"},
		}},
	}
	p := &Plan{
		Root: &AggNode{
			GroupCols: []int{0},
			Aggs:      specs,
			Mode:      AggPartial,
			Child:     &RehashNode{Keys: []int{0}, Child: join},
		},
		Final: []FinalOp{
			&FinalAgg{GroupCols: []int{0}, Aggs: specs},
			&FinalCompute{Exprs: []Expr{C(0), B(OpAdd, C(1), CI(1))}},
			&FinalSort{Keys: []SortKey{{Col: 0}, {Col: 1, Desc: true}}},
			&FinalLimit{N: 5},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	enc := EncodePlan(p)
	dec, err := DecodePlan(enc)
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	if dec.String() != p.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", dec.String(), p.String())
	}
	if !bytes.Equal(EncodePlan(dec), enc) {
		t.Fatal("scan/exchange identifiers differ after round trip")
	}
}

func TestPlanValidation(t *testing.T) {
	cases := []*Plan{
		{Root: nil},
		{Root: &ScanNode{Relation: ""}},
		{Root: &RehashNode{Keys: nil, Child: &ScanNode{Relation: "R"}}},
		{Root: &JoinNode{LeftKeys: []int{0}, RightKeys: []int{0, 1},
			Left: &ScanNode{Relation: "R"}, Right: &ScanNode{Relation: "S"}}},
		{Root: &AggNode{GroupCols: []int{0}, Child: &ScanNode{Relation: "R"}}},
	}
	for i, p := range cases {
		if err := p.Finalize(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// --- randomized consistency (property) test ---

func TestRandomizedQueriesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	h := newHarness(t, 5)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(42))
	h.publish("R", genR(300, rng))
	h.publish("S", genS(90, rng))

	for trial := 0; trial < 8; trial++ {
		var p *Plan
		switch trial % 4 {
		case 0:
			p = &Plan{Root: &SelectNode{
				Pred:  B(OpLt, C(0), CI(int64(rng.Intn(300)))),
				Child: &ScanNode{Relation: "R"},
			}}
		case 1:
			p = &Plan{Root: &JoinNode{
				LeftKeys:  []int{1},
				RightKeys: []int{0},
				Left:      &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R"}},
				Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
			}}
		case 2:
			p = &Plan{Root: &ProjectNode{Cols: []int{1}, Child: &ScanNode{Relation: "S"}}}
		case 3:
			p = &Plan{Root: &ComputeNode{
				Exprs: []Expr{B(OpMul, C(0), CI(3)), C(1)},
				Child: &ScanNode{Relation: "R"},
			}}
		}
		// Both answers are checked against the reference, so each random
		// plan also proves batches with a provenance vector ≡ without.
		initiator := rng.Intn(5)
		for _, prov := range []bool{false, true} {
			h.runFrom(initiator, p, Options{Provenance: prov})
		}
	}
}

// KeyPredOf adapts a cluster.KeyPred for ScanNode.Pred (both share the
// cluster type; helper exists for test readability).
func KeyPredOf(p cluster.KeyPred) cluster.KeyPred { return p }

// --- failure & recovery tests ---

// failureHarness publishes join-shaped data and returns the plan used by
// recovery tests.
func failurePlan() *Plan {
	return &Plan{Root: &JoinNode{
		LeftKeys:  []int{1},
		RightKeys: []int{0},
		Left:      &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R"}},
		Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
	}}
}

func TestIncrementalRecoveryAfterFailure(t *testing.T) {
	for _, delay := range []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond} {
		t.Run(fmt.Sprintf("delay=%s", delay), func(t *testing.T) {
			h := newHarness(t, 6)
			h.create(schemaR())
			h.create(schemaS())
			rng := rand.New(rand.NewSource(21))
			h.publish("R", genR(600, rng))
			h.publish("S", genS(150, rng))

			p := failurePlan()
			if err := p.Finalize(); err != nil {
				t.Fatal(err)
			}
			victim := h.local.Node(3).ID() // never the initiator (node 0)
			go func() {
				time.Sleep(delay)
				h.local.Kill(victim)
			}()
			res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverIncremental})
			if err != nil {
				t.Fatalf("Run with recovery: %v", err)
			}
			h.check(p, res)
		})
	}
}

func TestRestartRecoveryAfterFailure(t *testing.T) {
	h := newHarness(t, 6)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(22))
	h.publish("R", genR(500, rng))
	h.publish("S", genS(120, rng))

	p := failurePlan()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	victim := h.local.Node(4).ID()
	go func() {
		time.Sleep(2 * time.Millisecond)
		h.local.Kill(victim)
	}()
	res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverRestart})
	if err != nil {
		t.Fatalf("Run with restart: %v", err)
	}
	h.check(p, res)
}

func TestFailModeSurfacesError(t *testing.T) {
	h := newHarness(t, 5)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(23))
	h.publish("R", genR(2000, rng))
	h.publish("S", genS(400, rng))

	p := failurePlan()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Kill before starting so the failure is guaranteed to hit the query.
	h.local.Kill(h.local.Node(2).ID())
	_, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverFail})
	if err == nil {
		t.Fatal("expected failure error")
	}
}

func TestRecoveryWithAggregation(t *testing.T) {
	h := newHarness(t, 6)
	h.create(schemaS())
	h.publish("S", genS(800, rand.New(rand.NewSource(24))))
	specs := []AggSpec{{Func: AggCount, Col: -1}, {Func: AggSum, Col: 0}}
	p := &Plan{Root: &AggNode{
		GroupCols: []int{1},
		Aggs:      specs,
		Mode:      AggComplete,
		Child:     &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "S"}},
	}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	victim := h.local.Node(2).ID()
	go func() {
		time.Sleep(time.Millisecond)
		h.local.Kill(victim)
	}()
	res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverIncremental})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := refAggregate([]int{1}, specs, h.data["S"])
	if !rowsEqual(res.Batch.Rows(), want) {
		t.Fatalf("aggregate after recovery: %s", diffSummary(res.Batch.Rows(), want))
	}
}

func TestRecoveryKillBeforeStart(t *testing.T) {
	h := newHarness(t, 6)
	h.create(schemaR())
	h.publish("R", genR(300, rand.New(rand.NewSource(25))))
	p := &Plan{Root: &ScanNode{Relation: "R"}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	// The snapshot still contains the dead node; prepare fails, and restart
	// mode retries on the survivors.
	h.local.Kill(h.local.Node(5).ID())
	res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverRestart})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Restarts == 0 {
		t.Fatal("expected at least one restart")
	}
	h.check(p, res)
}

func TestRecoveryTwoFailures(t *testing.T) {
	h := newHarness(t, 8)
	h.create(schemaR())
	h.create(schemaS())
	rng := rand.New(rand.NewSource(26))
	h.publish("R", genR(800, rng))
	h.publish("S", genS(200, rng))

	p := failurePlan()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	v1, v2 := h.local.Node(3).ID(), h.local.Node(6).ID()
	go func() {
		time.Sleep(time.Millisecond)
		h.local.Kill(v1)
		time.Sleep(4 * time.Millisecond)
		h.local.Kill(v2)
	}()
	res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverIncremental})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h.check(p, res)
}

func TestRecoveryRepeatedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Repeated independent runs with a mid-query kill at varying offsets;
	// every run must produce exactly the reference answer (complete and
	// duplicate-free), which exercises phase/race handling.
	for i := 0; i < 5; i++ {
		t.Run(fmt.Sprintf("run%d", i), func(t *testing.T) {
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
			go func() {
				time.Sleep(time.Duration(i) * time.Millisecond)
				h.local.Kill(victim)
			}()
			res, err := h.engines[0].Run(h.ctx(), p, Options{Recovery: RecoverIncremental})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			h.check(p, res)
		})
	}
}

// --- membership-change (arrival) test ---

func TestNodeArrivalDoesNotDisturbData(t *testing.T) {
	h := newHarness(t, 4)
	h.create(schemaR())
	h.publish("R", genR(300, rand.New(rand.NewSource(27))))

	node, err := h.local.AddNode(h.ctx())
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	eng := New(node)
	h.engines = append(h.engines, eng)

	// A fresh query (new snapshot) includes the new node and still returns
	// the complete data set.
	p := &Plan{Root: &ScanNode{Relation: "R"}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(h.ctx(), p, Options{})
	if err != nil {
		t.Fatalf("Run from new node: %v", err)
	}
	h.check(p, res)
	if len(res.Stats) != 5 {
		t.Fatalf("stats from %d nodes, want 5", len(res.Stats))
	}
}
