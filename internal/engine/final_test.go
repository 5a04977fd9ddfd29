package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"orchestra/internal/tuple"
)

// The final pipeline (finalPipeline.apply) must agree exactly with the
// row-at-a-time reference (refFinalOps) — including NaN ordering in sorts,
// integer preservation in aggregate merges, and limit truncation points.

// valueKey renders a value for exact comparison: Value.Equal treats NaN
// as equal to everything (the Cmp quirk), so compare bit patterns.
func valueKey(v tuple.Value) string {
	switch v.T {
	case tuple.Int64:
		return fmt.Sprintf("i%d", v.I64)
	case tuple.Float64:
		return fmt.Sprintf("f%016x", math.Float64bits(v.F64))
	case tuple.String:
		return "s" + v.Str
	}
	return "?"
}

func rowKey(r tuple.Row) string {
	s := ""
	for _, v := range r {
		s += valueKey(v) + "|"
	}
	return s
}

func rowKeys(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	return out
}

// randRows builds rows over the fixed (int, float, string) shape, with
// NaN/Inf floats and duplicate values mixed in.
func randRows(rng *rand.Rand, n int) []tuple.Row {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0, 1.5}
	rows := make([]tuple.Row, n)
	for i := range rows {
		f := rng.Float64() * 100
		if rng.Intn(4) == 0 {
			f = specials[rng.Intn(len(specials))]
		}
		rows[i] = tuple.Row{
			tuple.I(int64(rng.Intn(20) - 10)),
			tuple.F(f),
			tuple.S(fmt.Sprintf("s%02d", rng.Intn(12))),
		}
	}
	return rows
}

func batchOfRows(t *testing.T, rows []tuple.Row) *tuple.Batch {
	t.Helper()
	b := &tuple.Batch{}
	if len(rows) == 0 {
		b.ResetTypes([]tuple.Type{tuple.Int64, tuple.Float64, tuple.String})
		return b
	}
	types := make([]tuple.Type, len(rows[0]))
	for i, v := range rows[0] {
		types[i] = v.T
	}
	b.ResetTypes(types)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	return b
}

func cloneRows(rows []tuple.Row) []tuple.Row {
	out := make([]tuple.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

// randFinalOps builds a random non-agg pipeline (sort/compute/limit);
// these preserve deterministic row order, so outputs compare exactly.
func randFinalOps(rng *rand.Rand, arity int) []FinalOp {
	var ops []FinalOp
	for n := rng.Intn(4); len(ops) < n; {
		switch rng.Intn(3) {
		case 0:
			keys := []SortKey{{Col: rng.Intn(arity), Desc: rng.Intn(2) == 0}}
			if rng.Intn(2) == 0 {
				keys = append(keys, SortKey{Col: rng.Intn(arity), Desc: rng.Intn(2) == 0})
			}
			ops = append(ops, &FinalSort{Keys: keys})
		case 1:
			exprs := []Expr{
				Col{Idx: rng.Intn(arity)},
				Bin{Op: OpAdd, L: Col{Idx: 0}, R: Const{Val: tuple.I(int64(rng.Intn(5)))}},
			}
			if rng.Intn(2) == 0 {
				exprs = append(exprs, Bin{Op: OpMul, L: Col{Idx: 1}, R: Const{Val: tuple.F(2)}})
			}
			ops = append(ops, &FinalCompute{Exprs: exprs})
			arity = len(exprs)
		case 2:
			ops = append(ops, &FinalLimit{N: rng.Intn(40)})
		}
	}
	return ops
}

// checkFinalOps runs ops through the batch pipeline and the reference and
// compares bit-exact, in order or (for map-ordered aggregates) as sets.
func checkFinalOps(t *testing.T, round int, ops []FinalOp, rows []tuple.Row, ordered bool) {
	t.Helper()
	want, err := refFinalOps(ops, cloneRows(rows))
	if err != nil {
		t.Fatalf("round %d: reference: %v", round, err)
	}
	fin, err := compileFinal(ops)
	if err != nil {
		t.Fatalf("round %d ops %v: %v", round, ops, err)
	}
	b, err := fin.apply(batchOfRows(t, rows))
	if err != nil {
		t.Fatalf("round %d ops %v: %v", round, ops, err)
	}
	wantK, gotK := rowKeys(want), rowKeys(b.Rows())
	if !ordered {
		sort.Strings(wantK)
		sort.Strings(gotK)
	}
	if len(wantK) != len(gotK) {
		t.Fatalf("round %d ops %v: reference %d rows, got %d", round, ops, len(wantK), len(gotK))
	}
	for i := range wantK {
		if wantK[i] != gotK[i] {
			t.Fatalf("round %d ops %v: row %d differs:\n want: %s\n got:  %s", round, ops, i, wantK[i], gotK[i])
		}
	}
}

func TestFinalOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		checkFinalOps(t, round, randFinalOps(rng, 3), randRows(rng, rng.Intn(60)), true)
	}
}

// TestFinalAggMatchesReference feeds partial-layout aggregate rows through
// the merge. A round's sum column is integral or float throughout, as a
// schema-typed column is.
func TestFinalAggMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := []AggSpec{
		{Func: AggCount, Col: -1},
		{Func: AggSum, Col: 1},
		{Func: AggMin, Col: 1},
		{Func: AggMax, Col: 1},
		{Func: AggAvg, Col: 1},
	}
	for round := 0; round < 100; round++ {
		// Partial layout: group col, then count, sum, min, max, avg-sum,
		// avg-count.
		floatSum := round%3 == 0
		rows := make([]tuple.Row, 1+rng.Intn(50))
		for i := range rows {
			sum := tuple.Value(tuple.I(int64(rng.Intn(100))))
			if floatSum {
				sum = tuple.F(rng.Float64() * 10)
			}
			rows[i] = tuple.Row{
				tuple.I(int64(rng.Intn(6))),
				tuple.I(int64(rng.Intn(10))),
				sum,
				tuple.F(rng.Float64()),
				tuple.F(rng.Float64()),
				tuple.F(rng.Float64() * 5),
				tuple.I(int64(1 + rng.Intn(4))),
			}
		}
		checkFinalOps(t, round, []FinalOp{&FinalAgg{GroupCols: []int{0}, Aggs: specs}}, rows, false)
	}
}

// TestFinalComputeNoPerRowAlloc pins FinalCompute's allocation shape: the
// output vectors are sized once, never one allocation per row.
func TestFinalComputeNoPerRowAlloc(t *testing.T) {
	rows := make([]tuple.Row, 4096)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.F(float64(i))}
	}
	b := batchOfRows(t, rows)
	fin, err := compileFinal([]FinalOp{&FinalCompute{Exprs: []Expr{
		Col{Idx: 0},
		Bin{Op: OpAdd, L: Col{Idx: 0}, R: Const{Val: tuple.I(7)}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := fin.apply(b); err != nil {
			t.Fatal(err)
		}
	})
	// The output vectors; anything near len(rows) means a per-row
	// allocation crept in.
	if allocs > 64 {
		t.Fatalf("FinalCompute allocations per run = %.0f, want O(1), not O(rows)", allocs)
	}
}

// TestLimitOnlyFinalDetection pins the pushdown predicate.
func TestLimitOnlyFinalDetection(t *testing.T) {
	cases := []struct {
		ops  []FinalOp
		want int
	}{
		{nil, -1},
		{[]FinalOp{&FinalLimit{N: 10}}, 10},
		{[]FinalOp{&FinalLimit{N: 10}, &FinalLimit{N: 3}}, 3},
		{[]FinalOp{&FinalSort{Keys: []SortKey{{Col: 0}}}, &FinalLimit{N: 10}}, -1},
		{[]FinalOp{&FinalLimit{N: 5}, &FinalCompute{Exprs: []Expr{Col{Idx: 0}}}}, -1},
	}
	for i, c := range cases {
		if got := limitOnlyFinal(c.ops); got != c.want {
			t.Fatalf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}
