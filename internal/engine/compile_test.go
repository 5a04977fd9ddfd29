package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"orchestra/internal/tuple"
)

// randValue draws a value of the given type; invalid (zero) values are
// mixed in by randRow, not here.
func randValue(rng *rand.Rand, t tuple.Type) tuple.Value {
	switch t {
	case tuple.Int64:
		return tuple.I(rng.Int63n(7) - 3)
	case tuple.Float64:
		switch rng.Intn(8) {
		case 0:
			return tuple.F(math.NaN())
		case 1:
			return tuple.F(math.Inf(1))
		case 2:
			return tuple.F(math.Copysign(0, -1))
		default:
			return tuple.F(float64(rng.Intn(7)-3) / 2)
		}
	default:
		return tuple.S(string(rune('a' + rng.Intn(4))))
	}
}

func randType(rng *rand.Rand) tuple.Type {
	return tuple.Type(rng.Intn(3) + 1)
}

// randExpr builds a random expression tree over arity columns.
func randExpr(rng *rand.Rand, arity, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return Col{Idx: rng.Intn(arity)}
		}
		if rng.Intn(8) == 0 {
			return Const{} // invalid literal: eval must still agree
		}
		return Const{Val: randValue(rng, randType(rng))}
	}
	if rng.Intn(6) == 0 {
		return Not{E: randExpr(rng, arity, depth-1)}
	}
	ops := []OpCode{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpConcat}
	return Bin{
		Op: ops[rng.Intn(len(ops))],
		L:  randExpr(rng, arity, depth-1),
		R:  randExpr(rng, arity, depth-1),
	}
}

func valueEqual(a, b tuple.Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == tuple.Float64 {
		if math.IsNaN(a.F64) && math.IsNaN(b.F64) {
			return true
		}
	}
	return a == b
}

// randBatch draws a typed batch — columns are type-homogeneous, as every
// operator edge carries them — and the same rows boxed, for eval.
func randBatch(rng *rand.Rand, arity, n int) (*tuple.Batch, []tuple.Row) {
	types := make([]tuple.Type, arity)
	for i := range types {
		types[i] = randType(rng)
	}
	b := &tuple.Batch{}
	b.ResetTypes(types)
	rows := make([]tuple.Row, n)
	for r := range rows {
		rows[r] = make(tuple.Row, arity)
		for c := range rows[r] {
			rows[r][c] = randValue(rng, types[c])
		}
		if err := b.AppendRow(rows[r]); err != nil {
			panic(err)
		}
	}
	return b, rows
}

// checkVec holds the value form of e to eval, row by row: the vector
// kernel's values, and so the one type they share.
func checkVec(t *testing.T, e Expr, b *tuple.Batch, rows []tuple.Row) {
	t.Helper()
	o := compileVec(e)(b)
	col := o.column(b.N)
	for r, row := range rows {
		if got, want := col.Value(r), eval(e, row); !valueEqual(got, want) {
			t.Fatalf("%s over %v (row %d): kernel %v, interpreted %v", e, row, r, got, want)
		}
	}
}

// checkPred holds the predicate form of e to the truth of eval.
func checkPred(t *testing.T, e Expr, b *tuple.Batch, rows []tuple.Row) {
	t.Helper()
	sel := NewBitset(b.N)
	compileBatchPred(e)(b, sel)
	for r, row := range rows {
		if got, want := sel.Has(r), truth(eval(e, row)); got != want {
			t.Fatalf("pred %s over %v (row %d): kernel %v, interpreted %v", e, row, r, got, want)
		}
	}
}

func checkCompiled(t *testing.T, e Expr, b *tuple.Batch, rows []tuple.Row) {
	t.Helper()
	checkVec(t, e, b, rows)
	checkPred(t, e, b, rows)
}

// TestCompiledMatchesInterpreted is the compiled-vs-interpreted property
// test over random trees and random typed batches: every operator, NaN/Inf
// and -0 floats, int/float mixes, division by zero, string and cross-type
// comparisons, Concat, literals (invalid ones too) on either side.
func TestCompiledMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		arity := rng.Intn(4) + 1
		b, rows := randBatch(rng, arity, rng.Intn(130)) // cross the 64-bit word boundary sometimes
		checkCompiled(t, randExpr(rng, arity, 3), b, rows)
	}
}

// TestCompiledCmpShapes pins the comparison leaf against the interpreter
// for every operator and type pairing with the literal on either side,
// including the NaN-compares-equal quirk of Value.Cmp.
func TestCompiledCmpShapes(t *testing.T) {
	colVals := map[tuple.Type][]tuple.Value{
		tuple.Int64:   {tuple.I(-2), tuple.I(0), tuple.I(3)},
		tuple.Float64: {tuple.F(-1.5), tuple.F(0), tuple.F(2.5), tuple.F(math.NaN())},
		tuple.String:  {tuple.S(""), tuple.S("a"), tuple.S("b")},
	}
	consts := []tuple.Value{
		tuple.I(0), tuple.I(3), tuple.F(0), tuple.F(2.5), tuple.F(math.NaN()),
		tuple.S("a"), {},
	}
	ops := []OpCode{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for colType, vals := range colVals {
		b := &tuple.Batch{}
		b.ResetTypes([]tuple.Type{colType})
		rows := make([]tuple.Row, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Row{v}
			if err := b.AppendRow(rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, cv := range consts {
			for _, op := range ops {
				checkCompiled(t, Bin{Op: op, L: Col{Idx: 0}, R: Const{Val: cv}}, b, rows)
				checkCompiled(t, Bin{Op: op, L: Const{Val: cv}, R: Col{Idx: 0}}, b, rows)
			}
		}
	}
}

// TestComputeColsOwnsItsVectors: a bare column reference and a literal come
// out as fresh full vectors — the input batch is borrowed, and the answer's
// slabs are recycled under whatever still aliases them.
func TestComputeColsOwnsItsVectors(t *testing.T) {
	b := batchOfRows(t, []tuple.Row{{tuple.I(1), tuple.S("x")}, {tuple.I(2), tuple.S("y")}})
	out, err := computeCols(compileVecs([]Expr{C(0), CS("k"), B(OpAdd, CI(1), CI(2))}), b)
	if err != nil {
		t.Fatal(err)
	}
	b.Cols[0].I64[0] = 99
	want := []tuple.Row{{tuple.I(1), tuple.S("k"), tuple.I(3)}, {tuple.I(2), tuple.S("k"), tuple.I(3)}}
	if got := out.Rows(); !rowsEqual(got, want) {
		t.Fatalf("computeCols: %s", diffSummary(got, want))
	}
	if _, err := computeCols(compileVecs([]Expr{Const{}}), b); err == nil {
		t.Fatal("an untyped literal formed a column")
	}
}

func TestBitsetOps(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		s := NewBitset(n)
		s.SetFirst(n)
		if got := s.Count(); got != n {
			t.Fatalf("SetFirst(%d).Count() = %d", n, got)
		}
		s.FlipFirst(n)
		if got := s.Count(); got != 0 {
			t.Fatalf("FlipFirst(%d) left %d bits", n, got)
		}
	}
	s := NewBitset(100)
	s.Set(3)
	s.Set(77)
	o := NewBitset(100)
	o.Set(77)
	o.Set(99)
	and := append(Bitset(nil), s...)
	and.AndWith(o)
	if and.Count() != 1 || !and.Has(77) {
		t.Fatalf("AndWith wrong: %v", and)
	}
	s.OrWith(o)
	if s.Count() != 3 || !s.Has(3) || !s.Has(77) || !s.Has(99) {
		t.Fatalf("OrWith wrong: %v", s)
	}
}

// fuzzCompiled cross-checks one compiled form against eval on a
// fuzz-derived expression shape and batch contents.
func fuzzCompiled(f *testing.F, check func(*testing.T, Expr, *tuple.Batch, []tuple.Row)) {
	f.Add(int64(1), int64(2))
	f.Add(int64(-9), int64(0))
	f.Fuzz(func(t *testing.T, seed, vseed int64) {
		b, rows := randBatch(rand.New(rand.NewSource(vseed)), 3, 1+int(uint64(vseed)%70))
		check(t, randExpr(rand.New(rand.NewSource(seed)), 3, 4), b, rows)
	})
}

func FuzzCompiledScalar(f *testing.F) { fuzzCompiled(f, checkVec) }
func FuzzCompiledPred(f *testing.F)   { fuzzCompiled(f, checkPred) }

var benchSink bool

// benchBatch is the reference 1 024-row (string, int, int) batch.
func benchBatch(b *testing.B) (*tuple.Batch, []tuple.Row) {
	rows := make([]tuple.Row, 1024)
	batch := &tuple.Batch{}
	for i := range rows {
		rows[i] = tuple.Row{tuple.S(fmt.Sprintf("k%06d", i)), tuple.I(int64(i % 17)), tuple.I(int64(i * 5))}
		if err := batch.AppendRow(rows[i]); err != nil {
			b.Fatal(err)
		}
	}
	return batch, rows
}

// BenchmarkPredicate compares interpreted and compiled predicate
// evaluation per row: the reference column-vs-literal filter shape, and a
// generic one (column vs column, arithmetic inside) through the same leaf.
func BenchmarkPredicate(b *testing.B) {
	pred := B(OpAnd, B(OpGe, C(2), CI(1000)), B(OpLt, C(2), CI(4000)))
	generic := B(OpAnd, B(OpLt, C(1), C(2)), B(OpGt, B(OpAdd, C(1), CI(1)), C(2)))
	batch, rows := benchBatch(b)
	b.Run("Interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = truth(eval(pred, rows[i%len(rows)]))
		}
	})
	for name, e := range map[string]Expr{"CompiledBatch": pred, "Generic": generic} {
		b.Run(name, func(b *testing.B) {
			bf := compileBatchPred(e)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch.N {
				sel := NewBitset(batch.N)
				bf(batch, sel)
				benchSink = sel.Has(0)
			}
		})
	}
}

// BenchmarkCompute evaluates three output expressions per row.
func BenchmarkCompute(b *testing.B) {
	fns := compileVecs([]Expr{C(0), B(OpAdd, C(2), CI(1)), B(OpMul, C(2), CI(2))})
	batch, _ := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch.N {
		out, err := computeCols(fns, batch)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out.N > 0
	}
}
