package engine

// One-time compilation of Expr trees into closure-based evaluators. The
// interpreted Expr.Eval walks the tree per row, re-dispatching on node and
// operator kinds for every tuple; the scan path instead compiles each
// query's expressions once into closures with the dispatch hoisted out —
// a scalar form (per row, for compute), a boolean predicate form (its
// short-circuiting AND/OR/NOT), and a batch form (select operators) that
// evaluates a predicate over the column vectors of a tuple.Batch into a
// selection Bitset. All three forms agree exactly with Expr.Eval, including
// on zero/invalid values (property-tested in compile_test.go).

import (
	"strings"

	"orchestra/internal/tuple"
)

// evalFn is a compiled scalar expression.
type evalFn func(tuple.Row) tuple.Value

// predFn is a compiled boolean predicate.
type predFn func(tuple.Row) bool

// batchPredFn marks the rows of b that satisfy a predicate in sel. sel
// must be zeroed and sized for b.N bits. Implementations are pure and safe
// for concurrent use (operators can be pushed to from several goroutines).
type batchPredFn func(b *tuple.Batch, sel Bitset)

// opWants maps a comparison operator to the Cmp outcomes it accepts.
func opWants(op OpCode) (lt, eq, gt bool) {
	switch op {
	case OpEq:
		return false, true, false
	case OpNe:
		return true, false, true
	case OpLt:
		return true, false, false
	case OpLe:
		return true, true, false
	case OpGt:
		return false, false, true
	case OpGe:
		return false, true, true
	}
	return false, false, false
}

func isCmp(op OpCode) bool { return op >= OpEq && op <= OpGe }

// cmpNum orders two numbers exactly as Value.Cmp does, including its
// NaN-compares-equal quirk (neither < nor > holds, so the switch answers 0).
func cmpNum[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compileExpr builds the scalar evaluator for e.
func compileExpr(e Expr) evalFn {
	switch t := e.(type) {
	case Col:
		idx := t.Idx
		return func(row tuple.Row) tuple.Value { return row[idx] }
	case Const:
		v := t.Val
		return func(tuple.Row) tuple.Value { return v }
	case Not:
		p := compilePred(t.E)
		return func(row tuple.Row) tuple.Value { return boolVal(!p(row)) }
	case Bin:
		if isCmp(t.Op) || t.Op == OpAnd || t.Op == OpOr {
			p := compilePred(t)
			return func(row tuple.Row) tuple.Value { return boolVal(p(row)) }
		}
		return compileArith(t)
	default:
		return e.Eval // unknown node kinds keep interpreted semantics
	}
}

// compileArith compiles Concat and the arithmetic operators (everything
// Bin.Eval handles after its comparison block).
func compileArith(b Bin) evalFn {
	l, r := compileExpr(b.L), compileExpr(b.R)
	switch b.Op {
	case OpConcat:
		return func(row tuple.Row) tuple.Value {
			return tuple.S(l(row).String() + r(row).String())
		}
	case OpAdd:
		return func(row tuple.Row) tuple.Value {
			lv, rv := l(row), r(row)
			if lv.T == tuple.Int64 && rv.T == tuple.Int64 {
				return tuple.I(lv.I64 + rv.I64)
			}
			return tuple.F(lv.AsFloat() + rv.AsFloat())
		}
	case OpSub:
		return func(row tuple.Row) tuple.Value {
			lv, rv := l(row), r(row)
			if lv.T == tuple.Int64 && rv.T == tuple.Int64 {
				return tuple.I(lv.I64 - rv.I64)
			}
			return tuple.F(lv.AsFloat() - rv.AsFloat())
		}
	case OpMul:
		return func(row tuple.Row) tuple.Value {
			lv, rv := l(row), r(row)
			if lv.T == tuple.Int64 && rv.T == tuple.Int64 {
				return tuple.I(lv.I64 * rv.I64)
			}
			return tuple.F(lv.AsFloat() * rv.AsFloat())
		}
	case OpDiv:
		return func(row tuple.Row) tuple.Value {
			lv, rv := l(row), r(row)
			if lv.T == tuple.Int64 && rv.T == tuple.Int64 {
				if rv.I64 == 0 {
					return tuple.I(0)
				}
				return tuple.I(lv.I64 / rv.I64)
			}
			rf := rv.AsFloat()
			if rf == 0 {
				return tuple.F(0)
			}
			return tuple.F(lv.AsFloat() / rf)
		}
	default:
		// Unknown operator: Bin.Eval answers I(0).
		return func(tuple.Row) tuple.Value { return tuple.I(0) }
	}
}

// compilePred builds the boolean evaluator for e (truth of its value).
func compilePred(e Expr) predFn {
	switch t := e.(type) {
	case Not:
		p := compilePred(t.E)
		return func(row tuple.Row) bool { return !p(row) }
	case Bin:
		switch {
		case t.Op == OpAnd:
			l, r := compilePred(t.L), compilePred(t.R)
			return func(row tuple.Row) bool { return l(row) && r(row) }
		case t.Op == OpOr:
			l, r := compilePred(t.L), compilePred(t.R)
			return func(row tuple.Row) bool { return l(row) || r(row) }
		case isCmp(t.Op):
			return compileCmpPred(t)
		}
	}
	f := compileExpr(e)
	return func(row tuple.Row) bool { return truth(f(row)) }
}

// compileCmpPred compiles a comparison over two scalar sub-expressions. (The
// dominant column-vs-literal filter never reaches it: the select operator
// runs compileBatchPred, which vectorizes that shape.)
func compileCmpPred(b Bin) predFn {
	lt, eq, gt := opWants(b.Op)
	l, r := compileExpr(b.L), compileExpr(b.R)
	return func(row tuple.Row) bool {
		c := l(row).Cmp(r(row))
		return (c < 0 && lt) || (c == 0 && eq) || (c > 0 && gt)
	}
}

// compileBatchPred builds the vectorized evaluator for e: it marks passing
// rows in a selection bitset, running tight loops over typed column
// vectors for the common shapes and falling back to the compiled scalar
// predicate over a reused row view otherwise.
func compileBatchPred(e Expr) batchPredFn {
	switch t := e.(type) {
	case Not:
		inner := compileBatchPred(t.E)
		return func(b *tuple.Batch, sel Bitset) {
			inner(b, sel)
			sel.FlipFirst(b.N)
		}
	case Bin:
		switch {
		case t.Op == OpAnd:
			l, r := compileBatchPred(t.L), compileBatchPred(t.R)
			return func(b *tuple.Batch, sel Bitset) {
				l(b, sel)
				scratch := NewBitset(b.N)
				r(b, scratch)
				sel.AndWith(scratch)
			}
		case t.Op == OpOr:
			l, r := compileBatchPred(t.L), compileBatchPred(t.R)
			return func(b *tuple.Batch, sel Bitset) {
				l(b, sel)
				scratch := NewBitset(b.N)
				r(b, scratch)
				sel.OrWith(scratch)
			}
		case isCmp(t.Op):
			if col, ok := t.L.(Col); ok {
				if cst, ok2 := t.R.(Const); ok2 {
					return compileBatchCmpColConst(t.Op, col.Idx, cst.Val)
				}
			}
		}
	}
	// Generic fallback: compiled scalar over a reused row view.
	p := compilePred(e)
	return func(b *tuple.Batch, sel Bitset) {
		row := make(tuple.Row, len(b.Cols))
		for i := 0; i < b.N; i++ {
			if p(b.Row(i, row)) {
				sel.Set(i)
			}
		}
	}
}

// compileBatchCmpColConst vectorizes `column <op> literal` over one typed
// vector. Column types can vary batch to batch in general pipelines, so
// the type dispatch happens once per batch, then the loop is tight.
func compileBatchCmpColConst(op OpCode, idx int, cv tuple.Value) batchPredFn {
	lt, eq, gt := opWants(op)
	return func(b *tuple.Batch, sel Bitset) {
		if idx >= len(b.Cols) {
			// Out-of-range column reference: preserve interpreted behavior
			// (a panic on evaluation), rather than silently selecting none.
			_ = b.Cols[idx]
		}
		v := &b.Cols[idx]
		n := b.N
		switch {
		case v.T == tuple.Int64 && cv.T == tuple.Int64:
			c := cv.I64
			for i, x := range v.I64[:n] {
				if (x < c && lt) || (x == c && eq) || (x > c && gt) {
					sel.Set(i)
				}
			}
		case v.T == tuple.Float64 && (cv.T == tuple.Float64 || cv.T == tuple.Int64):
			c := cv.AsFloat()
			for i, x := range v.F64[:n] {
				cmp := cmpNum(x, c)
				if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
					sel.Set(i)
				}
			}
		case v.T == tuple.Int64 && cv.T == tuple.Float64:
			c := cv.F64
			for i, x := range v.I64[:n] {
				cmp := cmpNum(float64(x), c)
				if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
					sel.Set(i)
				}
			}
		case v.T == tuple.String && cv.T == tuple.String:
			c := cv.Str
			for i, x := range v.Str[:n] {
				cmp := strings.Compare(x, c)
				if (cmp < 0 && lt) || (cmp == 0 && eq) || (cmp > 0 && gt) {
					sel.Set(i)
				}
			}
		default:
			// Cross-type, non-numeric comparison: Value.Cmp orders by type
			// tag alone, so the outcome is uniform across the column.
			if n > 0 && holdsUniform(v, cv, lt, eq, gt) {
				sel.SetFirst(n)
			}
		}
	}
}

// holdsUniform evaluates the type-tag-only comparison for a whole column.
func holdsUniform(v *tuple.ColVec, cv tuple.Value, lt, eq, gt bool) bool {
	c := v.Value(0).Cmp(cv)
	return (c < 0 && lt) || (c == 0 && eq) || (c > 0 && gt)
}

// compileExprs compiles a list of scalar expressions.
func compileExprs(exprs []Expr) []evalFn {
	out := make([]evalFn, len(exprs))
	for i, e := range exprs {
		out[i] = compileExpr(e)
	}
	return out
}
