package engine

// One-time compilation of Expr trees into vector kernels. The interpreted
// Expr.Eval walks the tree per row, re-dispatching on node and operator
// kinds for every tuple; it is the specification, and nothing on the
// execution path calls it. A query's expressions are compiled once into
// two mutually recursive forms over the column vectors of a tuple.Batch:
// a value form (vecFn: one typed vector out, operand types dispatched once
// per batch) and a predicate form (batchPredFn: a selection Bitset out,
// with AND/OR/NOT as bitset combinators over one comparison leaf). A
// sub-expression without a column reference stays a single value — a
// literal is never broadcast to feed a kernel. Both forms agree exactly
// with Expr.Eval, row by row (property-tested in compile_test.go), and a
// result's type is a function of its operand column types alone.

import (
	"fmt"
	"slices"

	"orchestra/internal/tuple"
)

// operand is the value of a sub-expression over one batch: one value per
// row or, for a constant, a vector of one standing for every row.
type operand struct {
	tuple.ColVec
	konst    bool
	borrowed bool // the vector is a column of the input batch: read-only
}

// mask turns a row number into an index of the operand's vector: i&mask is
// i for a full vector and 0 for a constant.
func (o *operand) mask() int {
	if o.konst {
		return 0
	}
	return -1
}

func konstOf(v tuple.Value) operand {
	o := operand{ColVec: tuple.ColVec{T: v.T}, konst: true}
	switch v.T {
	case tuple.Int64:
		o.I64 = []int64{v.I64}
	case tuple.Float64:
		o.F64 = []float64{v.F64}
	case tuple.String:
		o.Str = []string{v.Str}
	}
	return o
}

// floats reads the operand as Value.AsFloat does: integers converted,
// anything non-numeric zero.
func (o *operand) floats() ([]float64, int) {
	switch o.T {
	case tuple.Float64:
		return o.F64, o.mask()
	case tuple.Int64:
		out := make([]float64, len(o.I64))
		for i, x := range o.I64 {
			out[i] = float64(x)
		}
		return out, o.mask()
	}
	return []float64{0}, 0
}

// strings reads the operand as Value.String does.
func (o *operand) strings() ([]string, int) {
	if o.T == tuple.String {
		return o.Str, o.mask()
	}
	if !o.T.IsValidType() {
		return []string{tuple.Value{}.String()}, 0
	}
	out := make([]string, o.Len())
	for i := range out {
		out[i] = o.Value(i).String()
	}
	return out, o.mask()
}

// column returns the operand as an owned vector of n values: a computed
// vector as it is, a borrowed column copied, a constant repeated.
func (o *operand) column(n int) tuple.ColVec {
	if !o.konst && !o.borrowed {
		return o.ColVec
	}
	return o.fill(tuple.ColVec{}, n)
}

// fill writes the operand's n values into dst, reusing its capacity, and
// returns the filled vector.
func (o *operand) fill(dst tuple.ColVec, n int) tuple.ColVec {
	m := o.mask()
	dst.T = o.T
	switch o.T {
	case tuple.Int64:
		dst.I64 = spread(dst.I64, o.I64, m, n)
	case tuple.Float64:
		dst.F64 = spread(dst.F64, o.F64, m, n)
	case tuple.String:
		dst.Str = spread(dst.Str, o.Str, m, n)
	}
	return dst
}

func spread[T any](dst, xs []T, m, n int) []T {
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = xs[i&m]
	}
	return dst
}

// vecFn evaluates a compiled expression over the columns of a batch.
// Implementations are pure and safe for concurrent use (operators can be
// pushed to from several goroutines).
type vecFn func(b *tuple.Batch) operand

// batchPredFn marks the rows of b that satisfy a predicate in sel. sel
// must be zeroed and sized for b.N bits. Pure, like vecFn.
type batchPredFn func(b *tuple.Batch, sel Bitset)

// opWants maps a comparison operator to the Value.Cmp outcomes it accepts,
// indexed by outcome+1.
func opWants(op OpCode) [3]bool {
	return [3]bool{
		op == OpNe || op == OpLt || op == OpLe,
		op == OpEq || op == OpLe || op == OpGe,
		op == OpNe || op == OpGt || op == OpGe,
	}
}

func isCmp(op OpCode) bool { return op >= OpEq && op <= OpGe }

// cmpNum orders two values exactly as Value.Cmp orders two of one type,
// including its NaN-compares-equal quirk (neither < nor > holds, so the
// switch answers 0).
func cmpNum[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compileVec builds the value form of e.
func compileVec(e Expr) vecFn {
	switch t := e.(type) {
	case Col:
		idx := t.Idx
		return func(b *tuple.Batch) operand { return operand{ColVec: b.Cols[idx], borrowed: true} }
	case Const:
		k := konstOf(t.Val)
		return func(*tuple.Batch) operand { return k }
	case Not:
		return predValue(compileBatchPred(t))
	case Bin:
		if isCmp(t.Op) || t.Op == OpAnd || t.Op == OpOr {
			return predValue(compileBatchPred(t))
		}
		op, l, r := t.Op, compileVec(t.L), compileVec(t.R)
		return func(b *tuple.Batch) operand { return binValue(op, l(b), r(b), b.N) }
	}
	panic(fmt.Sprintf("engine: cannot compile expression %T", e))
}

// compileVecs compiles a list of expressions.
func compileVecs(exprs []Expr) []vecFn {
	out := make([]vecFn, len(exprs))
	for i, e := range exprs {
		out[i] = compileVec(e)
	}
	return out
}

// predValue is the value of a boolean node: 1 where the predicate holds.
func predValue(p batchPredFn) vecFn {
	return func(b *tuple.Batch) operand {
		sel := NewBitset(b.N)
		p(b, sel)
		out := make([]int64, b.N)
		for i := range out {
			if sel.Has(i) {
				out[i] = 1
			}
		}
		return operand{ColVec: tuple.ColVec{T: tuple.Int64, I64: out}}
	}
}

// binValue evaluates Concat and the arithmetic operators (everything
// Bin.Eval handles after its comparison block) over n rows. Two constants
// make a constant.
func binValue(op OpCode, l, r operand, n int) operand {
	out := operand{konst: l.konst && r.konst}
	if out.konst {
		n = 1
	}
	switch {
	case op == OpConcat:
		ls, lm := l.strings()
		rs, rm := r.strings()
		out.T, out.Str = tuple.String, make([]string, n)
		for i := range out.Str {
			out.Str[i] = ls[i&lm] + rs[i&rm]
		}
	case op < OpAdd || op > OpDiv:
		return konstOf(tuple.I(0)) // unknown operator: Bin.Eval answers I(0)
	case l.T == tuple.Int64 && r.T == tuple.Int64:
		out.T, out.I64 = tuple.Int64, arith(op, l.I64, r.I64, l.mask(), r.mask(), n)
	default:
		lf, lm := l.floats()
		rf, rm := r.floats()
		out.T, out.F64 = tuple.Float64, arith(op, lf, rf, lm, rm, n)
	}
	return out
}

// arith is the one arithmetic loop; division by zero answers zero.
func arith[T int64 | float64](op OpCode, l, r []T, lm, rm, n int) []T {
	out := make([]T, n)
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = l[i&lm] + r[i&rm]
		}
	case OpSub:
		for i := range out {
			out[i] = l[i&lm] - r[i&rm]
		}
	case OpMul:
		for i := range out {
			out[i] = l[i&lm] * r[i&rm]
		}
	case OpDiv:
		for i := range out {
			if d := r[i&rm]; d != 0 {
				out[i] = l[i&lm] / d
			}
		}
	}
	return out
}

// compileBatchPred builds the predicate form of e (truth of its value).
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
		case t.Op == OpAnd || t.Op == OpOr:
			and, l, r := t.Op == OpAnd, compileBatchPred(t.L), compileBatchPred(t.R)
			return func(b *tuple.Batch, sel Bitset) {
				l(b, sel)
				scratch := NewBitset(b.N)
				r(b, scratch)
				if and {
					sel.AndWith(scratch)
				} else {
					sel.OrWith(scratch)
				}
			}
		case isCmp(t.Op):
			want, l, r := opWants(t.Op), compileVec(t.L), compileVec(t.R)
			return func(b *tuple.Batch, sel Bitset) { cmpInto(sel, want, l(b), r(b), b.N) }
		}
	}
	v := compileVec(e)
	return func(b *tuple.Batch, sel Bitset) {
		o := v(b)
		switch o.T {
		case tuple.Int64:
			nonZeroInto(sel, o.I64, o.mask(), b.N)
		case tuple.Float64:
			nonZeroInto(sel, o.F64, o.mask(), b.N)
		case tuple.String:
			nonZeroInto(sel, o.Str, o.mask(), b.N)
		}
	}
}

// nonZeroInto marks the rows whose value is true (nonzero / nonempty).
func nonZeroInto[T comparable](sel Bitset, xs []T, m, n int) {
	var zero T
	for i := 0; i < n; i++ {
		if xs[i&m] != zero {
			sel.Set(i)
		}
	}
}

// cmpInto is the comparison leaf: it marks the rows where l <op> r holds,
// either side a vector or a constant, exactly as Value.Cmp orders them.
func cmpInto(sel Bitset, want [3]bool, l, r operand, n int) {
	numeric := func(t tuple.Type) bool { return t == tuple.Int64 || t == tuple.Float64 }
	switch {
	case l.T == tuple.Int64 && r.T == tuple.Int64:
		cmpLoop(sel, want, l.I64, r.I64, l.mask(), r.mask(), n)
	case numeric(l.T) && numeric(r.T):
		lf, lm := l.floats()
		rf, rm := r.floats()
		cmpLoop(sel, want, lf, rf, lm, rm, n)
	case l.T == tuple.String && r.T == tuple.String:
		cmpLoop(sel, want, l.Str, r.Str, l.mask(), r.mask(), n)
	default:
		// Value.Cmp orders values of different (or invalid) types by type
		// tag alone, so the outcome is uniform across the batch.
		if want[tuple.Value{T: l.T}.Cmp(tuple.Value{T: r.T})+1] {
			sel.SetFirst(n)
		}
	}
}

func cmpLoop[T int64 | float64 | string](sel Bitset, want [3]bool, l, r []T, lm, rm, n int) {
	for i := 0; i < n; i++ {
		if want[cmpNum(l[i&lm], r[i&rm])+1] {
			sel.Set(i)
		}
	}
}

// computeCols evaluates one vector per output expression into a fresh
// batch. An expression with no type (an invalid literal) cannot form a
// column.
func computeCols(fns []vecFn, b *tuple.Batch) (*tuple.Batch, error) {
	out := &tuple.Batch{}
	if b.N == 0 {
		return out, nil
	}
	out.N, out.Cols = b.N, make([]tuple.ColVec, len(fns))
	for j, fn := range fns {
		v := fn(b)
		if !v.T.IsValidType() {
			return nil, fmt.Errorf("engine: compute: column %d has invalid type", j)
		}
		out.Cols[j] = v.column(b.N)
	}
	return out, nil
}
