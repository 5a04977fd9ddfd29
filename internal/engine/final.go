package engine

import (
	"fmt"
	"sort"
	"strings"

	"orchestra/internal/tuple"
)

// Initiator-side final processing (§V-B: "All data is ultimately collected
// at the query initiator node, which may do final processing, such as the
// last stage of aggregation, or a final sort") runs over the batch the ship
// consumer accumulated: sort is an index permutation over the column
// vectors, limit is a truncation, compute and the aggregate merge evaluate
// into fresh vectors.

// applyFinalOps runs the final pipeline over a collected answer. The
// result is b itself (sorted or truncated in place) or a fresh batch.
func applyFinalOps(ops []FinalOp, b *tuple.Batch) (*tuple.Batch, error) {
	for _, op := range ops {
		var err error
		switch f := op.(type) {
		case *FinalAgg:
			b, err = mergeFinal(f.GroupCols, f.Aggs, b)
		case *FinalSort:
			sortCols(b, f.Keys)
		case *FinalCompute:
			b, err = computeCols(compileExprs(f.Exprs), b)
		case *FinalLimit:
			if b.N > f.N {
				b.Truncate(f.N)
			}
		default:
			err = fmt.Errorf("engine: unknown final op %T", op)
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// sortCols stably orders the batch by the sort keys via an index
// permutation: the comparator reads the column vectors directly (the
// per-key type dispatch is hoisted out of the comparison loop), then each
// vector is gathered once by the final permutation. Ordering matches
// Value.Cmp exactly — including its NaN-compares-equal float quirk — and a
// batch column is type-homogeneous, so no cross-type compares arise.
func sortCols(b *tuple.Batch, keys []SortKey) {
	if b.N < 2 {
		return
	}
	cmps := make([]func(i, j int) int, len(keys))
	for ki, k := range keys {
		v := &b.Cols[k.Col]
		switch v.T {
		case tuple.Int64:
			xs := v.I64
			cmps[ki] = func(i, j int) int { return cmpNum(xs[i], xs[j]) }
		case tuple.Float64:
			xs := v.F64
			cmps[ki] = func(i, j int) int { return cmpNum(xs[i], xs[j]) }
		case tuple.String:
			xs := v.Str
			cmps[ki] = func(i, j int) int { return strings.Compare(xs[i], xs[j]) }
		default:
			cmps[ki] = func(i, j int) int { return 0 }
		}
	}
	perm := make([]int, b.N)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, bb := perm[i], perm[j]
		for ki := range keys {
			c := cmps[ki](a, bb)
			if c == 0 {
				continue
			}
			if keys[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for c := range b.Cols {
		v := &b.Cols[c]
		switch v.T {
		case tuple.Int64:
			out := make([]int64, b.N)
			for i, p := range perm {
				out[i] = v.I64[p]
			}
			v.I64 = out
		case tuple.Float64:
			out := make([]float64, b.N)
			for i, p := range perm {
				out[i] = v.F64[p]
			}
			v.F64 = out
		case tuple.String:
			out := make([]string, b.N)
			for i, p := range perm {
				out[i] = v.Str[p]
			}
			v.Str = out
		}
	}
}

// computeCols evaluates compiled expressions over the batch into a fresh
// columnar batch, reading input rows through one reused scratch row. The
// first row fixes the output column types; a later row whose expression
// result changes type is an error naming the column — a column has one type.
func computeCols(fns []evalFn, b *tuple.Batch) (*tuple.Batch, error) {
	out := &tuple.Batch{}
	var scratch tuple.Row
	vals := make(tuple.Row, len(fns))
	for i := 0; i < b.N; i++ {
		scratch = b.Row(i, scratch)
		for j, fn := range fns {
			vals[j] = fn(scratch)
		}
		if err := out.AppendRow(vals); err != nil {
			return nil, fmt.Errorf("engine: compute, row %d: %w", i, err)
		}
		if i == 0 {
			out.Grow(b.N) // types are fixed now; size the vectors once
		}
	}
	return out, nil
}

// mergeFinal merges shipped partial aggregate rows (FinalAgg) straight off
// the columnar collection, reading through one reused scratch row.
func mergeFinal(groupCols []int, specs []AggSpec, b *tuple.Batch) (*tuple.Batch, error) {
	acc := newFinalAggAcc(groupCols, specs)
	acc.addBatch(b)
	return acc.batch()
}

// finalAggAcc accumulates the initiator-side merge of partial aggregate
// rows; add reads its row argument only during the call (group values are
// copied out), so callers may pass a reused scratch row.
type finalAggAcc struct {
	groupCols []int
	specs     []AggSpec
	groups    map[string]*finalAggGroup
	scratch   tuple.Row
}

type finalAggGroup struct {
	groupVals tuple.Row
	st        *aggState
}

func newFinalAggAcc(groupCols []int, specs []AggSpec) *finalAggAcc {
	return &finalAggAcc{groupCols: groupCols, specs: specs, groups: make(map[string]*finalAggGroup)}
}

// addBatch folds every row of b into the accumulator.
func (a *finalAggAcc) addBatch(b *tuple.Batch) {
	for i := 0; i < b.N; i++ {
		a.scratch = b.Row(i, a.scratch)
		a.add(a.scratch)
	}
}

func (a *finalAggAcc) add(row tuple.Row) {
	gk := string(tuple.EncodeKey(row, a.groupCols))
	g := a.groups[gk]
	if g == nil {
		g = &finalAggGroup{groupVals: row.Project(a.groupCols), st: newAggState(len(a.specs))}
		a.groups[gk] = g
	}
	// Partial layout: group cols, then per spec 1 col (2 for AVG).
	col := len(a.groupCols)
	for i, spec := range a.specs {
		v := row[col]
		switch spec.Func {
		case AggCount:
			g.st.counts[i] += v.AsInt()
			col++
		case AggSum:
			if v.T == tuple.Int64 {
				g.st.isums[i] += v.I64
				g.st.sums[i] += float64(v.I64)
			} else {
				g.st.allInt[i] = false
				g.st.sums[i] += v.F64
			}
			g.st.counts[i]++
			col++
		case AggMin:
			if g.st.counts[i] == 0 || v.Cmp(g.st.mins[i]) < 0 {
				g.st.mins[i] = v
			}
			g.st.counts[i]++
			col++
		case AggMax:
			if g.st.counts[i] == 0 || v.Cmp(g.st.maxs[i]) > 0 {
				g.st.maxs[i] = v
			}
			g.st.counts[i]++
			col++
		case AggAvg:
			g.st.sums[i] += v.AsFloat()
			g.st.counts[i] += row[col+1].AsInt()
			col += 2
		}
	}
}

// batch renders the merged groups. The first group fixes the output column
// types; a SUM that stayed integral in one group and went float in another
// is an error, as for any type-varying column.
func (a *finalAggAcc) batch() (*tuple.Batch, error) {
	out := &tuple.Batch{}
	var row tuple.Row
	for _, g := range a.groups {
		row = appendAggValues(append(row[:0], g.groupVals...), g.st, a.specs, true)
		if err := out.AppendRow(row); err != nil {
			return nil, fmt.Errorf("engine: final aggregate: %w", err)
		}
	}
	return out, nil
}
