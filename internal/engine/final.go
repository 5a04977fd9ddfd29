package engine

import (
	"fmt"
	"slices"
	"strings"

	"orchestra/internal/tuple"
)

// Initiator-side final processing (§V-B: "All data is ultimately collected
// at the query initiator node, which may do final processing, such as the
// last stage of aggregation, or a final sort") runs over the batch the ship
// consumer accumulated: sort is an index permutation over the column
// vectors, limit is a truncation, compute evaluates one vector per
// expression and the aggregate merge is the group table's fold.

// finalStage is one step of the final pipeline, with what compiling it once
// per query produced.
type finalStage struct {
	op        FinalOp
	compute   []vecFn // a FinalCompute's expressions
	remaining int     // rows a FinalLimit still lets through
}

// finalPipeline is a query's final operators, compiled once. apply runs
// them over one chunk of the answer: the whole collected answer, or — for
// a compute/limit-only pipeline — each chunk a streamed query drains.
// Compute is 1:1 and limit truncates a prefix, so applying the stages in
// order per chunk, each limit counting down across chunks, is equivalent to
// applying them once to the concatenated whole. One goroutine at a time.
type finalPipeline []finalStage

func compileFinal(ops []FinalOp) (finalPipeline, error) {
	p := make(finalPipeline, len(ops))
	for i, op := range ops {
		p[i].op = op
		switch f := op.(type) {
		case *FinalAgg, *FinalSort:
		case *FinalCompute:
			p[i].compute = compileVecs(f.Exprs)
		case *FinalLimit:
			p[i].remaining = f.N
		default:
			return nil, fmt.Errorf("engine: unknown final op %T", op)
		}
	}
	return p, nil
}

// apply returns the chunk's survivors: b itself (sorted or truncated in
// place) or a fresh batch.
func (p finalPipeline) apply(b *tuple.Batch) (*tuple.Batch, error) {
	for i := range p {
		var err error
		switch s := &p[i]; f := s.op.(type) {
		case *FinalAgg:
			t := newGroupTable(f.Aggs)
			err = f.foldInto(t, b)
			b = t.render(true)
		case *FinalSort:
			sortCols(b, f.Keys, nil)
		case *FinalCompute:
			b, err = computeCols(s.compute, b)
		case *FinalLimit:
			b.Truncate(max(0, min(b.N, s.remaining)))
			s.remaining -= b.N
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// foldInto merges a batch of shipped partial aggregate rows — the group
// columns, then each spec's partial state — into t.
func (f *FinalAgg) foldInto(t *groupTable, b *tuple.Batch) error {
	if b.N == 0 {
		return nil // possibly untyped: no group columns to read
	}
	_, err := t.fold(keyVecs(b, f.GroupCols), b, len(f.GroupCols))
	return err
}

// sortBuf is reusable working memory for sortCols: the permutation, and a
// spare batch the sorted rows are gathered into, which then trades vectors
// with the batch it sorted. A caller that sorts again and again (the top-K
// fragment) keeps one; nil sorts into fresh memory.
type sortBuf struct {
	perm  []int
	spare tuple.Batch
}

// sortCols stably orders the batch by the sort keys via an index
// permutation: the comparator reads the column vectors directly (the
// per-key type dispatch is hoisted out of the comparison loop), then each
// vector is gathered once by the final permutation. Ordering matches
// Value.Cmp exactly — including its NaN-compares-equal float quirk — and a
// batch column is type-homogeneous, so no cross-type compares arise.
func sortCols(b *tuple.Batch, keys []SortKey, buf *sortBuf) {
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
	if buf == nil {
		buf = &sortBuf{}
	}
	perm := slices.Grow(buf.perm[:0], b.N)[:b.N]
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, bb int) int {
		for ki := range keys {
			if c := cmps[ki](a, bb); c != 0 {
				if keys[ki].Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	sorted := &buf.spare
	sorted.ResetTypes(b.Types()) // keeps the spare's vector capacity
	if err := sorted.AppendRowsFrom(b, perm); err != nil {
		panic(err) // sorted has b's shape
	}
	*b, *sorted = *sorted, *b
	buf.perm = perm
}
