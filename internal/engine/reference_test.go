package engine

import (
	"fmt"
	"sort"

	"orchestra/internal/cluster"
	"orchestra/internal/tuple"
)

// refEval is a naive single-process evaluator used as the correctness
// oracle: every distributed execution must return exactly the multiset this
// produces (complete, duplicate-free answers are the paper's core claim).
func refEval(p *Plan, data map[string][]tuple.Row, schemas map[string]*tuple.Schema) ([]tuple.Row, error) {
	rows, err := refNode(p.Root, data, schemas)
	if err != nil {
		return nil, err
	}
	return refFinalOps(p.Final, rows)
}

// refFinalOps is the row-at-a-time final pipeline the batch one
// (finalPipeline.apply) is checked against: Value.Cmp stable sorts, Expr.Eval
// computes, a slice limit, and refMergeFinal for the partial-agg merge.
func refFinalOps(ops []FinalOp, rows []tuple.Row) ([]tuple.Row, error) {
	for _, op := range ops {
		switch f := op.(type) {
		case *FinalAgg:
			rows = refMergeFinal(f.GroupCols, f.Aggs, rows)
		case *FinalSort:
			sort.SliceStable(rows, func(i, j int) bool {
				for _, k := range f.Keys {
					if c := rows[i][k.Col].Cmp(rows[j][k.Col]); c != 0 {
						return (c < 0) != k.Desc
					}
				}
				return false
			})
		case *FinalCompute:
			out := make([]tuple.Row, len(rows))
			for i, row := range rows {
				for _, e := range f.Exprs {
					out[i] = append(out[i], e.Eval(row))
				}
			}
			rows = out
		case *FinalLimit:
			if len(rows) > f.N {
				rows = rows[:f.N]
			}
		default:
			return nil, fmt.Errorf("ref: unknown final op %T", op)
		}
	}
	return rows, nil
}

// refMergeFinal merges partial-layout aggregate rows (group columns, then
// one column per spec, two — sum, count — for AVG) into complete ones.
func refMergeFinal(groupCols []int, specs []AggSpec, rows []tuple.Row) []tuple.Row {
	byGroup := make(map[string][]tuple.Row)
	var order []string
	for _, row := range rows {
		gk := string(tuple.EncodeKey(row, groupCols))
		if byGroup[gk] == nil {
			order = append(order, gk)
		}
		byGroup[gk] = append(byGroup[gk], row)
	}
	var out []tuple.Row
	for _, gk := range order {
		part := byGroup[gk]
		row := part[0].Project(groupCols)
		col := len(groupCols)
		for _, spec := range specs {
			var isum, n int64
			var fsum float64
			allInt := true
			best := part[0][col]
			for _, r := range part {
				v := r[col]
				if v.T == tuple.Int64 {
					isum += v.I64
				} else {
					allInt = false
				}
				fsum += v.AsFloat()
				if (spec.Func == AggMin && v.Cmp(best) < 0) || (spec.Func == AggMax && v.Cmp(best) > 0) {
					best = v
				}
				if spec.Func == AggAvg {
					n += r[col+1].AsInt()
				}
			}
			switch spec.Func {
			case AggCount:
				row = append(row, tuple.I(isum))
			case AggSum:
				if allInt {
					row = append(row, tuple.I(isum))
				} else {
					row = append(row, tuple.F(fsum))
				}
			case AggMin, AggMax:
				row = append(row, best)
			case AggAvg:
				row = append(row, tuple.F(fsum/float64(n)))
				col++
			}
			col++
		}
		out = append(out, row)
	}
	return out
}

func refNode(n Node, data map[string][]tuple.Row, schemas map[string]*tuple.Schema) ([]tuple.Row, error) {
	switch t := n.(type) {
	case *ScanNode:
		s := schemas[t.Relation]
		var out []tuple.Row
		for _, row := range data[t.Relation] {
			key := tuple.EncodeKey(row, s.KeyColumns())
			if !cluster.KeyPred(t.Pred).Match(string(key)) {
				continue
			}
			if t.Covering {
				out = append(out, row.Project(s.KeyColumns()))
			} else {
				out = append(out, row)
			}
		}
		return out, nil
	case *SelectNode:
		in, err := refNode(t.Child, data, schemas)
		if err != nil {
			return nil, err
		}
		var out []tuple.Row
		for _, row := range in {
			if truth(t.Pred.Eval(row)) {
				out = append(out, row)
			}
		}
		return out, nil
	case *ProjectNode:
		in, err := refNode(t.Child, data, schemas)
		if err != nil {
			return nil, err
		}
		out := make([]tuple.Row, len(in))
		for i, row := range in {
			out[i] = row.Project(t.Cols)
		}
		return out, nil
	case *ComputeNode:
		in, err := refNode(t.Child, data, schemas)
		if err != nil {
			return nil, err
		}
		out := make([]tuple.Row, len(in))
		for i, row := range in {
			r := make(tuple.Row, len(t.Exprs))
			for j, e := range t.Exprs {
				r[j] = e.Eval(row)
			}
			out[i] = r
		}
		return out, nil
	case *JoinNode:
		left, err := refNode(t.Left, data, schemas)
		if err != nil {
			return nil, err
		}
		right, err := refNode(t.Right, data, schemas)
		if err != nil {
			return nil, err
		}
		idx := make(map[string][]tuple.Row)
		for _, r := range right {
			k := string(tuple.EncodeKey(r, t.RightKeys))
			idx[k] = append(idx[k], r)
		}
		var out []tuple.Row
		for _, l := range left {
			k := string(tuple.EncodeKey(l, t.LeftKeys))
			for _, r := range idx[k] {
				out = append(out, l.Concat(r))
			}
		}
		return out, nil
	case *AggNode:
		in, err := refNode(t.Child, data, schemas)
		if err != nil {
			return nil, err
		}
		// Reference aggregation always computes complete results; partial
		// mode layouts are exercised through FinalAgg by building plans
		// whose reference uses a complete AggNode instead.
		return refAggregate(t.GroupCols, t.Aggs, in), nil
	case *RehashNode:
		// Rehash is a pure repartitioning: identity on the multiset.
		return refNode(t.Child, data, schemas)
	default:
		return nil, fmt.Errorf("ref: unknown node %T", n)
	}
}

// refAggregate computes complete aggregates over rows.
func refAggregate(groupCols []int, specs []AggSpec, rows []tuple.Row) []tuple.Row {
	type acc struct {
		groupVals tuple.Row
		counts    []int64
		sums      []float64
		isums     []int64
		allInt    []bool
		mins      []tuple.Value
		maxs      []tuple.Value
	}
	groups := make(map[string]*acc)
	var order []string
	for _, row := range rows {
		gk := string(tuple.EncodeKey(row, groupCols))
		g := groups[gk]
		if g == nil {
			g = &acc{
				groupVals: row.Project(groupCols),
				counts:    make([]int64, len(specs)),
				sums:      make([]float64, len(specs)),
				isums:     make([]int64, len(specs)),
				allInt:    make([]bool, len(specs)),
				mins:      make([]tuple.Value, len(specs)),
				maxs:      make([]tuple.Value, len(specs)),
			}
			for i := range specs {
				g.allInt[i] = true
			}
			groups[gk] = g
			order = append(order, gk)
		}
		for i, spec := range specs {
			var v tuple.Value
			if spec.Col >= 0 {
				v = row[spec.Col]
			}
			switch spec.Func {
			case AggCount:
				g.counts[i]++
			case AggSum, AggAvg:
				if v.T == tuple.Int64 {
					g.isums[i] += v.I64
				} else {
					g.allInt[i] = false
				}
				g.sums[i] += v.AsFloat()
				g.counts[i]++
			case AggMin:
				if g.counts[i] == 0 || v.Cmp(g.mins[i]) < 0 {
					g.mins[i] = v
				}
				g.counts[i]++
			case AggMax:
				if g.counts[i] == 0 || v.Cmp(g.maxs[i]) > 0 {
					g.maxs[i] = v
				}
				g.counts[i]++
			}
		}
	}
	out := make([]tuple.Row, 0, len(groups))
	for _, gk := range order {
		g := groups[gk]
		row := g.groupVals.Clone()
		for i, spec := range specs {
			switch spec.Func {
			case AggCount:
				row = append(row, tuple.I(g.counts[i]))
			case AggSum:
				if g.allInt[i] {
					row = append(row, tuple.I(g.isums[i]))
				} else {
					row = append(row, tuple.F(g.sums[i]))
				}
			case AggMin:
				row = append(row, g.mins[i])
			case AggMax:
				row = append(row, g.maxs[i])
			case AggAvg:
				if g.counts[i] == 0 {
					row = append(row, tuple.F(0))
				} else {
					row = append(row, tuple.F(g.sums[i]/float64(g.counts[i])))
				}
			}
		}
		out = append(out, row)
	}
	return out
}

// sortedRows returns a canonical ordering for multiset comparison.
func sortedRows(rows []tuple.Row) []tuple.Row {
	out := make([]tuple.Row, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool { return out[i].Cmp(out[j]) < 0 })
	return out
}

// rowsEqual compares two row multisets.
func rowsEqual(a, b []tuple.Row) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedRows(a), sortedRows(b)
	for i := range as {
		if !as[i].Equal(bs[i]) {
			return false
		}
	}
	return true
}

// diffSummary describes the first few differences between row multisets.
func diffSummary(got, want []tuple.Row) string {
	gs, ws := sortedRows(got), sortedRows(want)
	msg := fmt.Sprintf("got %d rows, want %d rows", len(gs), len(ws))
	for i := 0; i < len(gs) || i < len(ws); i++ {
		var g, w string
		if i < len(gs) {
			g = gs[i].String()
		}
		if i < len(ws) {
			w = ws[i].String()
		}
		if g != w {
			return fmt.Sprintf("%s; first diff at %d: got %s want %s", msg, i, g, w)
		}
	}
	return msg
}
