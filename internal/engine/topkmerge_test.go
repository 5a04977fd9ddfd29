package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"orchestra/internal/tuple"
)

// Unit and fuzz coverage for the top-K pushdown's initiator half
// (mergeTruncateCols) and the ship-batch codec the partial-agg merge
// decodes (decodeTupBatch).

// cmpRowsKeys is the row-form reference comparator, mirroring
// cmpBatchRows' per-type ordering.
func cmpRowsKeys(a, b tuple.Row, keys []SortKey) int {
	for _, k := range keys {
		av, bv := a[k.Col], b[k.Col]
		var c int
		switch av.T {
		case tuple.Int64:
			c = cmpNum(av.I64, bv.I64)
		case tuple.Float64:
			c = cmpNum(av.F64, bv.F64)
		case tuple.String:
			if av.Str < bv.Str {
				c = -1
			} else if av.Str > bv.Str {
				c = 1
			}
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// buildRun sorts rows by keys and packs them into a columnar batch — a
// fragment's local top-K contribution.
func buildRun(t *testing.T, rows []tuple.Row, keys []SortKey) *tuple.Batch {
	t.Helper()
	sorted := append([]tuple.Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return cmpRowsKeys(sorted[i], sorted[j], keys) < 0
	})
	// randRows' fixed shape.
	return batchOf(t, []tuple.Type{tuple.Int64, tuple.Float64, tuple.String}, sorted)
}

func batchOf(t *testing.T, types []tuple.Type, rows []tuple.Row) *tuple.Batch {
	t.Helper()
	b := &tuple.Batch{}
	b.ResetTypes(types)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
	}
	return b
}

// refMerge is the straightforward reference: repeatedly take the
// smallest head across runs (ties by run order), stop at k.
func refMerge(runs [][]tuple.Row, keys []SortKey, k int) []tuple.Row {
	idx := make([]int, len(runs))
	var out []tuple.Row
	for len(out) < k {
		best := -1
		for r := range runs {
			if idx[r] >= len(runs[r]) {
				continue
			}
			if best < 0 || cmpRowsKeys(runs[r][idx[r]], runs[best][idx[best]], keys) < 0 {
				best = r
			}
		}
		if best < 0 {
			break
		}
		out = append(out, runs[best][idx[best]])
		idx[best]++
	}
	return out
}

func batchRowKeys(b *tuple.Batch) []string {
	return rowKeys(b.Rows())
}

func TestMergeTruncateAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := []SortKey{{Col: 0}, {Col: 2, Desc: true}, {Col: 1}}
	for trial := 0; trial < 50; trial++ {
		nRuns := 1 + rng.Intn(5)
		var runs []*tuple.Batch
		var all []tuple.Row
		for r := 0; r < nRuns; r++ {
			rows := randRowsNoNaN(rng, rng.Intn(40))
			all = append(all, rows...)
			runs = append(runs, buildRun(t, rows, keys))
		}
		k := rng.Intn(len(all) + 10)

		// Without NaN the comparator is a strict weak order, so the merge
		// must equal a stable sort of the concatenation, truncated.
		want := append([]tuple.Row(nil), all...)
		sort.SliceStable(want, func(i, j int) bool {
			return cmpRowsKeys(want[i], want[j], keys) < 0
		})
		if k < len(want) {
			want = want[:k]
		}

		got, err := mergeTruncateCols(runs, keys, k)
		if err != nil {
			t.Fatalf("trial %d: mergeTruncateCols: %v", trial, err)
		}
		gk, wk := batchRowKeys(got), rowKeys(want)
		if len(gk) != len(wk) {
			t.Fatalf("trial %d: got %d rows, want %d", trial, len(gk), len(wk))
		}
		for i := range gk {
			if gk[i] != wk[i] {
				t.Fatalf("trial %d row %d: got %s, want %s", trial, i, gk[i], wk[i])
			}
		}
		RecycleResultBatch(got)
	}
}

// randRowsNoNaN is randRows with NaN filtered out of the float column
// (NaN breaks strict weak ordering; the NaN case gets its own test with
// a merge-shaped reference).
func randRowsNoNaN(rng *rand.Rand, n int) []tuple.Row {
	rows := randRows(rng, n)
	for _, r := range rows {
		if math.IsNaN(r[1].F64) {
			r[1] = tuple.F(float64(rng.Intn(7)))
		}
	}
	return rows
}

// With NaN keys a sort-based reference is unusable (the comparator is
// not transitive), but the K-way selection merge itself is still
// deterministic given the runs — pin it against a row-form reimplementation.
func TestMergeTruncateNaNKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keys := []SortKey{{Col: 1}, {Col: 0}}
	for trial := 0; trial < 30; trial++ {
		nRuns := 1 + rng.Intn(4)
		var runs []*tuple.Batch
		var rowRuns [][]tuple.Row
		for r := 0; r < nRuns; r++ {
			rows := randRows(rng, rng.Intn(30)) // NaN/Inf mixed in
			b := buildRun(t, rows, keys)
			runs = append(runs, b)
			rowRuns = append(rowRuns, b.Rows()) // the run as actually ordered
		}
		k := rng.Intn(40)
		want := refMerge(rowRuns, keys, k)
		got, err := mergeTruncateCols(runs, keys, k)
		if err != nil {
			t.Fatalf("trial %d: mergeTruncateCols: %v", trial, err)
		}
		gk, wk := batchRowKeys(got), rowKeys(want)
		if len(gk) != len(wk) {
			t.Fatalf("trial %d: got %d rows, want %d", trial, len(gk), len(wk))
		}
		for i := range gk {
			if gk[i] != wk[i] {
				t.Fatalf("trial %d row %d: got %s, want %s", trial, i, gk[i], wk[i])
			}
		}
		RecycleResultBatch(got)
	}
}

func TestMergeTruncateEdgeCases(t *testing.T) {
	keys := []SortKey{{Col: 0}}
	mk := func(vals ...int64) *tuple.Batch {
		rows := make([]tuple.Row, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Row{tuple.I(v)}
		}
		return batchOf(t, []tuple.Type{tuple.Int64}, rows)
	}
	check := func(name string, runs []*tuple.Batch, k int, want ...int64) {
		t.Helper()
		got, err := mergeTruncateCols(runs, keys, k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.N != len(want) {
			t.Fatalf("%s: got %d rows, want %d", name, got.N, len(want))
		}
		for i, w := range want {
			if got.Cols[0].I64[i] != w {
				t.Fatalf("%s: row %d = %d, want %d", name, i, got.Cols[0].I64[i], w)
			}
		}
		RecycleResultBatch(got)
	}

	check("k zero", []*tuple.Batch{mk(1, 2)}, 0)
	check("k exceeds total", []*tuple.Batch{mk(1, 3), mk(2)}, 10, 1, 2, 3)
	check("single run", []*tuple.Batch{mk(4, 5, 6)}, 2, 4, 5)
	check("empty and nil runs", []*tuple.Batch{nil, mk(), mk(2, 7)}, 3, 2, 7)
	check("all empty", []*tuple.Batch{nil, mk()}, 5)
	check("duplicate keys tie by run order", []*tuple.Batch{mk(1, 1), mk(1)}, 3, 1, 1, 1)

	// Error cases: shape mismatches must be reported, not merged.
	str := batchOf(t, []tuple.Type{tuple.String}, []tuple.Row{{tuple.S("a")}})
	two := batchOf(t, []tuple.Type{tuple.Int64, tuple.Int64}, []tuple.Row{{tuple.I(1), tuple.I(2)}})
	if _, err := mergeTruncateCols([]*tuple.Batch{mk(1), two}, keys, 5); err == nil {
		t.Fatal("arity mismatch: want error")
	}
	if _, err := mergeTruncateCols([]*tuple.Batch{mk(1), str}, keys, 5); err == nil {
		t.Fatal("column type mismatch: want error")
	}
	if _, err := mergeTruncateCols([]*tuple.Batch{mk(1)}, []SortKey{{Col: 3}}, 5); err == nil {
		t.Fatal("key column out of range: want error")
	}
	if _, err := mergeTruncateCols([]*tuple.Batch{mk(1)}, []SortKey{{Col: -1}}, 5); err == nil {
		t.Fatal("negative key column: want error")
	}
}
