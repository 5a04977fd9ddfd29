package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/tuple"
)

// provBatch builds a batch of the given phase whose rows all carry the set
// of one member (nil provenance when member < 0).
func provBatch(t testing.TB, phase uint32, member int, rows ...tuple.Row) *colBatch {
	t.Helper()
	cb := newColBatch(phase)
	var set Prov
	if member >= 0 {
		set = ProvOf(4, member)
	}
	for _, r := range rows {
		if err := cb.cols.AppendRow(r); err != nil {
			t.Fatal(err)
		}
		if set != nil {
			cb.prov = append(cb.prov, set)
		}
	}
	return cb
}

// TestJoinOp drives the symmetric join by hand: duplicates on both sides,
// pushes interleaved between the sides, mixed phases, and a recovery.
func TestJoinOp(t *testing.T) {
	l := func(k, tag int64) tuple.Row { return tuple.Row{tuple.I(k), tuple.I(tag)} }
	r := func(k int64, tag string) tuple.Row { return tuple.Row{tuple.S(tag), tuple.I(k)} }
	pair := func(k, ltag int64, rtag string) tuple.Row { return append(l(k, ltag), r(k, rtag)...) }
	type push struct {
		left   bool
		phase  uint32
		member int
		rows   []tuple.Row
	}
	cases := []struct {
		name   string
		pushes []push
		// recoverAfter: after that many pushes member 2 fails — the sink is
		// purged and the join recovers (-1: never).
		recoverAfter int
		want         []tuple.Row
		wantPhases   map[uint32]int // output rows per batch phase
	}{{
		name: "m x n duplicates, interleaved",
		pushes: []push{
			{true, 0, -1, []tuple.Row{l(1, 10), l(1, 11), l(2, 12)}},
			{false, 0, -1, []tuple.Row{r(1, "a"), r(3, "z")}},
			{true, 0, -1, []tuple.Row{l(1, 13), l(3, 14)}},
			{false, 0, -1, []tuple.Row{r(1, "b"), r(2, "c"), r(2, "c")}},
		},
		recoverAfter: -1,
		want: []tuple.Row{
			pair(1, 10, "a"), pair(1, 11, "a"), pair(1, 13, "a"), pair(3, 14, "z"),
			pair(1, 10, "b"), pair(1, 11, "b"), pair(1, 13, "b"), pair(2, 12, "c"), pair(2, 12, "c"),
		},
		wantPhases: map[uint32]int{0: 9},
	}, {
		name: "int key never equals float key",
		pushes: []push{
			{true, 0, -1, []tuple.Row{l(1, 10)}},
			{false, 0, -1, []tuple.Row{{tuple.S("a"), tuple.F(1)}}},
		},
		recoverAfter: -1,
	}, {
		name: "mixed phases split the output",
		pushes: []push{
			{true, 0, 0, []tuple.Row{l(1, 10)}},
			{true, 1, 0, []tuple.Row{l(1, 11)}},
			{false, 0, 1, []tuple.Row{r(1, "a")}},
			{false, 2, 1, []tuple.Row{r(1, "b")}},
		},
		recoverAfter: -1,
		want:         []tuple.Row{pair(1, 10, "a"), pair(1, 11, "a"), pair(1, 10, "b"), pair(1, 11, "b")},
		wantPhases:   map[uint32]int{0: 1, 1: 1, 2: 2},
	}, {
		name: "recover, then re-push: no duplicate, no lost pair",
		pushes: []push{
			{true, 0, 1, []tuple.Row{l(1, 10), l(2, 11)}},
			{true, 0, 2, []tuple.Row{l(1, 12), l(3, 13)}},
			{false, 0, 2, []tuple.Row{r(1, "a"), r(2, "b")}},
			{false, 0, 3, []tuple.Row{r(3, "c"), r(1, "d")}},
			// Member 2's rows, recomputed by its heir (member 3) in phase 1.
			{true, 1, 3, []tuple.Row{l(1, 12), l(3, 13)}},
			{false, 1, 3, []tuple.Row{r(1, "a"), r(2, "b")}},
		},
		recoverAfter: 4,
		want: []tuple.Row{
			pair(1, 10, "a"), pair(1, 10, "d"), pair(1, 12, "a"), pair(1, 12, "d"),
			pair(2, 11, "b"), pair(3, 13, "c"),
		},
		wantPhases: map[uint32]int{0: 1, 1: 5},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := &recSink{}
			j := newJoinOp([]int{0}, []int{1}, nil, func(err error) { t.Errorf("join failed: %v", err) }, out)
			failed := ProvOf(4, 2)
			for i, p := range tc.pushes {
				if i == tc.recoverAfter {
					out.purge(failed)
					j.recover(failed)
				}
				j.pushSide(provBatch(t, p.phase, p.member, p.rows...), p.left)
			}
			if !rowsEqual(out.rows, tc.want) {
				t.Fatalf("pairs: %s", diffSummary(out.rows, tc.want))
			}
			got := map[uint32]int{}
			for _, p := range out.phases {
				got[p]++
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.wantPhases) {
				t.Fatalf("rows per output phase %v, want %v", got, tc.wantPhases)
			}
			for i, p := range out.prov {
				if tc.recoverAfter >= 0 && p.Intersects(failed) {
					t.Fatalf("row %v survived with the failed node in its provenance", out.rows[i])
				}
			}
		})
	}
}

// TestAggMatchesReference holds the aggregate operator and the initiator's
// FinalAgg — one fold, two forms — to refEval: every spec over int, float
// and string inputs (MIN/MAX only for strings), complete and partial mode,
// without provenance, with it, and with a recovery in the middle.
func TestAggMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	value := map[string]func() tuple.Value{
		"int":    func() tuple.Value { return tuple.I(int64(rng.Intn(40) - 20)) },
		"float":  func() tuple.Value { return tuple.F(float64(rng.Intn(80)-40) / 4) }, // sums exact in any order
		"string": func() tuple.Value { return tuple.S(fmt.Sprintf("s%02d", rng.Intn(30))) },
	}
	numeric := []AggSpec{{AggCount, -1}, {AggSum, 2}, {AggMin, 2}, {AggMax, 2}, {AggAvg, 2}, {AggCount, 2}}
	for typ, specs := range map[string][]AggSpec{
		"int": numeric, "float": numeric,
		"string": {{AggMin, 2}, {AggCount, -1}, {AggMax, 2}},
	} {
		for _, mode := range []AggMode{AggComplete, AggPartial} {
			for _, run := range []string{"plain", "provenance", "recovery"} {
				name := fmt.Sprintf("%s/mode%d/%s", typ, mode, run)
				prov, recovery := run != "plain", run == "recovery"
				// T(k, g, v): 300 rows in 7 groups, scanned at members 1–3.
				rows := make([]tuple.Row, 300)
				for i := range rows {
					rows[i] = tuple.Row{tuple.I(int64(i)), tuple.I(int64(rng.Intn(7))), value[typ]()}
				}
				schema := tuple.MustSchema("T", []tuple.Column{{Name: "k", Type: tuple.Int64},
					{Name: "g", Type: tuple.Int64}, {Name: "v", Type: rows[0][2].T}}, "k")
				ref := &Plan{Root: &AggNode{GroupCols: []int{1}, Aggs: specs, Mode: AggComplete, Child: &ScanNode{Relation: "T"}}}
				want, err := refEval(ref, map[string][]tuple.Row{"T": rows}, map[string]*tuple.Schema{"T": schema})
				if err != nil {
					t.Fatal(err)
				}

				var cur uint32
				out := &recSink{}
				a := newAggOp([]int{1}, specs, mode, prov, func() uint32 { return cur },
					func(err error) { t.Errorf("%s: aggregate failed: %v", name, err) }, out)
				feed := func(phase uint32, from, as int) { // every third row from row from-1, scanned at member as
					if !prov {
						as = -1
					}
					var part []tuple.Row
					for i := from - 1; i < len(rows); i += 3 {
						if part = append(part, rows[i]); len(part) == 20 || i+3 >= len(rows) {
							a.push(provBatch(t, phase, as, part...))
							part = nil
						}
					}
				}
				feed(0, 1, 1)
				feed(0, 2, 2)
				feed(0, 3, 3)
				a.eos(0)
				if recovery {
					failed := ProvOf(4, 2)
					out.purge(failed)
					a.recover(failed)
					cur = 1
					feed(1, 2, 3) // member 2's rows, recomputed by its heir
					a.eos(1)
				}
				got := out.rows
				if mode == AggPartial {
					fin, err := compileFinal([]FinalOp{&FinalAgg{GroupCols: []int{0}, Aggs: specs}})
					if err != nil {
						t.Fatal(err)
					}
					merged, err := fin.apply(batchOfRows(t, got))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got = merged.Rows()
				}
				gotK, wantK := rowKeys(sortedRows(got)), rowKeys(sortedRows(want))
				if fmt.Sprint(gotK) != fmt.Sprint(wantK) {
					t.Fatalf("%s: %s", name, diffSummary(got, want))
				}
			}
		}
	}
}

// BenchmarkAggFold folds 1 024-row batches into 17 groups under four specs.
func BenchmarkAggFold(b *testing.B) {
	batch, _ := benchBatch(b)
	specs := []AggSpec{{AggCount, -1}, {AggSum, 2}, {AggMin, 2}, {AggAvg, 2}}
	a := newAggOp([]int{1}, specs, AggPartial, false, nil, func(err error) { b.Fatal(err) }, &recSink{})
	cb := &colBatch{cols: batch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch.N {
		a.push(cb)
	}
}

// BenchmarkJoinPush pushes 1 024-row batches of unique keys into one side
// of a join whose other side holds a match for every row.
func BenchmarkJoinPush(b *testing.B) {
	batch, _ := benchBatch(b)
	b.ReportAllocs()
	var j *joinOp
	for i := 0; i < b.N; i += batch.N {
		if i%(64*batch.N) == 0 { // a fresh join every 64 batches bounds the build side
			j = newJoinOp([]int{2}, []int{2}, nil, func(err error) { b.Fatal(err) }, discardSink{})
			j.pushSide(&colBatch{cols: batch}, false)
		}
		j.pushSide(&colBatch{cols: batch}, true)
	}
}

type discardSink struct{}

func (discardSink) push(*colBatch) {}
func (discardSink) eos(uint32)     {}
