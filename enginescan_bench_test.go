package orchestra

// Engine scan-path microbenchmarks (single node, no wire): the reference
// workload for the batched-pipeline / compiled-predicate optimization
// work. CI runs these as a smoke test alongside the Wire codec benches;
// the gated end-to-end numbers come from the benchmark module
// (go run -C benchmark .; BENCHMARK.json names its workloads).

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

const engineScanRows = 5000

// benchScan holds the one-node cluster the scan benchmarks share, loaded
// with engineScanRows rows once per process.
var benchScan struct {
	mu sync.Mutex
	c  *Cluster
}

func benchCluster(b *testing.B) *Cluster {
	b.Helper()
	benchScan.mu.Lock()
	defer benchScan.mu.Unlock()
	if benchScan.c != nil {
		return benchScan.c
	}
	c, err := NewCluster(1)
	if err != nil {
		b.Fatalf("NewCluster: %v", err)
	}
	if err := loadScanRelation(engineScanRows)(c); err != nil {
		b.Fatalf("load: %v", err)
	}
	benchScan.c = c
	return c
}

func loadScanRelation(rows int) func(*Cluster) error {
	return func(c *Cluster) error {
		if err := c.CreateRelation(NewSchema("scanload", "k:string", "grp:int", "v:int").Key("k")); err != nil {
			return err
		}
		const batch = 1000
		for lo := 0; lo < rows; lo += batch {
			hi := lo + batch
			if hi > rows {
				hi = rows
			}
			b := make([]tuple.Row, 0, hi-lo)
			for i := lo; i < hi; i++ {
				b = append(b, tuple.Row{tuple.S(fmt.Sprintf("k%06d", i)), tuple.I(int64(i % 17)), tuple.I(int64(i))})
			}
			if _, err := c.PublishTyped(0, "scanload", b); err != nil {
				return err
			}
		}
		return nil
	}
}

func benchEngineScan(b *testing.B, sqlText string, wantRows int) {
	b.Helper()
	c := benchCluster(b)
	res, err := c.Query(sqlText)
	if err != nil {
		b.Fatalf("warm: %v", err)
	}
	if len(res.Rows) != wantRows {
		b.Fatalf("query answered %d rows, want %d", len(res.Rows), wantRows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(sqlText); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(engineScanRows)*float64(b.N)/b.Elapsed().Seconds(), "scanrows/s")
}

// BenchmarkEngineScanFiltered is the reference 5k-row filtered scan: a
// range predicate on a non-key column, so every stored tuple is scanned
// and filtered (nothing is satisfied by the index side alone).
func BenchmarkEngineScanFiltered(b *testing.B) {
	benchEngineScan(b,
		fmt.Sprintf("SELECT k, grp, v FROM scanload WHERE v >= 0 AND v < %d", engineScanRows),
		engineScanRows)
}

// BenchmarkEngineScanSelective keeps 10% of the scanned rows: the
// filter-dominated variant (select cost amortizes over dropped rows).
func BenchmarkEngineScanSelective(b *testing.B) {
	benchEngineScan(b,
		fmt.Sprintf("SELECT k, grp, v FROM scanload WHERE v >= %d AND v < %d", engineScanRows/2, engineScanRows/2+engineScanRows/10),
		engineScanRows/10)
}

// TestEngineScanAllocBudget is the GC-allocations regression gate on the
// served scan path: the reference 5k-row filtered scan, drained through
// the serving path's columnar hand-off, must stay far below one allocation
// per scanned row. The batched pipeline runs at ~0.05 allocs/row; the
// ceiling leaves room for background cluster noise while still failing
// loudly if per-row materialization (the pre-PR state: several allocs
// per row) ever creeps back in. Beside the count, each subtest gates the
// bytes allocated per scanned row (runtime.MemStats.TotalAlloc over ten
// queries): a scan reuses its working memory from pass to pass, so a few
// large per-pass buffers — invisible to the count — fail it too. Each
// byte ceiling is the highest of 50 runs when it was set, plus 20 %;
// before the data pass reused its buffers the subtests measured 105
// (default), 103 (traced, streamed), 200 (provenance), 125 (group-by),
// 138 (compute), 133 (top-K) and 332 (join) B per scanned row.
func TestEngineScanAllocBudget(t *testing.T) {
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := loadScanRelation(engineScanRows)(c); err != nil {
		t.Fatal(err)
	}
	scan := wire.QueryRequest{SQL: fmt.Sprintf("SELECT k, grp, v FROM scanload WHERE v >= 0 AND v < %d", engineScanRows)}
	gateAt := func(t *testing.T, req wire.QueryRequest, wantRows int, wantStreamed bool, scanned int, ceiling, byteCeiling float64) {
		run := func() {
			sink := &testSink{}
			res, err := servedQuery(c, req, sink)
			if err != nil {
				t.Fatal(err)
			}
			if sink.n != wantRows {
				t.Fatalf("query answered %d rows, want %d", sink.n, wantRows)
			}
			if wantStreamed && res.Streamed != int64(wantRows) {
				t.Fatalf("Streamed = %d, want %d — the gate fell back to the collected path", res.Streamed, wantRows)
			}
		}
		run() // warm caches and pools
		allocs := testing.AllocsPerRun(10, run)
		perRow := allocs / float64(scanned)
		// Bytes: the least of three windows of ten queries, each on one P
		// with collection off, so that TotalAlloc counts what the queries
		// allocate and not a sync.Pool refill. A collection empties the
		// pools; and with two Ps a Get misses a buffer another P holds in
		// its private slot, which about one window in three did with
		// collection off alone. Each window collects first and refills
		// the pools with one unmeasured query (testing.AllocsPerRun above
		// also runs on one P).
		window := func() float64 {
			const runs = 10
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(scanned)
		}
		bytesPerRow := math.Inf(1)
		var windows []string // each window's B/row, for a failure to show
		for w := 0; w < 3; w++ {
			perWindow := window()
			windows = append(windows, fmt.Sprintf("%.1f", perWindow))
			bytesPerRow = min(bytesPerRow, perWindow)
		}
		t.Logf("served scan: %.0f allocs/query, %.3f allocs/row, %.1f B/row (windows %v)", allocs, perRow, bytesPerRow, windows)
		if perRow > ceiling {
			t.Fatalf("%s: scan path allocates %.3f per scanned row (%.0f per query; B/row by window %v), ceiling %.2f — per-row materialization is back on the hot path",
				t.Name(), perRow, allocs, windows, ceiling)
		}
		if bytesPerRow > byteCeiling {
			t.Fatalf("%s: scan path allocates %.1f B per scanned row (B/row by window %v; %.0f allocs per query), ceiling %.1f — per-row working memory is back on the hot path",
				t.Name(), bytesPerRow, windows, allocs, byteCeiling)
		}
	}
	gate := func(t *testing.T, req wire.QueryRequest, wantRows int, wantStreamed bool, byteCeiling float64) {
		gateAt(t, req, wantRows, wantStreamed, engineScanRows, 0.5, byteCeiling) // allocs per scanned row
	}
	t.Run("default", func(t *testing.T) { gate(t, scan, engineScanRows, false, 24) })
	// Tracing costs spans per query, never allocations per row; the same
	// ceiling holds with the span tree collected.
	traced := scan
	traced.Trace = true
	t.Run("traced", func(t *testing.T) { gate(t, traced, engineScanRows, true, 25.6) })
	// The streamed-during-execution path must fit the same budget — and
	// this subtest additionally pins that the scan really does stream
	// (QueryTail.Streamed counts every row), so a silent fallback to the
	// collected path fails the gate rather than flattering it.
	t.Run("streamed", func(t *testing.T) { gate(t, scan, engineScanRows, true, 25.3) })
	// Provenance rides the same batches: a shared set per requesting index
	// node beside the columns, never a Row and a set per scanned tuple.
	prov := scan
	prov.Provenance = true
	t.Run("provenance", func(t *testing.T) { gate(t, prov, engineScanRows, false, 147) })
	// A group-by folds the scan's typed vectors into its group table's
	// state vectors: nothing per row crosses the aggregate's input edge or
	// stays behind it. Measured 0.103 allocations per scanned row (517 per
	// query); the ceiling is that plus 20 %.
	groupby := wire.QueryRequest{SQL: "SELECT grp, COUNT(*), SUM(v) FROM scanload GROUP BY grp"}
	t.Run("groupby", func(t *testing.T) { gateAt(t, groupby, 17, false, engineScanRows, 0.125, 22.7) })
	// Computed select items evaluate one vector per expression per batch.
	compute := wire.QueryRequest{SQL: "SELECT k, v + 1, v * 2 FROM scanload WHERE v >= 0"}
	t.Run("compute", func(t *testing.T) { gate(t, compute, engineScanRows, false, 50.8) })
	// Top-K keeps K rows and one batch per fragment; an arriving row that
	// does not beat the K-th is dropped before it is copied.
	topk := wire.QueryRequest{SQL: "SELECT k, v FROM scanload ORDER BY v DESC LIMIT 100"}
	t.Run("topk", func(t *testing.T) { gate(t, topk, 100, false, 32) })
	// A 5k × 5k equi-join across an exchange: scanload is partitioned by k
	// and joins on v, so its side is rehashed; every row matches once. Each
	// build side is one growing batch under an index that hashes the key
	// vectors — no boxed row and no key string per row — so the join fits
	// the ceiling of every other input (measured 0.094 per scanned row).
	t.Run("join", func(t *testing.T) {
		if err := c.CreateRelation(NewSchema("joinload", "id:int", "w:int").Key("id")); err != nil {
			t.Fatal(err)
		}
		rows := make([]tuple.Row, engineScanRows)
		for i := range rows {
			rows[i] = tuple.Row{tuple.I(int64(i)), tuple.I(int64(-i))}
		}
		if _, err := c.PublishTyped(0, "joinload", rows); err != nil {
			t.Fatal(err)
		}
		join := wire.QueryRequest{SQL: "SELECT s.k, j.w FROM scanload s, joinload j WHERE s.v = j.id", Explain: true}
		tail, err := servedQuery(c, join, &testSink{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(tail.Plan, "Rehash") {
			t.Fatalf("the join plan crosses no exchange:\n%s", tail.Plan)
		}
		join.Explain = false
		gateAt(t, join, engineScanRows, false, 2*engineScanRows, 0.5, 307)
	})
}

// BenchmarkEngineScanProvenance measures the filtered scan with
// provenance tracking on (the recovery-support overhead of §VI-E on the
// scan path).
func BenchmarkEngineScanProvenance(b *testing.B) {
	c := benchCluster(b)
	q := fmt.Sprintf("SELECT k, grp, v FROM scanload WHERE v >= 0 AND v < %d", engineScanRows)
	if _, err := c.QueryOpts(q, QueryOptions{Provenance: true}); err != nil {
		b.Fatalf("warm: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.QueryOpts(q, QueryOptions{Provenance: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(engineScanRows)*float64(b.N)/b.Elapsed().Seconds(), "scanrows/s")
}
