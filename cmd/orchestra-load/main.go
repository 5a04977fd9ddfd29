// Command orchestra-load is a closed-loop load generator for a served
// ORCHESTRA deployment: N concurrent clients each run queries
// back-to-back against one or more endpoints for a fixed duration, then
// the tool reports aggregate throughput, client-observed latency
// percentiles, wire bytes per query, and the servers' own
// admission-control and per-op counters.
//
// Drive an external deployment (orchestra-node -serve, one addr per
// node, clients round-robin across them):
//
//	orchestra-load -addrs 127.0.0.1:7101,127.0.0.1:7102 -resultrows 100 -clients 16 -duration 10s
//
// Or self-host an in-process cluster and serve every node on a loopback
// port:
//
//	orchestra-load -local 3 -clients 8 -rows 5000 -resultrows 1000 -duration 10s
//
// Every query is a range scan answering -resultrows rows. This is the
// ad-hoc driver; the gated benchmark suite lives in benchmark/.
//
// Each run appends a machine-readable record to -out (default
// BENCH_wire.json), accumulating the perf trajectory across runs/PRs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"orchestra"
	"orchestra/client"
)

func main() {
	addrs := flag.String("addrs", "", "comma-separated served endpoints to drive")
	local := flag.Int("local", 0, "self-host an in-process cluster of this many nodes, serving each on a loopback port")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	warmup := flag.Duration("warmup", time.Second, "untimed warmup before measuring")
	rows := flag.Int("rows", 500, "rows seeded into the load relation (local mode, or when -seed is set)")
	resultRows := flag.Int("resultrows", 0, "result rows per query (required for the served modes)")
	distinct := flag.Int("distinct", 16, "distinct query templates per run")
	compress := flag.Bool("compress", true, "local mode: flate-compress streamed batches (disable on loopback to trade bytes for CPU)")
	maxQ := flag.Int("maxq", 0, "local mode: per-endpoint admission-control limit (0 = 2×GOMAXPROCS)")
	useCache := flag.Bool("cache", false, "local mode: enable the cluster's materialized-view cache")
	seed := flag.Bool("seed", false, "create and seed the load relation on external endpoints too")
	firstByte := flag.Bool("firstbyte", false, "consume results via QueryStream and measure time-to-first-batch alongside full-result latency")
	topK := flag.Int("topk", 0, "append ORDER BY v DESC LIMIT K to every range-scan template (top-K pushdown workload)")
	out := flag.String("out", "BENCH_wire.json", "append the run record to this JSON file (empty: skip)")
	engineBench := flag.Bool("enginebench", false, "run the scan-heavy engine workload (embedded, single core, no wire) instead of the wire load")
	note := flag.String("note", "", "free-form label recorded with the run")
	flag.Parse()

	if *engineBench {
		o := *out
		if o == "BENCH_wire.json" {
			o = "BENCH_engine.json"
		}
		er := *rows
		if !isFlagSet("rows") {
			er = 5000 // the ROADMAP's reference scan size
		}
		runEngineBench(er, *resultRows, *duration, *note, o)
		return
	}

	var endpoints []string
	var cleanup func()
	switch {
	case *local > 0:
		var err error
		endpoints, cleanup, err = selfHost(*local, *maxQ, *useCache, *compress)
		if err != nil {
			log.Fatal(err)
		}
		defer cleanup()
	case *addrs != "":
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				endpoints = append(endpoints, a)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "orchestra-load: need -addrs or -local; see -help")
		os.Exit(2)
	}
	if *resultRows <= 0 {
		log.Fatal("orchestra-load: -resultrows is required")
	}

	ctx := context.Background()
	var seedLat []time.Duration
	if *local > 0 || *seed {
		var err error
		if seedLat, err = seedData(ctx, endpoints[0], *rows); err != nil {
			log.Fatal(err)
		}
	}

	queries := makeQueries(*distinct, *rows, *resultRows)
	if *topK > 0 {
		for i, q := range queries {
			queries[i] = fmt.Sprintf("%s ORDER BY v DESC LIMIT %d", q, *topK)
		}
	}
	rep := run(ctx, endpoints, queries, *clients, *warmup, *duration, *firstByte)
	if ph := latSummary("seed", seedLat); ph != nil {
		rep.Phases = append([]phaseLat{*ph}, rep.Phases...)
	}
	rep.Note = *note
	rep.Rows = *rows
	rep.ResultRows = *resultRows
	rep.Distinct = *distinct
	rep.LocalNodes = *local
	rep.Compress = *compress
	if *out != "" {
		if err := appendBenchRecord(*out, rep); err != nil {
			log.Printf("orchestra-load: write %s: %v", *out, err)
		} else {
			log.Printf("run recorded in %s", *out)
		}
	}
}

// isFlagSet reports whether the named flag was passed explicitly.
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// selfHost starts an n-node in-process cluster and serves every node on
// its own loopback port, so clients exercise the full wire path.
func selfHost(n, maxQ int, useCache, compress bool) ([]string, func(), error) {
	c, err := orchestra.NewCluster(n)
	if err != nil {
		return nil, nil, err
	}
	if useCache {
		c.EnableQueryCache(4096)
	}
	compressMin := 0 // server default
	if !compress {
		compressMin = -1
	}
	var servers []*orchestra.Server
	var endpoints []string
	for i := 0; i < n; i++ {
		s, err := c.Serve("127.0.0.1:0", orchestra.ServeOptions{
			Node:                 i,
			MaxConcurrentQueries: maxQ,
			StreamCompressMin:    compressMin,
		})
		if err != nil {
			c.Shutdown()
			return nil, nil, err
		}
		servers = append(servers, s)
		endpoints = append(endpoints, s.Addr())
	}
	log.Printf("local cluster: %d nodes served on %s", n, strings.Join(endpoints, ", "))
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
		c.Shutdown()
	}
	return endpoints, cleanup, nil
}

// seedData creates the load relation and publishes rows through the
// wire, returning the client-observed latency of each publish batch.
func seedData(ctx context.Context, addr string, rows int) ([]time.Duration, error) {
	cl, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if err := cl.Create(ctx, "load", []string{"k:string", "grp:int", "v:int"}, "k"); err != nil {
		return nil, err
	}
	const batch = 250
	var lat []time.Duration
	acked := 0
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		b := make([][]any, 0, hi-lo)
		for i := lo; i < hi; i++ {
			b = append(b, []any{fmt.Sprintf("k%06d", i), i % 17, i})
		}
		start := time.Now()
		if _, err := cl.Publish(ctx, "load", b); err != nil {
			return nil, fmt.Errorf("seed aborted: publish failed after %d/%d rows acknowledged: %w",
				acked, rows, err)
		}
		acked = hi
		lat = append(lat, time.Since(start))
	}
	// Don't run the benchmark against a partially seeded relation: verify
	// the acknowledged rows are all queryable before declaring the seed
	// done (a silent shortfall would skew every per-query number).
	res, err := cl.Query(ctx, "SELECT COUNT(*) FROM load")
	if err != nil {
		return nil, fmt.Errorf("seed verification query: %w", err)
	}
	got := int64(-1)
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		switch v := res.Rows[0][0].(type) {
		case int64:
			got = v
		case float64:
			got = int64(v)
		}
	}
	if got != int64(rows) {
		return nil, fmt.Errorf("seed verification: COUNT(*) = %d, want %d acknowledged rows", got, rows)
	}
	log.Printf("seeded %d rows into load (verified by count)", rows)
	return lat, nil
}

// makeQueries builds the templates: range scans answering resultRows
// rows each, spread over the relation so -distinct controls view-cache
// reuse.
func makeQueries(distinct, rows, resultRows int) []string {
	if distinct < 1 {
		distinct = 1
	}
	width := min(resultRows, rows)
	span := rows - width
	qs := make([]string, 0, distinct)
	for i := 0; i < distinct; i++ {
		lo := 0
		if distinct > 1 && span > 0 {
			lo = (i * span) / (distinct - 1)
		}
		qs = append(qs, fmt.Sprintf("SELECT k, grp, v FROM load WHERE v >= %d AND v < %d", lo, lo+width))
	}
	return qs
}

type clientStats struct {
	lat      []time.Duration
	fbLat    []time.Duration // time-to-first-batch (firstbyte mode)
	bytes    int64
	respRows int64
	strRows  int64 // rows the server streamed during execution
	errs     int
}

// phaseLat is one workload phase's client-observed latency summary.
type phaseLat struct {
	Phase  string `json:"phase"`
	Count  int    `json:"count"`
	MeanUs int64  `json:"mean_us"`
	P50Us  int64  `json:"p50_us"`
	P95Us  int64  `json:"p95_us"`
	P99Us  int64  `json:"p99_us"`
	MaxUs  int64  `json:"max_us"`
}

// latSummary condenses a phase's latency samples (nil when empty).
// Sorts its argument in place.
func latSummary(phase string, lat []time.Duration) *phaseLat {
	if len(lat) == 0 {
		return nil
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) int64 {
		return lat[int(p/100*float64(len(lat)-1))].Microseconds()
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return &phaseLat{
		Phase:  phase,
		Count:  len(lat),
		MeanUs: (sum / time.Duration(len(lat))).Microseconds(),
		P50Us:  pct(50),
		P95Us:  pct(95),
		P99Us:  pct(99),
		MaxUs:  lat[len(lat)-1].Microseconds(),
	}
}

// benchRecord is one run's machine-readable result.
type benchRecord struct {
	Timestamp  string  `json:"timestamp"`
	Note       string  `json:"note,omitempty"`
	LocalNodes int     `json:"local_nodes,omitempty"`
	Endpoints  int     `json:"endpoints"`
	Clients    int     `json:"clients"`
	Rows       int     `json:"rows"`
	ResultRows int     `json:"resultrows"`
	Distinct   int     `json:"distinct"`
	Compress   bool    `json:"compress"`
	DurationS  float64 `json:"duration_s"`
	QueriesOK  int     `json:"queries_ok"`
	Errors     int     `json:"errors"`
	QPS        float64 `json:"qps"`
	MeanUs     int64   `json:"mean_us"`
	P50Us      int64   `json:"p50_us"`
	P90Us      int64   `json:"p90_us"`
	P95Us      int64   `json:"p95_us"`
	P99Us      int64   `json:"p99_us"`
	MaxUs      int64   `json:"max_us"`
	BytesPerQ  int64   `json:"bytes_per_query"`
	RowsPerQ   float64 `json:"rows_per_query"`
	WireMBps   float64 `json:"wire_mb_per_s"`
	// Phases are the per-phase (seed, query) client-side latency
	// summaries; the top-level latency fields repeat the query phase.
	Phases []phaseLat `json:"phases,omitempty"`
	// FirstBatch is the time-to-first-batch latency summary (-firstbyte
	// runs only): how long a streaming consumer waits before the first
	// result rows are in hand. The top-level latency fields remain
	// full-result (last byte) latency, so first_batch.p50_us vs p50_us
	// is the streaming win for the run's workload.
	FirstBatch *phaseLat `json:"first_batch,omitempty"`
	// StreamedRows counts rows the servers emitted during execution
	// (from the stream tails); zero means every query took the
	// collect-then-emit path (e.g. a pure top-K workload).
	StreamedRows int64 `json:"streamed_rows,omitempty"`
	// Failover aggregates the clients' retry/failover counters: on a
	// healthy deployment Retries and Failovers stay zero, so a nonzero
	// value in a recorded run is itself a finding.
	Failover client.Counters `json:"failover"`
}

// run drives the closed loop, prints the report, and returns the record.
// With firstByte set, clients consume results through QueryStream and
// each query contributes two samples: time-to-first-batch and
// full-result latency.
func run(ctx context.Context, endpoints, queries []string, clients int, warmup, duration time.Duration, firstByte bool) *benchRecord {
	conns := make([]*client.Client, clients)
	for i := range conns {
		cl, err := client.Dial(endpoints[i%len(endpoints)], client.Options{PoolSize: 1})
		if err != nil {
			log.Fatal(err)
		}
		conns[i] = cl
		defer cl.Close()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	measuring := make(chan struct{})
	stats := make([]clientStats, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) * 2654435761))
			cl := conns[i]
			armed := measuring // local: nil-ed once the window opens
			measure := false
			for {
				select {
				case <-stop:
					return
				case <-armed:
					measure = true
					armed = nil
				default:
				}
				q := queries[rng.Intn(len(queries))]
				if firstByte {
					start := time.Now()
					st, err := cl.QueryStream(ctx, q)
					var fb, total time.Duration
					var rows int64
					if err == nil {
						for st.Next() {
							if rows == 0 {
								fb = time.Since(start)
							}
							rows += int64(len(st.Batch()))
						}
						err = st.Err()
						total = time.Since(start)
						if rows == 0 {
							fb = total // empty answer: first batch IS the tail
						}
					}
					if measure {
						if err != nil {
							stats[i].errs++
						} else {
							stats[i].lat = append(stats[i].lat, total)
							stats[i].fbLat = append(stats[i].fbLat, fb)
							stats[i].respRows += rows
							stats[i].strRows += st.StreamedRows()
							stats[i].bytes += st.WireBytes()
						}
					} else if err != nil {
						log.Printf("warmup error (client %d): %v", i, err)
					}
					if st != nil {
						st.Close()
					}
					continue
				}
				start := time.Now()
				res, err := cl.Query(ctx, q)
				if measure {
					if err != nil {
						stats[i].errs++
					} else {
						stats[i].lat = append(stats[i].lat, time.Since(start))
						stats[i].bytes += res.WireBytes
						stats[i].respRows += int64(len(res.Rows))
					}
				} else if err != nil {
					log.Printf("warmup error (client %d): %v", i, err)
				}
			}
		}(i)
	}

	time.Sleep(warmup)
	close(measuring)
	t0 := time.Now()
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0)

	var all, fbAll []time.Duration
	var bytes, respRows, strRows int64
	errs := 0
	for _, s := range stats {
		all = append(all, s.lat...)
		fbAll = append(fbAll, s.fbLat...)
		bytes += s.bytes
		respRows += s.respRows
		strRows += s.strRows
		errs += s.errs
	}
	var fo client.Counters
	for _, cl := range conns {
		c := cl.Counters()
		fo.Attempts += c.Attempts
		fo.Retries += c.Retries
		fo.Failovers += c.Failovers
		fo.DialErrors += c.DialErrors
		fo.Refreshes += c.Refreshes
	}
	if len(all) == 0 {
		log.Fatal("no queries completed in the measurement window")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		idx := int(p / 100 * float64(len(all)-1))
		return all[idx].Round(time.Microsecond)
	}
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	qps := float64(len(all)) / elapsed.Seconds()

	fmt.Printf("\n--- orchestra-load: %d clients x %s against %d endpoint(s) ---\n",
		clients, elapsed.Round(time.Millisecond), len(endpoints))
	fmt.Printf("queries:    %d ok, %d errors\n", len(all), errs)
	fmt.Printf("throughput: %.0f queries/s\n", qps)
	fmt.Printf("latency:    mean %s  p50 %s  p90 %s  p99 %s  max %s\n",
		(sum / time.Duration(len(all))).Round(time.Microsecond),
		pct(50), pct(90), pct(99), all[len(all)-1].Round(time.Microsecond))
	fmt.Printf("wire:       %d bytes/query, %.1f rows/query, %.2f MB/s\n",
		bytes/int64(len(all)), float64(respRows)/float64(len(all)),
		float64(bytes)/1e6/elapsed.Seconds())
	fb := latSummary("first_batch", fbAll)
	if fb != nil {
		fmt.Printf("firstbatch: p50 %dus  p95 %dus  p99 %dus (full-result p50 %s; %d rows streamed during execution)\n",
			fb.P50Us, fb.P95Us, fb.P99Us, pct(50), strRows)
	}
	if fo.Retries > 0 || fo.Failovers > 0 || fo.DialErrors > 0 {
		fmt.Printf("failover:   %d retries, %d failovers, %d dial errors (of %d attempts)\n",
			fo.Retries, fo.Failovers, fo.DialErrors, fo.Attempts)
	}

	for _, addr := range endpoints {
		printServerStats(ctx, addr)
	}

	return &benchRecord{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		Endpoints:    len(endpoints),
		Clients:      clients,
		DurationS:    elapsed.Seconds(),
		QueriesOK:    len(all),
		Errors:       errs,
		QPS:          qps,
		MeanUs:       (sum / time.Duration(len(all))).Microseconds(),
		P50Us:        pct(50).Microseconds(),
		P90Us:        pct(90).Microseconds(),
		P95Us:        pct(95).Microseconds(),
		P99Us:        pct(99).Microseconds(),
		MaxUs:        all[len(all)-1].Microseconds(),
		BytesPerQ:    bytes / int64(len(all)),
		RowsPerQ:     float64(respRows) / float64(len(all)),
		WireMBps:     float64(bytes) / 1e6 / elapsed.Seconds(),
		Phases:       []phaseLat{*latSummary("query", all)},
		FirstBatch:   fb,
		StreamedRows: strRows,
		Failover:     fo,
	}
}

// appendBenchRecord merges the run into the {"runs": [...]} file at path.
func appendBenchRecord(path string, rec any) error {
	var doc struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &doc) // unreadable history: start over
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	doc.Runs = append(doc.Runs, raw)
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printServerStats fetches and prints one endpoint's own counters.
func printServerStats(ctx context.Context, addr string) {
	cl, err := client.Dial(addr)
	if err != nil {
		log.Printf("status %s: %v", addr, err)
		return
	}
	defer cl.Close()
	st, err := cl.Status(ctx)
	if err != nil {
		log.Printf("status %s: %v", addr, err)
		return
	}
	q := st.Ops["query"]
	var mean int64
	if q.Count > 0 {
		mean = q.TotalUs / int64(q.Count)
	}
	fmt.Printf("server %s (node %s): %d queries (%d errors), mean %dus, max %dus, peak in-flight %d/%d\n",
		addr, st.NodeID, q.Count, q.Errors, mean, q.MaxUs,
		st.PeakInFlightQueries, st.MaxConcurrentQueries)
	if r := st.Replication; r != nil {
		fmt.Printf("  replication: lag %d (max across peers), %d records caught up, %d state transfers, %d anti-entropy repairs\n",
			r.MaxLag, r.CatchUpRecords, r.StateTransfers, r.AntiEntropyRepairs)
	}
	if d := st.Durability; d != nil {
		fmt.Printf("  durability: seq %d, %d wal segments (%d bytes), last checkpoint stall %dus\n",
			d.Seq, d.WALSegments, d.WALBytes, d.LastCheckpointStallUs)
	}
}
