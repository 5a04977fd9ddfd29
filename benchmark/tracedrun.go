package main

// tracedrun.go is the per-layer run (-trace 1): one client, a fixed
// operation count, so that row, byte and message counts repeat. The
// program is measured from outside: the benchmark times its own calls,
// reads the span tree the server already returns with
// client.QueryOptions.Trace, and takes deltas of counters the program
// already exposes. No span or counter is added inside the program.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"orchestra/client"
)

// perLayer are the metrics of single layers a traced run reports, every
// one on every workload (0 where the layer does no work there).
var perLayer = []metricDef{
	{Name: "client.call_ms", Unit: "ms", Better: "lower"},
	{Name: "client.first_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "client.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "client.decode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.first_batch_us", Unit: "us", Better: "lower"},
	{Name: "server.admission_peak", Unit: "count", Better: "lower"},
	{Name: "server.op_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.stream_write_self_ms", Unit: "ms", Better: "lower"},
	{Name: "views.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "views.evictions", Unit: "count", Better: "lower"},
	{Name: "plan.us_per_query", Unit: "us", Better: "lower"},
	{Name: "plan.span_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.embedded_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.scan_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "engine.ship_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.fragment_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.scan_index_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.scan_pass_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.ship_encode_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.ship_decode_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.final_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.publish_epoch_growth", Unit: "ratio", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "vstore.page_decode_us", Unit: "us", Better: "lower"},
	{Name: "vstore.record_decode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "pages.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "kvstore.iter_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "kvstore.seek_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.put_batch_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.records_per_publish", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_publish", Unit: "count", Better: "lower"},
	{Name: "wal.fsync_mean_us", Unit: "us", Better: "lower"},
	{Name: "wal.group_commit_records", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "tuple.encode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "tuple.decode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "unaccounted_ms", Unit: "ms", Better: "lower"},
}

// step is one entry of a traced run's fixed schedule: a query, or the
// publish of batch j.
type step struct {
	query   *op
	publish int
}

// Fixed operation counts of the traced run, per workload, sized so that
// its three passes take about as long as an untraced run.
var tracedQueries = map[string]int{"scan-wide.n3": 40, "query-mix.n3": 120, "hot-1k.n3": 2000, "publish-mixed.n3": 100}

const tracedPublishes = 50 // publish-mixed.n3: one publish, then two queries, fifty times

func schedule(sp spec, in *workloadInput) []step {
	var steps []step
	cycle := in.cycles[0]
	for i := 0; i < tracedQueries[sp.name]; i++ {
		if sp.writer && i%2 == 0 {
			steps = append(steps, step{publish: i / 2})
		}
		steps = append(steps, step{query: &cycle[i%len(cycle)]})
	}
	return steps
}

// runner executes schedule steps: over the wire, or embedded.
type runner interface {
	query(o op, trace bool) (sample, error)
	publish(j int) error
}

type servedRunner struct {
	e  *env
	cl *client.Client
}

func (r servedRunner) query(o op, trace bool) (sample, error) { return r.e.queryServed(r.cl, o, trace) }

func (r servedRunner) publish(j int) error {
	ctx, cancel := opContext()
	defer cancel()
	return r.e.publishRun(ctx, r.cl, j)
}

// passLog is what one pass over the schedule observed.
type passLog struct {
	tally
	byClass   map[string][]sample
	publishMs []float64
	spans     []*span // kept in memory, written out when the run ends
}

func runPass(r runner, steps []step, trace bool) *passLog {
	log := &passLog{byClass: map[string][]sample{}}
	for _, st := range steps {
		if st.query == nil {
			t0 := time.Now()
			err := r.publish(st.publish)
			d := time.Since(t0)
			log.done("publish", err)
			if err != nil {
				continue
			}
			log.publishMs = append(log.publishMs, ms(d))
			if trace {
				log.spans = append(log.spans, &span{Trace: fmt.Sprintf("publish-%d", st.publish), Name: "client.publish", DurUs: d.Microseconds(), Rows: publishBatch})
			}
			continue
		}
		s, err := r.query(*st.query, trace)
		log.done(st.query.class, err)
		if err != nil {
			continue
		}
		log.byClass[s.class] = append(log.byClass[s.class], s)
		if trace {
			log.spans = append(log.spans, clientSpan(s))
		}
	}
	return log
}

// classes lists the pass's operation classes in a fixed order.
func (l *passLog) classes() []string {
	names := make([]string, 0, len(l.byClass))
	for class := range l.byClass {
		names = append(names, class)
	}
	sort.Strings(names)
	return names
}

// classP50 is the pass's full-result latency, reduced as op_p50_ms is.
func (l *passLog) classP50() float64 {
	return classMedian(l.byClass, func(s sample) float64 { return s.totalMs })
}

// counters is a snapshot of everything the program exposes that the
// traced run takes deltas of. The store counters are summed over the
// nodes; the server counters are the first endpoint's, the only one the
// traced run's client talks to.
type counters struct {
	netBytes, netMsgs      int64
	viewHits, viewMisses   uint64
	viewEvictions          uint64
	pageHits, pageMisses   uint64
	queryCount             uint64
	queryTotalUs           int64
	peakInFlight           int64
	firstBatchP50Us        int64
	durable                bool
	walSeq, walFsyncs      uint64
	walGroupRecords        uint64
	walBytes, fsyncMeanUs  int64
	mallocBytes, gcPauseNs uint64
	heapInuse              uint64
}

func (e *env) snapshot() (counters, error) {
	var k counters
	net := e.c.NetworkStats()
	k.netBytes, k.netMsgs = net.TotalBytes, net.TotalMsgs
	views := e.c.CacheStats(0)["views"]
	k.viewHits, k.viewMisses, k.viewEvictions = views.Hits, views.Misses, views.Evictions
	for i := 0; i < nodes; i++ {
		pages := e.c.CacheStats(i)["pages"]
		k.pageHits += pages.Hits
		k.pageMisses += pages.Misses
		if d, ok := e.c.DurabilityStats(i); ok {
			k.durable = true
			k.walSeq += d.Seq
			k.walFsyncs += d.Fsyncs
			k.walGroupRecords += d.GroupCommitRecords
			k.walBytes += d.WALBytes
			k.fsyncMeanUs = max(k.fsyncMeanUs, d.FsyncMeanUs)
		}
	}
	ctx, cancel := opContext()
	defer cancel()
	st, err := e.conns[0].Status(ctx)
	if err != nil {
		return k, fmt.Errorf("status: %w", err)
	}
	q := st.Ops["query"]
	k.queryCount, k.queryTotalUs, k.peakInFlight = q.Count, q.TotalUs, st.PeakInFlightQueries
	if st.Streams != nil {
		k.firstBatchP50Us = st.Streams.FirstBatchP50Us
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	k.mallocBytes, k.gcPauseNs, k.heapInuse = m.TotalAlloc, m.PauseTotalNs, m.HeapInuse
	return k, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns the deltas between two snapshots around a pass of
// ops operations, publishes of them publishes, into per-layer metrics.
func counterMetrics(m map[string]float64, before, after counters, ops, publishes int) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	hits, misses := d(after.viewHits, before.viewHits), d(after.viewMisses, before.viewMisses)
	pageHits, pageMisses := d(after.pageHits, before.pageHits), d(after.pageMisses, before.pageMisses)
	m["transport.bytes_per_op"] = float64(after.netBytes-before.netBytes) / float64(ops)
	m["transport.msgs_per_op"] = float64(after.netMsgs-before.netMsgs) / float64(ops)
	m["views.hit_ratio"] = ratio(hits, hits+misses)
	m["views.evictions"] = d(after.viewEvictions, before.viewEvictions)
	m["pages.hit_ratio"] = ratio(pageHits, pageHits+pageMisses)
	m["server.op_mean_us"] = ratio(float64(after.queryTotalUs-before.queryTotalUs), d(after.queryCount, before.queryCount))
	m["server.admission_peak"] = float64(after.peakInFlight)
	m["server.first_batch_us"] = float64(after.firstBatchP50Us)
	m["alloc_bytes_per_op"] = d(after.mallocBytes, before.mallocBytes) / float64(ops)
	m["gc_pause_ms"] = d(after.gcPauseNs, before.gcPauseNs) / 1e6
	m["heap_peak_mb"] = float64(max(after.heapInuse, before.heapInuse)) / (1 << 20)
	if after.durable && publishes > 0 {
		fsyncs := d(after.walFsyncs, before.walFsyncs)
		m["kvstore.records_per_publish"] = d(after.walSeq, before.walSeq) / float64(publishes)
		m["wal.fsyncs_per_publish"] = fsyncs / float64(publishes)
		m["wal.group_commit_records"] = ratio(d(after.walGroupRecords, before.walGroupRecords), fsyncs)
		m["wal.fsync_mean_us"] = float64(after.fsyncMeanUs)
	}
}

// spanRow is one line of the span table: a span name's self time per
// operation along the blocking path, and its share of client.call.
type spanRow struct {
	Class  string  `json:"class"`
	Span   string  `json:"span"`
	SelfMs float64 `json:"self_ms_per_op"`
	Share  float64 `json:"share_of_client_call"`
}

// spanTable reduces the traced pass to the span table, the per-class
// unaccounted time (client.call - server root - decodeNs per result row)
// and the span and client metrics, averaged over all traced queries.
func spanTable(traced *passLog, decodeNs float64, m map[string]float64) (table []spanRow, unaccounted map[string]float64) {
	unaccounted = map[string]float64{}
	selfAll := map[string]int64{}
	var queries, callUs, firstMs, drainMs float64
	for _, class := range traced.classes() {
		ss := traced.byClass[class]
		self := map[string]int64{}
		var call, gap float64
		for _, s := range ss {
			tree := clientSpan(s)
			blockingSelf(tree, self)
			call += float64(tree.DurUs)
			var server int64
			if s.trace != nil {
				server = s.trace.DurUs
			}
			gap += float64(tree.DurUs-server) - float64(s.rows)*decodeNs/1000
			firstMs += s.firstMs
			drainMs += s.totalMs - s.firstMs
		}
		names := make([]string, 0, len(self))
		for name, us := range self {
			names = append(names, name)
			selfAll[name] += us
		}
		sort.Strings(names)
		n := float64(len(ss))
		for _, name := range names {
			table = append(table, spanRow{Class: class, Span: name, SelfMs: float64(self[name]) / n / 1000, Share: ratio(float64(self[name]), call)})
		}
		unaccounted[class] = gap / n / 1000
		queries += n
		callUs += call
	}
	perQuery := func(name string) float64 { return ratio(float64(selfAll[name]), queries) / 1000 }
	m["client.call_ms"] = ratio(callUs, queries) / 1000
	m["client.first_batch_ms"], m["client.drain_ms"] = ratio(firstMs, queries), ratio(drainMs, queries)
	m["server.stream_write_self_ms"] = perQuery("stream.write")
	m["plan.span_self_ms"] = perQuery("plan")
	m["engine.fragment_self_ms"] = perQuery("fragment")
	m["engine.scan_index_self_ms"] = perQuery("scan.index")
	m["engine.scan_pass_self_ms"] = perQuery("scan.pass")
	m["engine.ship_encode_self_ms"] = perQuery("ship.encode")
	m["engine.ship_decode_self_ms"] = perQuery("ship.decode")
	m["engine.final_self_ms"] = perQuery("final")
	var gaps []float64
	for _, g := range unaccounted {
		gaps = append(gaps, g)
	}
	m["unaccounted_ms"] = mean(gaps)
	return table, unaccounted
}

// tracedResult is what a traced run writes to its result file.
type tracedResult struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
	tally
	Spans       []spanRow          `json:"span_self_times"`
	Unaccounted map[string]float64 `json:"unaccounted_ms_by_class"`
	// Counts repeat exactly between two runs with one seed, except
	// wire_bytes on streamed plans (see README.md).
	Counts    map[string]int64 `json:"counts"`
	IdleBytes int64            `json:"idle_window_transport_bytes"`
	Probes    []probeResult    `json:"probes"`
}

func runTraced(sp spec, seed int64, environ environment) (resultLine, error) {
	publishes := 0
	if sp.writer {
		publishes = tracedPublishes
	}
	in, err := generate(sp.name, seed, publishes)
	if err != nil {
		return resultLine{}, err
	}
	steps := schedule(sp, in)
	res := &tracedResult{Workload: sp.name, Metrics: map[string]float64{}}
	m := res.Metrics

	// Pass 1, untraced: the baseline of the tracing overhead. The
	// read-only workloads, whose state queries do not change, run all
	// three passes on one set-up; a workload that publishes gets a fresh
	// set-up per pass so that all three walk the same epochs.
	e, _, err := freshEnv(sp, in)
	if err != nil {
		return resultLine{}, err
	}
	defer func() { e.discard() }()
	nextPass := func() error {
		if !sp.writer {
			return nil
		}
		fresh, _, err := freshEnv(sp, in)
		if err != nil {
			return err
		}
		e.discard()
		e = fresh
		return nil
	}
	if !sp.writer {
		// One walk through the cycle first, so that the view cache of
		// hot-1k.n3 is as full in the first pass as in the later ones.
		var warm []step
		for i := range in.cycles[0] {
			warm = append(warm, step{query: &in.cycles[0][i]})
		}
		runPass(servedRunner{e, e.conns[0]}, warm, false)
	}
	untraced := runPass(servedRunner{e, e.conns[0]}, steps, false)

	// Pass 2, traced, between two counter snapshots.
	if err := nextPass(); err != nil {
		return resultLine{}, err
	}
	runtime.GC()
	before, err := e.snapshot()
	if err != nil {
		return resultLine{}, err
	}
	traced := runPass(servedRunner{e, e.conns[0]}, steps, true)
	after, err := e.snapshot()
	if err != nil {
		return resultLine{}, err
	}
	counterMetrics(m, before, after, len(steps), publishes)

	// The probes send nothing through the cluster, so the transport bytes
	// counted while they run are what an idle window sends.
	var rows, bytes, largest int64
	for _, ss := range traced.byClass {
		for _, s := range ss {
			rows += s.rows
			bytes += s.bytes
			largest = max(largest, s.rows)
		}
	}
	idleFrom := e.c.NetworkStats().TotalBytes
	res.Probes = runProbes(e, in, steps, int(largest))
	res.IdleBytes = e.c.NetworkStats().TotalBytes - idleFrom
	for _, p := range res.Probes {
		m[p.Name] = p.Value
	}
	if sp.durable {
		perRow := userBytesPerRow(in.data)
		m["wal.bytes_per_user_byte"] = ratio(float64(after.walBytes-before.walBytes), float64(publishes*publishBatch)*perRow)
		if err := e.c.Checkpoint(); err != nil {
			return resultLine{}, fmt.Errorf("checkpoint: %w", err)
		}
		m["disk_bytes_per_user_byte"] = ratio(float64(dirBytes(e.dir)), float64(in.data.n)*perRow)
	}

	// Pass 3, embedded: the same schedule with no wire.
	if err := nextPass(); err != nil {
		return resultLine{}, err
	}
	emb := &embeddedRunner{e: e}
	embedded := runPass(emb, steps, true)
	m["engine.embedded_ms"] = embedded.classP50()
	m["server.overhead_ms"] = traced.classP50() - embedded.classP50()
	m["engine.scan_rows_per_s"] = ratio(float64(emb.scanned), float64(emb.scanPassUs)/1e6)
	m["engine.ship_ratio"] = ratio(float64(emb.shipped), float64(emb.resultRows))
	m["cluster.publish_ms"] = median(embedded.publishMs)
	if n := len(embedded.publishMs); n >= 30 {
		m["cluster.publish_epoch_growth"] = ratio(median(embedded.publishMs[n-15:]), median(embedded.publishMs[:15]))
	}
	m["trace.overhead_ratio"] = ratio(traced.classP50(), untraced.classP50())
	res.Spans, res.Unaccounted = spanTable(traced, m["client.decode_ns_per_row"], m)
	res.Counts = map[string]int64{"scanned": int64(emb.scanned), "shipped": int64(emb.shipped), "result_rows": rows,
		"wire_bytes": bytes, "transport_msgs": after.netMsgs - before.netMsgs}
	for _, l := range []*passLog{untraced, traced, embedded} {
		res.add(l.tally)
	}

	printTraced(res, len(steps), traced.classP50(), untraced.classP50())
	spanPath := filepath.Join(outDir, "trace-"+sp.name+".json")
	if err := writeJSON(spanPath, traced.spans); err != nil {
		return resultLine{}, err
	}
	resultPath := filepath.Join(outDir, "layers-"+sp.name+".json")
	if err := writeJSON(resultPath, struct {
		Environment environment `json:"environment"`
		*tracedResult
	}{environ, res}); err != nil {
		return resultLine{}, err
	}
	fmt.Printf("  spans %s; result file %s\n", spanPath, resultPath)
	return lineOf(perLayer, m, res.Attempted, res.Failed), nil
}

func printTraced(res *tracedResult, ops int, tracedP50, untracedP50 float64) {
	fmt.Printf("\n== %s: per-layer (one client, %d operations, tracing on) ==\n", res.Workload, ops)
	fmt.Printf("  %-15s %-20s %12s %8s\n", "class", "span", "self ms/op", "share")
	for i, row := range res.Spans {
		fmt.Printf("  %-15s %-20s %12.3f %7.1f%%\n", row.Class, row.Span, row.SelfMs, row.Share*100)
		if i+1 == len(res.Spans) || res.Spans[i+1].Class != row.Class {
			fmt.Printf("  %-15s %-20s %12.3f           (client.call - server root - decode probe x rows)\n", row.Class, "unaccounted_ms", res.Unaccounted[row.Class])
		}
	}
	c := res.Counts
	fmt.Printf("  counts: scanned %d, shipped %d, result rows %d, transport messages %d; wire bytes %d (%.4f B/row)\n",
		c["scanned"], c["shipped"], c["result_rows"], c["transport_msgs"], c["wire_bytes"], ratio(float64(c["wire_bytes"]), float64(c["result_rows"])))
	fmt.Printf("  idle window: %d transport bytes while the probes ran\n", res.IdleBytes)
	fmt.Printf("  tracing overhead: traced p50 %.3f ms / untraced single-client p50 %.3f ms = %.3f\n", tracedP50, untracedP50, res.Metrics["trace.overhead_ratio"])
	for _, d := range perLayer {
		fmt.Printf("  %-32s %16.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, p := range res.Probes {
		fmt.Printf("  probe %-32s median of %d runs of %d iterations\n", p.Name, probeRepeats, p.Iterations)
	}
	for class, text := range res.FirstErrors {
		fmt.Printf("  FIRST ERROR %-8s %s\n", class, text)
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
