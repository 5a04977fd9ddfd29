package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"orchestra"
	"orchestra/client"
)

const (
	nodes           = 3
	opTimeout       = 10 * time.Second
	cancelGrace     = 100 * time.Millisecond
	warmup          = 2 * time.Second
	publishInterval = 200 * time.Millisecond
	// A run sets up at least setupRepeats times and keeps setting up until
	// setupBudget is spent (at most maxSetups times), so that the small
	// workloads' setup_s and seeding publish latency rest on enough samples.
	setupRepeats = 3
	setupBudget  = 2 * time.Second
	maxSetups    = 25
)

// spec is a workload's fixed shape; its inputs come from generate.
type spec struct {
	name    string
	why     string
	cache   bool // Cluster.EnableQueryCache(4096)
	durable bool // WithDataDir, default SyncAlways
	dim     bool // also create and fill dim(grp, label)
	writer  bool // connection 1 is the open-loop writer, connection 2 the reader
}

var specs = []spec{
	{name: "scan-wide.n3", why: "100k-row result per query: ship, wire framing, compression and client decode dominate"},
	{name: "query-mix.n3", dim: true, why: "six classes that scan 100k rows and return at most 1000: plan, index, scan pass, exchange and final dominate"},
	{name: "hot-1k.n3", cache: true, why: "every query is a view-cache hit of 1000 rows: only the serving path, batch encode and client decode run"},
	{name: "publish-mixed.n3", cache: true, durable: true, writer: true, why: "durable 250-row publishes on a fixed schedule beside a reader of the same relation: publish, page copy-on-write, WAL and cache invalidation"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// env is one served cluster with the benchmark's two connections.
type env struct {
	c       *orchestra.Cluster
	servers []*orchestra.Server
	conns   []*client.Client
	dir     string // data directory of a durable cluster
	in      *workloadInput
	// seedEpoch is the epoch after set-up; publish j of the run lands on
	// seedEpoch+j+1.
	seedEpoch uint64
	closed    bool
}

// close stops the connections, endpoints and cluster; a second call does
// nothing.
func (e *env) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, cl := range e.conns {
		cl.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	e.c.Shutdown()
}

// visible maps a query's snapshot epoch to the number of dataset rows
// published by then.
func (e *env) visible(epoch uint64) (int, error) {
	if epoch < e.seedEpoch {
		return 0, fmt.Errorf("answer at epoch %d, before set-up finished at %d", epoch, e.seedEpoch)
	}
	n := e.in.seeded + int(epoch-e.seedEpoch)*publishBatch
	if n > e.in.data.n {
		return 0, fmt.Errorf("answer at epoch %d, beyond the last publish", epoch)
	}
	return n, nil
}

// setUp starts a 3-node cluster served on loopback with server defaults,
// dials the two connections (each pinned to one endpoint so there are
// exactly two), creates and seeds the relations through the wire and
// verifies the seeded row count. It returns the client-observed latency
// of each seeding publish.
func setUp(sp spec, in *workloadInput, dir string) (e *env, seedMs []float64, err error) {
	var opts []orchestra.Option
	if sp.durable {
		opts = append(opts, orchestra.WithDataDir(dir))
	}
	c, err := orchestra.NewCluster(nodes, opts...)
	if err != nil {
		return nil, nil, err
	}
	e = &env{c: c, dir: dir, in: in}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if sp.cache {
		c.EnableQueryCache(4096)
	}
	for i := 0; i < nodes; i++ {
		s, err := c.Serve("127.0.0.1:0", orchestra.ServeOptions{Node: i})
		if err != nil {
			return nil, nil, err
		}
		e.servers = append(e.servers, s)
	}
	for i := 0; i < 2; i++ {
		cl, err := client.Dial(e.servers[i].Addr(), client.Options{PoolSize: 1, RefreshInterval: -1})
		if err != nil {
			return nil, nil, err
		}
		e.conns = append(e.conns, cl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	seeder := e.conns[0]
	if err := seeder.Create(ctx, "load", []string{"k:string", "grp:int", "v:int"}, "k"); err != nil {
		return nil, nil, err
	}
	if sp.dim {
		if err := seeder.Create(ctx, "dim", []string{"grp:int", "label:string"}, "grp"); err != nil {
			return nil, nil, err
		}
		if _, err := seeder.Publish(ctx, "dim", dimRows()); err != nil {
			return nil, nil, err
		}
	}
	for lo := 0; lo < in.seeded; lo += seedBatch {
		rows := in.data.rows(lo, min(lo+seedBatch, in.seeded))
		t0 := time.Now()
		if e.seedEpoch, err = seeder.Publish(ctx, "load", rows); err != nil {
			return nil, nil, fmt.Errorf("seed publish at row %d: %w", lo, err)
		}
		seedMs = append(seedMs, ms(time.Since(t0)))
	}
	res, err := e.conns[1].Query(ctx, "SELECT COUNT(*) FROM load")
	if err != nil {
		return nil, nil, fmt.Errorf("seed verification: %w", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(in.seeded) {
		return nil, nil, fmt.Errorf("seed verification: COUNT(*) = %v, want %d", res.Rows, in.seeded)
	}
	return e, seedMs, nil
}

// opContext bounds one operation by opTimeout. Its cancel function is
// deferred by cancelGrace: the client's per-call watchdog goroutine
// chooses at random between "call finished" and "context cancelled" when
// it first runs after both happened, and on the second it forces a past
// deadline onto the connection, which by then is back in the pool, so a
// cancel right after a call fails a later one with "i/o timeout" (about
// one call in three thousand on hot-1k.n3). The grace period lets the
// watchdog see the finished call first.
func opContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	return ctx, func() { time.AfterFunc(cancelGrace, cancel) }
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one completed operation as the client saw it.
type sample struct {
	class   string
	totalMs float64 // request write to last row verified
	firstMs float64 // request write to first batch in hand
	rows    int64
	bytes   int64 // response frames, as counted by the client
	start   time.Time
	end     time.Time
	behind  bool // the answer is the snapshot one publish before its epoch
	trace   *client.TraceSpan
	traceID string
}

// queryServed runs one generated query over a connection, checking the
// answer as its batches arrive. client.Query is QueryStream plus a
// drain loop; the benchmark drains itself so that it can time the first
// batch and verify rows without holding the whole result.
func (e *env) queryServed(cl *client.Client, o op, trace bool) (sample, error) {
	ctx, cancel := opContext()
	defer cancel()
	check := o.newCheck()
	t0 := time.Now()
	s := sample{class: o.class, start: t0}
	st, err := cl.QueryStream(ctx, o.sql, client.QueryOptions{Provenance: o.prov, Trace: trace})
	if err != nil {
		return s, err
	}
	defer st.Close()
	var checkErr error
	for st.Next() {
		if s.rows == 0 {
			s.firstMs = ms(time.Since(t0))
		}
		batch := st.Batch()
		s.rows += int64(len(batch))
		if checkErr == nil {
			checkErr = check.add(batch)
		}
	}
	if err := st.Err(); err != nil {
		return s, err
	}
	s.end = time.Now()
	s.totalMs = ms(s.end.Sub(t0))
	if s.rows == 0 {
		s.firstMs = s.totalMs // empty answer: the end frame is the first thing in hand
	}
	s.bytes, s.trace, s.traceID = st.WireBytes(), st.Trace(), st.TraceID()
	if st.Cached() {
		// A view-cache hit does none of the work its template's class is
		// named for, so it is a class of its own.
		s.class += cachedSuffix
	}
	if checkErr != nil {
		return s, fmt.Errorf("wrong answer: %w", checkErr)
	}
	epoch := st.Epoch()
	visible, err := e.visible(epoch)
	if err == nil {
		err = check.finish(visible)
	}
	if err != nil && epoch > e.seedEpoch && check.finish(visible-publishBatch) == nil {
		// A publish raises the cluster's epoch when it starts and becomes
		// visible when it finishes, so a query in between is answered from
		// the epoch before under the new epoch's number, and the view cache
		// keeps serving that answer. It is a whole earlier snapshot, so it
		// is counted (sample.behind) rather than failed; see README.md.
		s.behind, err = true, nil
	}
	if err != nil {
		return s, fmt.Errorf("wrong answer: %w", err)
	}
	return s, nil
}

// tally counts attempted and failed operations and keeps the first error
// text of each operation class.
type tally struct {
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FirstErrors map[string]string `json:"first_errors,omitempty"`
}

// done counts one attempted operation, failed if err is not nil.
func (t *tally) done(class string, err error) {
	t.Attempted++
	if err == nil {
		return
	}
	t.Failed++
	if t.FirstErrors == nil {
		t.FirstErrors = map[string]string{}
	}
	if _, seen := t.FirstErrors[class]; !seen {
		t.FirstErrors[class] = err.Error()
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for class, text := range o.FirstErrors {
		if _, seen := t.FirstErrors[class]; !seen {
			if t.FirstErrors == nil {
				t.FirstErrors = map[string]string{}
			}
			t.FirstErrors[class] = text
		}
	}
}

// opLog collects one connection's measured operations.
type opLog struct {
	tally
	samples []sample
}

// closedLoop walks cycle back to back until end, measuring operations
// that start at or after measureFrom.
func (e *env) closedLoop(cl *client.Client, cycle []op, measureFrom, end time.Time) *opLog {
	log := &opLog{}
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(end) {
			return log
		}
		o := cycle[i%len(cycle)]
		s, err := e.queryServed(cl, o, false)
		if !start.Before(measureFrom) {
			log.done(o.class, err)
			if err == nil {
				log.samples = append(log.samples, s)
			}
		}
	}
}

const cachedSuffix = ".cached"

// classMedian reduces a timing over several operation classes to one
// number: the mean of the per-class medians, each class weighted by its
// share of the operations. A median over all operations would sit on the
// border between two classes and jump between them; this moves with every
// class, a rare class moves it little, and within a class an outlier moves
// it not at all. With one class it is that class's median.
func classMedian(byClass map[string][]sample, f func(sample) float64) float64 {
	var sum float64
	var n int
	for _, ss := range byClass {
		v := make([]float64, len(ss))
		for i, s := range ss {
			v[i] = f(s)
		}
		sum += median(v) * float64(len(ss))
		n += len(ss)
	}
	return sum / float64(max(n, 1))
}

// publishLog is the open-loop writer's record.
type publishLog struct {
	tally
	latencyMs []float64 // acknowledgement time minus due time
	lateMs    []float64 // send time minus due time
	ackedRows int
}

// publishRun publishes batch j of the run (rows seeded+j*publishBatch on)
// and checks that it landed on the epoch the model expects.
func (e *env) publishRun(ctx context.Context, cl *client.Client, j int) error {
	lo := e.in.seeded + j*publishBatch
	epoch, err := cl.Publish(ctx, "load", e.in.data.rows(lo, lo+publishBatch))
	if err != nil {
		return err
	}
	if want := e.seedEpoch + uint64(j) + 1; epoch != want {
		return fmt.Errorf("publish %d acknowledged at epoch %d, want %d", j, epoch, want)
	}
	return nil
}

// openLoopWriter publishes batch j at from + j*publishInterval whether or
// not earlier ones were slow, timing each from when it was due.
func (e *env) openLoopWriter(cl *client.Client, from time.Time, count int) *publishLog {
	log := &publishLog{}
	for j := 0; j < count; j++ {
		due := from.Add(time.Duration(j) * publishInterval)
		time.Sleep(time.Until(due))
		log.lateMs = append(log.lateMs, ms(time.Since(due)))
		ctx, cancel := opContext()
		err := e.publishRun(ctx, cl, j)
		cancel()
		log.done("publish", err)
		if err != nil {
			continue
		}
		log.ackedRows += publishBatch
		log.latencyMs = append(log.latencyMs, ms(time.Since(due)))
	}
	return log
}

// reopenCheck shuts the durable cluster down, reopens it from the same
// data directory and requires every acknowledged row to be there.
func reopenCheck(dir string, wantRows int) error {
	c, err := orchestra.NewCluster(nodes, orchestra.WithDataDir(dir))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer c.Shutdown()
	res, err := c.Query("SELECT COUNT(*) FROM load")
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I64 != int64(wantRows) {
		return fmt.Errorf("reopen: COUNT(*) = %v, want %d acknowledged rows", res.Rows, wantRows)
	}
	return nil
}

// classStats is the per-operation-class part of a run's result.
type classStats struct {
	Latency    latencySummary `json:"latency"`
	FirstBatch latencySummary `json:"first_batch"`
	Rows       int64          `json:"rows"`
	Bytes      int64          `json:"bytes"`
}

// runResult is one untraced run of one workload.
type runResult struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
	tally
	Classes    map[string]classStats `json:"classes"`
	Publish    *latencySummary       `json:"publish,omitempty"`
	LatenessMs *latencySummary       `json:"generator_lateness,omitempty"`
	SetupS     []float64             `json:"setup_s_each"`
	ViewHits   float64               `json:"views_hit_ratio_in_window"`
	Behind     int                   `json:"answers_one_publish_behind"`
	ReopenS    float64               `json:"reopen_s,omitempty"`
}

// freshEnv sets the workload up once, in a new data directory under
// outDir if it is durable.
func freshEnv(sp spec, in *workloadInput) (*env, []float64, error) {
	dir := ""
	if sp.durable {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, nil, err
		}
		var err error
		if dir, err = os.MkdirTemp(outDir, "data-"); err != nil {
			return nil, nil, err
		}
	}
	e, seedMs, err := setUp(sp, in, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	return e, seedMs, nil
}

// discard closes the cluster and removes its data directory.
func (e *env) discard() {
	e.close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setUpRepeatedly sets the workload up at least setupRepeats times,
// discarding every cluster but the last, which it returns with each
// set-up's duration in seconds and each set-up's mean seeding-publish
// latency. (The first publish of a relation builds its pages and later
// ones rewrite them, so a median over the publishes of a three-publish
// set-up would jump between the two kinds; the mean moves with both.)
func setUpRepeatedly(sp spec, in *workloadInput) (e *env, setupS, seedMs []float64, err error) {
	begin := time.Now()
	for i := 0; i < setupRepeats || (time.Since(begin) < setupBudget && i < maxSetups); i++ {
		if e != nil {
			e.discard()
			runtime.GC()
		}
		t0 := time.Now()
		var lat []float64
		if e, lat, err = freshEnv(sp, in); err != nil {
			return nil, nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		seedMs = append(seedMs, mean(lat))
	}
	sort.Float64s(setupS)
	return e, setupS, seedMs, nil
}

// runUntraced measures one workload end to end with tracing off: the
// set-ups, a warm-up, then the measured window.
func runUntraced(sp spec, seed int64, seconds int) (*runResult, error) {
	publishes := 0
	if sp.writer {
		publishes = seconds * int(time.Second/publishInterval)
	}
	in, err := generate(sp.name, seed, publishes)
	if err != nil {
		return nil, err
	}
	e, setupS, seedMs, err := setUpRepeatedly(sp, in)
	if err != nil {
		return nil, err
	}
	defer e.discard()
	res := &runResult{Workload: sp.name, SetupS: setupS, Classes: map[string]classStats{}}

	// The window: closed-loop readers on every connection but the
	// writer's, which publishes on its schedule from the window's start.
	measureFrom := time.Now().Add(warmup)
	end := measureFrom.Add(time.Duration(seconds) * time.Second)
	readers := e.conns
	if sp.writer {
		readers = e.conns[1:]
	}
	logs := make([]*opLog, len(readers))
	var pub *publishLog
	var wg sync.WaitGroup
	for i, cl := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = e.closedLoop(cl, in.cycles[i], measureFrom, end)
		}()
	}
	if sp.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pub = e.openLoopWriter(e.conns[0], measureFrom, publishes)
		}()
	}
	time.Sleep(time.Until(measureFrom))
	views0 := e.c.CacheStats(0)["views"]
	wg.Wait()
	views1 := e.c.CacheStats(0)["views"]
	hits, misses := float64(views1.Hits-views0.Hits), float64(views1.Misses-views0.Misses)
	res.ViewHits = ratio(hits, hits+misses)

	// Reader metrics.
	byClass := map[string][]sample{}
	var opsPerS float64
	var rows, bytes int64
	for _, l := range logs {
		res.add(l.tally)
		if n := len(l.samples); n > 0 {
			opsPerS += float64(n) / l.samples[n-1].end.Sub(l.samples[0].start).Seconds()
		}
		for _, s := range l.samples {
			byClass[s.class] = append(byClass[s.class], s)
			rows += s.rows
			bytes += s.bytes
			if s.behind {
				res.Behind++
			}
		}
	}
	if len(byClass) == 0 {
		return nil, errors.New("no operation completed in the window")
	}
	for class, ss := range byClass {
		var total, first []float64
		cs := classStats{}
		for _, s := range ss {
			total = append(total, s.totalMs)
			first = append(first, s.firstMs)
			cs.Rows += s.rows
			cs.Bytes += s.bytes
		}
		cs.Latency, cs.FirstBatch = summarize(total), summarize(first)
		res.Classes[class] = cs
	}
	res.Metrics = map[string]float64{
		"ops_per_s":          opsPerS,
		"op_p50_ms":          classMedian(byClass, func(s sample) float64 { return s.totalMs }),
		"first_batch_p50_ms": classMedian(byClass, func(s sample) float64 { return s.firstMs }),
		"wire_bytes_per_row": ratio(float64(bytes), float64(rows)),
		"setup_s":            median(setupS),
		// The read-only workloads publish only while seeding: the median
		// set-up's mean seeding-publish latency.
		"publish_p50_ms": median(seedMs),
	}
	if pub != nil {
		res.add(pub.tally)
		p, late := summarize(pub.latencyMs), summarize(pub.lateMs)
		res.Publish, res.LatenessMs = &p, &late
		res.Metrics["publish_p50_ms"] = p.P50

		e.close()
		t0 := time.Now()
		res.done("reopen", reopenCheck(e.dir, in.seeded+pub.ackedRows))
		res.ReopenS = time.Since(t0).Seconds()
	}
	return res, nil
}

// outDir is where result and trace files and durable data directories
// go: out/ beside the benchmark's sources when run with go run -C
// benchmark, which makes that the working directory.
const outDir = "out"
