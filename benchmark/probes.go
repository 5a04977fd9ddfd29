package main

// probes.go measures single layers from outside, by timing calls into
// their public functions on the workload's own generated rows and result
// shapes, and runs the workload's schedule embedded (no wire) for the
// embedded-versus-served comparison. Each probe reports under the name
// of the layer it times, with its iteration count.

import (
	"fmt"
	"math/rand"
	"time"

	"orchestra"
	"orchestra/internal/kvstore"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// probeResult is one probe's number: the median of probeRepeats runs of
// Iterations calls each.
type probeResult struct {
	Name       string  `json:"name"`
	Value      float64 `json:"value"`
	Iterations int     `json:"iterations"`
}

const (
	frameRows       = 1024    // rows per result batch frame
	compressMin     = 4 << 10 // the server's default StreamCompressMin
	probeResultRows = 20000   // result rows the codec probes run over at most
	probeSeeks      = 20000
)

func loadSchema() *tuple.Schema {
	s, err := tuple.NewSchema("load", []tuple.Column{
		{Name: "k", Type: tuple.String}, {Name: "grp", Type: tuple.Int64}, {Name: "v", Type: tuple.Int64}}, "k")
	if err != nil {
		panic(err) // a fixed, valid schema
	}
	return s
}

func (d *dataset) typedRow(i int) tuple.Row {
	return tuple.Row{tuple.S(d.keys[i]), tuple.I(int64(i % groups)), tuple.I(d.perm[i])}
}

func (d *dataset) typedRows(lo, hi int) []tuple.Row {
	out := make([]tuple.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, d.typedRow(i))
	}
	return out
}

// userBytesPerRow is the size of a row's values: the key string and two
// 8-byte integers.
func userBytesPerRow(d *dataset) float64 { return float64(len(d.keys[0]) + 16) }

const probeRepeats = 3

// perUnit runs fn probeRepeats times and returns the median run's
// nanoseconds per unit of work.
func perUnit(units int, fn func()) float64 {
	ns := make([]float64, probeRepeats)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(max(units, 1))
	}
	return median(ns)
}

// runProbes times the layers below the wire on the workload's data. The
// result-shaped batch has as many (k, grp, v) rows as the workload's
// largest answer (resultRows, capped at probeResultRows), cut into frames
// of frameRows and compressed at the server's default threshold.
func runProbes(e *env, in *workloadInput, steps []step, resultRows int) []probeResult {
	d := in.data
	schema := loadSchema()
	var out []probeResult
	add := func(name string, value float64, iterations int) {
		out = append(out, probeResult{Name: name, Value: value, Iterations: iterations})
	}

	// internal/tuple and client: encode and decode result frames.
	resultRows = max(1, min(resultRows, in.seeded, probeResultRows))
	var batches []*tuple.Batch
	for lo := 0; lo < resultRows; lo += frameRows {
		b := tuple.NewBatch(schema)
		for i := lo; i < min(lo+frameRows, resultRows); i++ {
			if err := b.AppendRow(d.typedRow(i)); err != nil {
				panic(err) // rows built to the schema
			}
		}
		batches = append(batches, b)
	}
	reps := max(1, probeResultRows/resultRows)
	frames := make([][]byte, len(batches))
	add("tuple.encode_ns_per_row", perUnit(reps*resultRows, func() {
		for r := 0; r < reps; r++ {
			for i, b := range batches {
				f, err := tuple.AppendBatchCols(frames[i][:0], b, compressMin)
				if err != nil {
					panic(err)
				}
				frames[i] = f
			}
		}
	}), reps*len(batches))
	into := tuple.NewBatch(schema)
	add("tuple.decode_ns_per_row", perUnit(reps*resultRows, func() {
		into.ResetTypes(into.Types())
		for r := 0; r < reps; r++ {
			for _, f := range frames {
				if _, err := tuple.DecodeBatchInto(f, into); err != nil {
					panic(err)
				}
			}
		}
	}), reps*len(frames))
	add("client.decode_ns_per_row", perUnit(reps*resultRows, func() {
		for r := 0; r < reps; r++ {
			for _, f := range frames {
				if _, err := tuple.DecodeBatchAny(f); err != nil {
					panic(err)
				}
			}
		}
	}), reps*len(frames))

	// internal/vstore: index pages and tuple records of the seeded rows.
	ups := make([]vstore.Update, in.seeded)
	for i := range ups {
		ups[i] = vstore.Update{Op: vstore.OpInsert, Row: d.typedRow(i)}
	}
	pages, writes, err := vstore.BuildInitialPages(schema, 1, ups, 0)
	if err != nil {
		panic(err)
	}
	encPages := make([][]byte, len(pages))
	for i := range pages {
		encPages[i] = vstore.EncodePage(&pages[i])
	}
	add("vstore.page_decode_us", perUnit(len(encPages), func() {
		for _, p := range encPages {
			if _, err := vstore.DecodePage(p); err != nil {
				panic(err)
			}
		}
	})/1000, len(encPages))
	kvs := make([]kvstore.KV, len(writes))
	for i, w := range writes {
		val, err := vstore.EncodeTupleRecord(schema, vstore.TupleRecord{ID: w.ID, Row: w.Row})
		if err != nil {
			panic(err)
		}
		kvs[i] = kvstore.KV{Key: vstore.TupleKVKey(w.ID), Val: val}
	}
	add("vstore.record_decode_ns_per_row", perUnit(len(kvs), func() {
		into.ResetTypes(into.Types())
		for _, kv := range kvs {
			if err := vstore.DecodeTupleRecordCols(schema, kv.Val, into); err != nil {
				panic(err)
			}
		}
	}), len(kvs))

	// internal/kvstore: a memory store holding the workload's records.
	var store *kvstore.Store
	nBatches := (len(kvs) + seedBatch - 1) / seedBatch
	add("kvstore.put_batch_us", perUnit(nBatches, func() {
		store = kvstore.NewMemory()
		for lo := 0; lo < len(kvs); lo += seedBatch {
			if err := store.PutBatch(kvs[lo:min(lo+seedBatch, len(kvs))]); err != nil {
				panic(err)
			}
		}
	})/1000, nBatches)
	add("kvstore.iter_ns_per_key", perUnit(len(kvs), func() {
		store.Iter(func(it *kvstore.Iterator) {
			for it.Seek(nil); it.Valid(); it.Next() {
			}
		})
	}), len(kvs))
	rng := rand.New(rand.NewSource(int64(d.perm[0])))
	targets := make([][]byte, probeSeeks)
	for i := range targets {
		targets[i] = kvs[rng.Intn(len(kvs))].Key
	}
	add("kvstore.seek_ns", perUnit(len(targets), func() {
		store.Iter(func(it *kvstore.Iterator) {
			for _, k := range targets {
				it.Seek(k)
			}
		})
	}), len(targets))

	// internal/sql + internal/optimizer: parse and plan each query of the
	// schedule against the live cluster's catalog.
	var queries []string
	for _, st := range steps {
		if st.query != nil {
			queries = append(queries, st.query.sql)
		}
	}
	add("plan.us_per_query", perUnit(len(queries), func() {
		for _, src := range queries {
			q, err := sql.Parse(src)
			if err == nil {
				_, _, err = e.c.Optimize(q)
			}
			if err != nil {
				panic(err) // the served passes already ran this SQL
			}
		}
	})/1000, len(queries))
	return out
}

// embeddedRunner runs schedule steps through the Cluster's own methods,
// with no wire, accumulating the engine's counters.
type embeddedRunner struct {
	e          *env
	scanned    uint64
	shipped    uint64
	resultRows int64
	scanPassUs int64 // per query, the slowest fragment's scan passes
}

func (r *embeddedRunner) publish(j int) error {
	lo := r.e.in.seeded + j*publishBatch
	epoch, err := r.e.c.PublishTyped(0, "load", r.e.in.data.typedRows(lo, lo+publishBatch))
	if err != nil {
		return err
	}
	if want := r.e.seedEpoch + uint64(j) + 1; uint64(epoch) != want {
		return fmt.Errorf("publish %d landed on epoch %d, want %d", j, epoch, want)
	}
	return nil
}

func (r *embeddedRunner) query(o op, trace bool) (sample, error) {
	s := sample{class: o.class}
	check := o.newCheck()
	t0 := time.Now()
	res, err := r.e.c.QueryOpts(o.sql, orchestra.QueryOptions{Provenance: o.prov, Trace: trace, Timeout: opTimeout})
	if err != nil {
		return s, err
	}
	s.totalMs = ms(time.Since(t0))
	s.firstMs = s.totalMs
	s.rows = int64(len(res.Rows))
	rows := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			switch v.T {
			case tuple.Int64:
				vals[j] = v.I64
			case tuple.Float64:
				vals[j] = v.F64
			default:
				vals[j] = v.Str
			}
		}
		rows[i] = vals
	}
	if err := check.add(rows); err != nil {
		return s, err
	}
	visible, err := r.e.visible(uint64(res.Epoch))
	if err != nil {
		return s, err
	}
	if err := check.finish(visible); err != nil {
		return s, err
	}
	r.resultRows += s.rows
	if res.Cached {
		s.class += cachedSuffix
	} else {
		r.scanned += res.Stats.Scanned
		r.shipped += res.Stats.Shipped
		r.scanPassUs += slowestScanPassUs(res.Trace)
	}
	return s, nil
}

// slowestScanPassUs sums each fragment's scan.pass spans and returns the
// largest sum: a query waits for its slowest fragment.
func slowestScanPassUs(root *orchestra.TraceSpan) int64 {
	var slowest int64
	if root == nil {
		return 0
	}
	for _, frag := range root.Children {
		if frag.Name != "fragment" {
			continue
		}
		var sum int64
		for _, c := range frag.Children {
			if c.Name == "scan.pass" {
				sum += c.DurUs
			}
		}
		slowest = max(slowest, sum)
	}
	return slowest
}
