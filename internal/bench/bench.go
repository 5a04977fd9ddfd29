// Package bench is the experiment harness of paper §VI: it regenerates
// every figure of the evaluation — query performance scaling over nodes
// and data size for the STBenchmark and TPC-H workloads (Figs 7-16),
// bandwidth and latency sensitivity (Fig 17, §VI-C), larger-scale runs
// (Figs 18-20), failure recovery trade-offs (Fig 21, §VI-E), recovery
// overhead (§VI-E), range-allocation balance (Fig 2), and failure
// detection latency (§V-A).
//
// Substitutions relative to the paper's testbed are deliberate: the
// cluster is simulated in-process (a goroutine per node over a
// byte-accurate message fabric), so traffic numbers are real wire sizes,
// while parallel speedup is reported through a modeled completion time
// computed from per-node work counters — the cost at the slowest node or
// link, at the rates the optimizer costs plans with (modeledTime).
//
// The experiments are one table (figures.go): a sweep that feeds several
// figures runs once for all of them.
package bench

import (
	"fmt"
	"io"
	"time"

	"orchestra"
	"orchestra/internal/optimizer"
	"orchestra/internal/ring"
	"orchestra/internal/stbench"
	"orchestra/internal/tpch"
	"orchestra/internal/tuple"
)

// Config scales the harness. Zero values select laptop-scale defaults;
// the -paper flag of cmd/orchestra-bench selects the paper's parameters.
type Config struct {
	// STBTuples is tuples per STBenchmark relation (paper: 800K/1.6M).
	STBTuples int
	// TPCHScale is the TPC-H scale factor (paper: 0.5-10).
	TPCHScale float64
	// Nodes is the node-count sweep for scaling figures.
	Nodes []int
	// Verbose echoes progress.
	Verbose bool
	// Out receives the report (defaults to io.Discard if nil).
	Out io.Writer
}

// WithDefaults fills in the laptop-scale configuration.
func (c Config) WithDefaults() Config {
	if c.STBTuples <= 0 {
		c.STBTuples = 4000
	}
	if c.TPCHScale <= 0 {
		c.TPCHScale = 0.01
	}
	if len(c.Nodes) == 0 {
		c.Nodes = []int{1, 2, 4, 8, 16}
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose {
		fmt.Fprintf(c.Out, "# "+format+"\n", args...)
	}
}

// Point is one measurement of one series.
type Point struct {
	X float64
	Y float64
}

// Series is one line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a regenerated figure: the paper's plot as data.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Measurement captures one query execution.
type Measurement struct {
	Wall      time.Duration
	Modeled   float64 // seconds; cost at the slowest node or link
	TotalMB   float64 // network traffic, megabytes
	PerNodeMB float64 // max per-node traffic, megabytes
}

// newCluster builds every cluster the harness measures; it is a variable
// so that a test can count the builds.
var newCluster = orchestra.NewCluster

// runQuery executes one SQL query and gathers all metrics.
func runQuery(c *orchestra.Cluster, sqlText string, opts orchestra.QueryOptions) (*Measurement, error) {
	c.ResetNetworkStats()
	start := time.Now()
	res, err := c.QueryOpts(sqlText, opts)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	net := c.NetworkStats()

	var maxPerNode int64
	for _, b := range net.SentBytes {
		maxPerNode = max(maxPerNode, b)
	}
	for _, b := range net.RecvBytes {
		maxPerNode = max(maxPerNode, b)
	}
	return &Measurement{
		Wall:      wall,
		Modeled:   modeledTime(res, net.SentBytes, net.RecvBytes),
		TotalMB:   float64(net.TotalBytes) / (1 << 20),
		PerNodeMB: float64(maxPerNode) / (1 << 20),
	}, nil
}

// modeledTime computes the completion-time model with the optimizer's
// rates: the maximum per-node work (TupleDisk per scanned tuple, TupleCPU
// per tuple exchanged or shipped) plus the maximum per-node link time
// (the larger of bytes sent and received, over LinkBytesPerSec) — the
// slowest node or link at each stage, as the paper's optimizer costs it.
func modeledTime(res *orchestra.Result, sent, recv map[ring.NodeID]int64) float64 {
	var maxCPU, maxLink float64
	for id, st := range res.PerNode {
		cpu := float64(st.Scanned)*optimizer.TupleDisk +
			float64(st.ExchSent+st.ExchRecv+st.Shipped)*optimizer.TupleCPU
		bytes := max(sent[ring.NodeID(id)], recv[ring.NodeID(id)])
		maxCPU = max(maxCPU, cpu)
		maxLink = max(maxLink, float64(bytes)/optimizer.LinkBytesPerSec)
	}
	return maxCPU + maxLink
}

// workload is one of the paper's two benchmarks: its relations, a
// generator for them at a size, and the queries its figures plot.
type workload struct {
	schemas  func() []*tuple.Schema
	generate func(size float64) map[string][]tuple.Row
	queries  []tpch.Query
}

// stbenchLoad is STBenchmark (§VI-A); its size is tuples per relation.
var stbenchLoad = workload{
	schemas: stbench.Schemas,
	generate: func(size float64) map[string][]tuple.Row {
		return stbench.Generate(stbench.Config{Tuples: int(size), Seed: 42})
	},
	queries: func() (qs []tpch.Query) {
		for _, sc := range stbench.Scenarios() {
			qs = append(qs, tpch.Query(sc)) // a scenario is a name and its SQL too
		}
		return qs
	}(),
}

// tpchLoad is TPC-H (§VI-A); its size is the scale factor.
var tpchLoad = workload{
	schemas:  tpch.Schemas,
	generate: func(size float64) map[string][]tuple.Row { return tpch.Generate(size, 42) },
	queries:  tpch.Queries(),
}

// load creates the workload's relations on c and publishes them at size.
func (w workload) load(c *orchestra.Cluster, size float64) error {
	data := w.generate(size)
	for _, s := range w.schemas() {
		if err := c.CreateRelationSchema(s); err != nil {
			return err
		}
		if _, err := c.PublishTyped(0, s.Relation, data[s.Relation]); err != nil {
			return err
		}
	}
	return nil
}
