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
// link, mirroring the paper's own cost logic.
package bench

import (
	"fmt"
	"io"
	"time"

	"orchestra"
	"orchestra/internal/ring"
	"orchestra/internal/stbench"
	"orchestra/internal/tpch"
)

// Calibration constants for the modeled completion time (seconds per
// tuple / bytes per second), matching the optimizer's cost model.
const (
	cpuPerTuple  = 1e-6
	diskPerTuple = 2e-6
	// defaultLinkBps models the paper's Gigabit LAN when no explicit
	// bandwidth shaping is configured.
	defaultLinkBps = 125e6
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
	// DataPoints scales the data-size sweeps (multipliers of the base).
	DataPoints []float64
	// Bandwidths for Fig 17, bytes/second per node.
	Bandwidths []int64
	// Latencies for the latency experiment.
	Latencies []time.Duration
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
	if len(c.DataPoints) == 0 {
		c.DataPoints = []float64{0.25, 0.5, 1, 2}
	}
	if len(c.Bandwidths) == 0 {
		c.Bandwidths = []int64{100 << 10, 200 << 10, 400 << 10, 800 << 10, 1600 << 10, 3200 << 10}
	}
	if len(c.Latencies) == 0 {
		c.Latencies = []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
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
	Rows      int
	Phases    uint32
}

// runQuery executes one SQL query and gathers all metrics.
func runQuery(c *orchestra.Cluster, sqlText string, opts orchestra.QueryOptions, linkBps float64) (*Measurement, error) {
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
		if b > maxPerNode {
			maxPerNode = b
		}
	}
	for _, b := range net.RecvBytes {
		if b > maxPerNode {
			maxPerNode = b
		}
	}
	return &Measurement{
		Wall:      wall,
		Modeled:   modeledTime(res, net.SentBytes, net.RecvBytes, linkBps),
		TotalMB:   float64(net.TotalBytes) / (1 << 20),
		PerNodeMB: float64(maxPerNode) / (1 << 20),
		Rows:      len(res.Rows),
		Phases:    res.Phases,
	}, nil
}

// modeledTime computes the completion-time model: the maximum per-node
// CPU work plus the maximum per-node link time — the slowest node or link
// at each stage, as the paper's optimizer costs it.
func modeledTime(res *orchestra.Result, sent, recv map[ring.NodeID]int64, linkBps float64) float64 {
	if linkBps <= 0 {
		linkBps = defaultLinkBps
	}
	var maxCPU, maxLink float64
	for id, st := range res.PerNode {
		cpu := float64(st.Scanned)*diskPerTuple +
			float64(st.ExchSent+st.ExchRecv+st.Shipped)*cpuPerTuple
		if cpu > maxCPU {
			maxCPU = cpu
		}
		bytes := sent[ring.NodeID(id)]
		if recv[ring.NodeID(id)] > bytes {
			bytes = recv[ring.NodeID(id)]
		}
		link := float64(bytes) / linkBps
		if link > maxLink {
			maxLink = link
		}
	}
	return maxCPU + maxLink
}

// --- workload loading ---

// loadSTBench creates and publishes the STBenchmark relations.
func loadSTBench(c *orchestra.Cluster, tuples int) error {
	data := stbench.Generate(stbench.Config{Tuples: tuples, Seed: 42})
	for _, s := range stbench.Schemas() {
		if err := c.CreateRelationSchema(s); err != nil {
			return err
		}
		if _, err := c.PublishTyped(0, s.Relation, data[s.Relation]); err != nil {
			return err
		}
	}
	return nil
}

// loadTPCH creates and publishes the TPC-H tables at a scale factor.
func loadTPCH(c *orchestra.Cluster, sf float64) error {
	data := tpch.Generate(sf, 42)
	for _, s := range tpch.Schemas() {
		if err := c.CreateRelationSchema(s); err != nil {
			return err
		}
		if _, err := c.PublishTyped(0, s.Relation, data[s.Relation]); err != nil {
			return err
		}
	}
	return nil
}

// warmAndMeasure runs the query once to warm caches (as the paper does:
// "All measurements were taken after results converged"), then measures.
func warmAndMeasure(c *orchestra.Cluster, sqlText string, linkBps float64) (*Measurement, error) {
	if _, err := c.QueryOpts(sqlText, orchestra.QueryOptions{}); err != nil {
		return nil, err
	}
	return runQuery(c, sqlText, orchestra.QueryOptions{}, linkBps)
}
