package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"orchestra"
	"orchestra/internal/ring"
	"orchestra/internal/tpch"
)

// The evaluation as one table: each row is one experiment, run once
// however many of its figures are asked for. Most rows are a sweep — a
// workload measured over one axis — and feed a figure per metric.
var experiments = []experiment{
	alone("fig2", fig2RangeAllocation),
	sweep{
		load: stbenchLoad,
		title: func(c Config) string {
			return fmt.Sprintf("STBenchmark, %d tuples/relation, 1-%d nodes", c.STBTuples, c.Nodes[len(c.Nodes)-1])
		},
		xLabel: "nodes",
		steps:  func(c Config) []step { return nodeSteps(c.Nodes, float64(c.STBTuples)) },
		warm:   true,
		plots:  []plot{{"fig7", metricTime}, {"fig8", metricTotalMB}, {"fig9", metricPerNodeMB}},
	}.experiment(),
	sweep{
		load: tpchLoad,
		title: func(c Config) string {
			return fmt.Sprintf("TPC-H SF %.3g, 1-%d nodes", c.TPCHScale, c.Nodes[len(c.Nodes)-1])
		},
		xLabel: "nodes",
		steps:  func(c Config) []step { return nodeSteps(c.Nodes, c.TPCHScale) },
		warm:   true,
		plots:  []plot{{"fig10", metricTime}, {"fig11", metricTotalMB}, {"fig12", metricPerNodeMB}},
	}.experiment(),
	sweep{
		load:   stbenchLoad,
		title:  func(Config) string { return fmt.Sprintf("STBenchmark on %d nodes, data-size sweep", sweepNodes) },
		xLabel: "tuples/relation",
		steps: func(c Config) (st []step) {
			for _, m := range dataPoints {
				tuples := float64(int(float64(c.STBTuples) * m))
				st = append(st, step{x: tuples, nodes: sweepNodes, size: tuples})
			}
			return st
		},
		warm:  true,
		plots: []plot{{"fig13", metricTime}, {"fig15", metricTotalMB}},
	}.experiment(),
	sweep{
		load:   tpchLoad,
		title:  func(Config) string { return fmt.Sprintf("TPC-H on %d nodes, scale-factor sweep", sweepNodes) },
		xLabel: "scale factor",
		steps: func(c Config) (st []step) {
			for _, m := range dataPoints {
				st = append(st, step{x: c.TPCHScale * m, nodes: sweepNodes, size: c.TPCHScale * m})
			}
			return st
		},
		warm:  true,
		plots: []plot{{"fig14", metricTime}, {"fig16", metricTotalMB}},
	}.experiment(),
	// Link shaping makes wall time real: the data is scaled down so the
	// low-bandwidth points finish in seconds rather than minutes.
	sweep{
		load: tpchLoad,
		title: func(c Config) string {
			return fmt.Sprintf("TPC-H SF %.3g on %d nodes vs per-node bandwidth", c.TPCHScale*shapedScale, sweepNodes)
		},
		xLabel: "per-node bandwidth (KB/s)",
		steps: func(c Config) (st []step) {
			for _, bw := range bandwidths {
				st = append(st, step{x: float64(bw) / 1024, nodes: sweepNodes, size: c.TPCHScale * shapedScale,
					net: []orchestra.Option{orchestra.WithBandwidth(bw)}})
			}
			return st
		},
		notes: []string{
			"Wall time here includes the real token-bucket shaping delays;",
			"rehash-heavy joins (Q3/Q5/Q10) degrade far more than scan-only Q1/Q6.",
		},
		plots: []plot{{"fig17", metricWall}},
	}.experiment(),
	sweep{
		load:   tpchLoad,
		title:  func(Config) string { return "TPC-H vs one-way link latency (§VI-C: little impact up to 200ms)" },
		xLabel: "one-way latency (ms)",
		steps: func(c Config) (st []step) {
			for _, lat := range latencies {
				st = append(st, step{x: float64(lat.Milliseconds()), nodes: sweepNodes, size: c.TPCHScale * shapedScale,
					net: []orchestra.Option{orchestra.WithLatency(lat)}})
			}
			return st
		},
		plots: []plot{{"lat", metricWall}},
	}.experiment(),
	// The paper's EC2 experiment, on larger simulated clusters.
	sweep{
		load: tpchLoad,
		title: func(c Config) string {
			return fmt.Sprintf("TPC-H SF %.3g at 10-100 nodes (EC2 experiment substitute)", c.TPCHScale)
		},
		xLabel: "nodes",
		steps:  func(c Config) []step { return nodeSteps([]int{10, 25, 50, 100}, c.TPCHScale) },
		warm:   true,
		plots:  []plot{{"fig18", metricTime}, {"fig19", metricTotalMB}, {"fig20", metricPerNodeMB}},
	}.experiment(),
	alone("fig21", fig21Recovery),
	alone("ovh", recoveryOverhead),
	alone("fdet", failureDetection),
}

// The fixed axes of the sweeps that do not run over cfg.Nodes.
const (
	sweepNodes  = 8   // cluster size of the data, bandwidth and latency sweeps
	shapedScale = 0.2 // data scale of the bandwidth and latency sweeps
)

var (
	dataPoints = []float64{0.25, 0.5, 1, 2} // multiples of the base data size
	bandwidths = []int64{100 << 10, 200 << 10, 400 << 10, 800 << 10, 1600 << 10, 3200 << 10}
	latencies  = []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
)

// experiment is one row of the table: a run and the figures it yields.
type experiment struct {
	ids []string
	run func(Config) ([]*Figure, error)
}

// alone is an experiment that yields one figure of its own.
func alone(id string, run func(Config) (*Figure, error)) experiment {
	return experiment{ids: []string{id}, run: func(cfg Config) ([]*Figure, error) {
		fig, err := run(cfg)
		return []*Figure{fig}, err
	}}
}

// Run regenerates the figures ids names, in that order; see FigureIDs.
// An experiment runs once however many of its figures are asked for.
func Run(cfg Config, ids ...string) ([]*Figure, error) {
	cfg = cfg.WithDefaults()
	runs := make([]*experiment, len(ids))
	for i, id := range ids {
		if runs[i] = experimentOf(id); runs[i] == nil {
			return nil, fmt.Errorf("bench: unknown figure %q (known: %v)", id, FigureIDs())
		}
	}
	done := map[string]*Figure{}
	figs := make([]*Figure, len(ids))
	for i, id := range ids {
		if done[id] == nil {
			out, err := runs[i].run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", strings.Join(runs[i].ids, "/"), err)
			}
			for _, fig := range out {
				done[fig.ID] = fig
			}
		}
		figs[i] = done[id]
	}
	return figs, nil
}

func experimentOf(id string) *experiment {
	for i := range experiments {
		for _, eid := range experiments[i].ids {
			if eid == id {
				return &experiments[i]
			}
		}
	}
	return nil
}

// FigureIDs lists every regenerable figure, experiment by experiment.
func FigureIDs() []string {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.ids...)
	}
	return ids
}

// metric is what a figure plots of each measurement.
type metric struct {
	label string
	of    func(*Measurement) float64
}

var (
	metricTime      = metric{"modeled execution time (sec)", func(m *Measurement) float64 { return m.Modeled }}
	metricTotalMB   = metric{"network traffic (MB)", func(m *Measurement) float64 { return m.TotalMB }}
	metricPerNodeMB = metric{"per-node network traffic (MB)", func(m *Measurement) float64 { return m.PerNodeMB }}
	metricWall      = metric{"wall execution time (sec)", func(m *Measurement) float64 { return m.Wall.Seconds() }}
)

// plot is one figure a sweep feeds: its id and the metric it plots.
type plot struct {
	id string
	m  metric
}

// step is one point of a sweep's axis: the X it plots, and the cluster
// size, data size (in the workload's unit) and link shaping it measures.
type step struct {
	x     float64
	nodes int
	size  float64
	net   []orchestra.Option
}

// nodeSteps sweeps the cluster size at one data size.
func nodeSteps(nodes []int, size float64) []step {
	st := make([]step, len(nodes))
	for i, n := range nodes {
		st[i] = step{x: float64(n), nodes: n, size: size}
	}
	return st
}

// sweep is an experiment that measures every query of a workload at each
// step of one axis, on a fresh cluster loaded for that step. A warm sweep
// runs each query once before measuring it (as the paper does: "All
// measurements were taken after results converged"); the others measure
// the first run, whose wall time their figures plot.
type sweep struct {
	load   workload
	title  func(Config) string
	xLabel string
	steps  func(Config) []step
	warm   bool
	notes  []string
	plots  []plot
}

func (s sweep) experiment() experiment {
	e := experiment{run: s.run}
	for _, p := range s.plots {
		e.ids = append(e.ids, p.id)
	}
	return e
}

func (s sweep) run(cfg Config) ([]*Figure, error) {
	figs := make([]*Figure, len(s.plots))
	for i, p := range s.plots {
		figs[i] = &Figure{ID: p.id, Title: s.title(cfg), XLabel: s.xLabel, YLabel: p.m.label, Notes: s.notes}
		for _, q := range s.load.queries {
			figs[i].Series = append(figs[i].Series, Series{Label: q.Name})
		}
	}
	for _, st := range s.steps(cfg) {
		cfg.logf("%s: %s %g", s.plots[0].id, s.xLabel, st.x)
		c, err := newCluster(st.nodes, st.net...)
		if err != nil {
			return nil, err
		}
		err = s.measure(c, st, figs)
		c.Shutdown()
		if err != nil {
			return nil, fmt.Errorf("%s %g: %w", s.xLabel, st.x, err)
		}
	}
	return figs, nil
}

// measure loads one step's data on c and adds each query's point to
// every figure of the sweep.
func (s sweep) measure(c *orchestra.Cluster, st step, figs []*Figure) error {
	if err := s.load.load(c, st.size); err != nil {
		return err
	}
	opts := orchestra.QueryOptions{Timeout: 10 * time.Minute}
	for j, q := range s.load.queries {
		if s.warm {
			if _, err := c.QueryOpts(q.SQL, opts); err != nil {
				return fmt.Errorf("%s: %w", q.Name, err)
			}
		}
		meas, err := runQuery(c, q.SQL, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		for i, p := range s.plots {
			figs[i].Series[j].Points = append(figs[i].Series[j].Points, Point{X: st.x, Y: p.m.of(meas)})
		}
	}
	return nil
}

// --- Fig 2: range allocation balance ---

func fig2RangeAllocation(Config) (*Figure, error) {
	fig := &Figure{
		ID:     "fig2",
		Title:  "Range allocation: key-space share skew (max/min owned share)",
		XLabel: "nodes",
		YLabel: "max/min share ratio (1.0 = uniform)",
	}
	sizes := []int{5, 10, 20, 50, 100}
	for _, scheme := range []ring.Scheme{ring.PastryStyle, ring.Balanced} {
		s := Series{Label: scheme.String()}
		for _, n := range sizes {
			ids := make([]ring.NodeID, n)
			for i := range ids {
				ids[i] = ring.NodeID(fmt.Sprintf("node-%03d", i))
			}
			t, err := ring.New(ids, scheme, 3)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: t.Balance()})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"Pastry-style allocation leaves small networks badly skewed (Fig 2a);",
		"balanced allocation is uniform by construction (Fig 2b).")
	return fig, nil
}

// --- Fig 21: failure time vs completion, restart vs incremental ---

func fig21Recovery(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID:     "fig21",
		Title:  "Completion time with one node failure: restart vs incremental recovery",
		XLabel: "failure time offset (fraction of failure-free runtime)",
		YLabel: "wall completion time (sec)",
		Notes: []string{
			"The paper reports incremental recovery beating restart by ≈20% (Fig 21);",
			"both are slower than failure-free runs due to replica cache misses.",
		},
	}
	for _, qname := range []string{"Q1", "Q10"} {
		for _, mode := range []struct {
			label string
			rec   orchestra.RecoveryMode
		}{
			{qname + "/Restart", orchestra.RecoverRestart},
			{qname + "/Incremental", orchestra.RecoverIncremental},
		} {
			s := Series{Label: mode.label}
			for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
				secs, err := completionWithFailure(cfg, tpch.QueryByName(qname).SQL, mode.rec, frac)
				if err != nil {
					return nil, fmt.Errorf("%s frac %.1f: %w", mode.label, frac, err)
				}
				s.Points = append(s.Points, Point{X: frac, Y: secs})
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

// completionWithFailure runs sqlText on a fresh loaded 8-node cluster,
// kills a node frac of a failure-free run's time into a second run, and
// returns that run's wall completion time in seconds.
func completionWithFailure(cfg Config, sqlText string, rec orchestra.RecoveryMode, frac float64) (float64, error) {
	const nodes = 8
	c, err := newCluster(nodes)
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()
	if err := tpchLoad.load(c, cfg.TPCHScale); err != nil {
		return 0, err
	}
	// Failure-free baseline run to calibrate the offset.
	base := time.Now()
	if _, err := c.Query(sqlText); err != nil {
		return 0, err
	}
	delay := time.Duration(frac * float64(time.Since(base)))
	done := make(chan struct{})
	go func() {
		select {
		case <-time.After(delay):
			c.Kill(nodes - 2) // never the initiator
		case <-done:
		}
	}()
	start := time.Now()
	_, err = c.QueryOpts(sqlText, orchestra.QueryOptions{Recovery: rec, Timeout: 5 * time.Minute})
	close(done)
	return time.Since(start).Seconds(), err
}

// --- §VI-E: overhead of incremental recovery support ---

func recoveryOverhead(cfg Config) (*Figure, error) {
	const nodes = 8
	fig := &Figure{
		ID:     "ovh",
		Title:  "Overhead of recovery support (provenance + caches), no failures",
		XLabel: "query (index)",
		YLabel: "overhead (%)",
		Notes: []string{
			"Paper: 2-7% execution-time overhead, ≤2% traffic overhead (§VI-E).",
			"X axis indexes the TPC-H queries Q1,Q3,Q5,Q6,Q10 as 1..5.",
		},
	}
	c, err := newCluster(nodes)
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	if err := tpchLoad.load(c, cfg.TPCHScale); err != nil {
		return nil, err
	}
	timeSeries := Series{Label: "modeled-time overhead %"}
	trafficSeries := Series{Label: "traffic overhead %"}
	for i, q := range tpchLoad.queries {
		if _, err := c.Query(q.SQL); err != nil {
			return nil, err
		}
		// Median-of-3 per configuration to stabilize.
		run := func(prov bool) (*Measurement, error) {
			var ms []*Measurement
			for k := 0; k < 3; k++ {
				m, err := runQuery(c, q.SQL, orchestra.QueryOptions{Provenance: prov})
				if err != nil {
					return nil, err
				}
				ms = append(ms, m)
			}
			sort.Slice(ms, func(a, b int) bool { return ms[a].Modeled < ms[b].Modeled })
			return ms[1], nil
		}
		off, err := run(false)
		if err != nil {
			return nil, err
		}
		on, err := run(true)
		if err != nil {
			return nil, err
		}
		x := float64(i + 1)
		timeSeries.Points = append(timeSeries.Points,
			Point{X: x, Y: 100 * (on.Modeled - off.Modeled) / off.Modeled})
		trafficSeries.Points = append(trafficSeries.Points,
			Point{X: x, Y: 100 * (on.TotalMB - off.TotalMB) / off.TotalMB})
	}
	fig.Series = append(fig.Series, timeSeries, trafficSeries)
	return fig, nil
}

// --- §V-A: failure detection latency ---

func failureDetection(Config) (*Figure, error) {
	fig := &Figure{
		ID:     "fdet",
		Title:  "Failure detection latency: connection drop vs background pings",
		XLabel: "trial",
		YLabel: "detection latency (ms)",
		Notes: []string{
			"A crashed node's dropped connections are detected almost immediately;",
			"a hung node (connections alive, no replies) needs the pinger (§V-A, §V-C).",
		},
		Series: []Series{{Label: "connection-drop (crash)"}, {Label: "ping-based (hung)"}},
	}
	for trial := 0; trial < 5; trial++ {
		for i, fail := range []func(c *orchestra.Cluster){
			func(c *orchestra.Cluster) { c.Kill(2) },
			func(c *orchestra.Cluster) {
				c.StartPingers(20*time.Millisecond, 60*time.Millisecond)
				c.Hang(2)
			},
		} {
			ms, err := detectionMs(fail)
			if err != nil {
				return nil, err
			}
			fig.Series[i].Points = append(fig.Series[i].Points, Point{X: float64(trial), Y: ms})
		}
	}
	return fig, nil
}

// detectionMs fails a node of a fresh 4-node cluster and returns how long
// node 0 takes to report it down, in milliseconds (5000 if it never does).
func detectionMs(fail func(c *orchestra.Cluster)) (float64, error) {
	c, err := newCluster(4)
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()
	ch := make(chan time.Duration, 1)
	start := time.Now()
	c.OnNodeDown(0, func(string) {
		select {
		case ch <- time.Since(start):
		default:
		}
	})
	fail(c)
	select {
	case d := <-ch:
		return float64(d.Microseconds()) / 1000, nil
	case <-time.After(5 * time.Second):
		return 5000, nil
	}
}
