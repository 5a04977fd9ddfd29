// Package obs is the observability layer shared by the engine, the wire
// server, and the tools: a lock-cheap metrics registry (atomic counters,
// gauges, and fixed-bucket latency histograms with p50/p95/p99 snapshots)
// plus per-query trace spans (trace.go) and the ops HTTP endpoints
// (http.go). Everything on a hot path is a single atomic add; rendering
// and snapshotting pay the locking cost instead.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistBuckets is the number of fixed exponential latency buckets: bucket
// i holds observations whose microsecond value has bit length i, i.e.
// values in [2^(i-1), 2^i). Bucket 0 holds zeros; the last bucket is
// open-ended. 40 buckets span sub-microsecond to ~6 days.
const HistBuckets = 40

// Histogram is a fixed-bucket latency histogram safe for concurrent
// writers: one atomic add per observation, no locks, no allocation.
type Histogram struct {
	count   atomic.Uint64
	sumUs   atomic.Int64
	maxUs   atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveUs(d.Microseconds()) }

// ObserveUs records one latency in microseconds.
func (h *Histogram) ObserveUs(us int64) {
	if us < 0 {
		us = 0
	}
	h.count.Add(1)
	h.sumUs.Add(us)
	for {
		cur := h.maxUs.Load()
		if us <= cur || h.maxUs.CompareAndSwap(cur, us) {
			break
		}
	}
	i := bits.Len64(uint64(us))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
}

// bucketUpperUs is the inclusive upper bound of bucket i in microseconds.
func bucketUpperUs(i int) int64 {
	if i >= HistBuckets-1 {
		return -1 // open-ended
	}
	return int64(1)<<i - 1
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable and
// queryable for quantiles. Concurrent writers may make a snapshot's
// count field lag the bucket sum by a few in-flight observations;
// Quantile works off the bucket sum so it is always self-consistent.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	SumUs   int64    `json:"sum_us"`
	MaxUs   int64    `json:"max_us"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:   h.count.Load(),
		SumUs:   h.sumUs.Load(),
		MaxUs:   h.maxUs.Load(),
		Buckets: make([]uint64, HistBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// total sums the bucket counts (the self-consistent observation count).
func (s *HistSnapshot) total() uint64 {
	var t uint64
	for _, n := range s.Buckets {
		t += n
	}
	return t
}

// Quantile returns the approximate p-quantile (p in [0,1]) in
// microseconds, linearly interpolated inside the holding bucket and
// clamped to the observed maximum.
func (s *HistSnapshot) Quantile(p float64) int64 {
	total := s.total()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if rank < cum+n {
			if i == 0 {
				return 0
			}
			lo := int64(1) << (i - 1)
			hi := int64(1)<<i - 1
			if i == len(s.Buckets)-1 || hi > s.MaxUs {
				hi = s.MaxUs // open-ended or max-clamped bucket
			}
			if hi < lo {
				hi = lo
			}
			q := lo + int64(float64(hi-lo)*float64(rank-cum+1)/float64(n))
			if s.MaxUs > 0 && q > s.MaxUs {
				q = s.MaxUs
			}
			return q
		}
		cum += n
	}
	return s.MaxUs
}

// MeanUs returns the mean latency in microseconds.
func (s *HistSnapshot) MeanUs() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumUs / int64(s.Count)
}

// Registry is a named collection of metrics. Metric lookups
// (get-or-create) take a short lock; the returned handles are then
// lock-free — callers should hold on to them rather than re-resolving
// names per observation. Names may carry Prometheus-style labels:
// `orchestra_op_duration_us{op="query"}`.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a gauge whose value is read at render time — for
// live values owned elsewhere (connection counts, cache sizes).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// splitName separates a metric name from its {label="..."} suffix.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels renders a label set, merging an extra label pair in.
func joinLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// WritePrometheus renders every metric in Prometheus text exposition
// format. Histograms render as cumulative _bucket series (le in
// microseconds) plus _sum/_count and p50/p95/p99 quantile series.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	counters := make(map[string]uint64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Load()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g.Load()
	}
	hists := make(map[string]HistSnapshot, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h.Snapshot()
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, fn := range r.funcs {
		funcs[n] = fn
	}
	r.mu.RUnlock()

	for n, fn := range funcs {
		gauges[n] = fn()
	}
	for _, n := range sortedKeys(counters) {
		fmt.Fprintf(w, "%s %d\n", n, counters[n])
	}
	for _, n := range sortedKeys(gauges) {
		fmt.Fprintf(w, "%s %d\n", n, gauges[n])
	}
	for _, n := range sortedKeys(hists) {
		s := hists[n]
		base, labels := splitName(n)
		var cum uint64
		for i, cnt := range s.Buckets {
			cum += cnt
			if cnt == 0 && i != len(s.Buckets)-1 {
				continue // keep the output compact; cumulative stays correct
			}
			le := "+Inf"
			if ub := bucketUpperUs(i); ub >= 0 {
				le = fmt.Sprintf("%d", ub)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", base, joinLabels(labels, `le="`+le+`"`), cum)
		}
		fmt.Fprintf(w, "%s_sum%s %d\n", base, joinLabels(labels, ""), s.SumUs)
		fmt.Fprintf(w, "%s_count%s %d\n", base, joinLabels(labels, ""), s.Count)
		for _, q := range [...]struct {
			p float64
			s string
		}{{0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}} {
			fmt.Fprintf(w, "%s%s %d\n", base, joinLabels(labels, `quantile="`+q.s+`"`), s.Quantile(q.p))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
