package main

import (
	"fmt"
	"sort"
)

// quantile returns the q-quantile (0 < q < 1) of sorted values by the
// nearest-rank rule; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailLadder are the percentiles a tail may be reported at, each with
// the share of samples beyond it written as one in so many.
var tailLadder = []struct {
	percentile float64
	oneIn      int
}{{75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten of n samples beyond it; ok is false when even the
// lowest rung has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, rung := range tailLadder {
		if n/rung.oneIn >= 10 {
			p, ok = rung.percentile, true
		}
	}
	return p, ok
}

// latencySummary is how a timing is reported: sample count, median, and
// the highest percentile the sample count supports.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_percentile,omitempty"`
	Tail    float64 `json:"tail_ms,omitempty"`
}

func summarize(ms []float64) latencySummary {
	s := sortedCopy(ms)
	out := latencySummary{Samples: len(s), P50: quantile(s, 0.5)}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailPct, out.Tail = p, quantile(s, p/100)
	}
	return out
}

func (l latencySummary) String() string {
	if l.TailPct == 0 {
		return fmt.Sprintf("p50 %.3f ms (n=%d)", l.P50, l.Samples)
	}
	return fmt.Sprintf("p50 %.3f ms  p%g %.3f ms (n=%d)", l.P50, l.TailPct, l.Tail, l.Samples)
}
