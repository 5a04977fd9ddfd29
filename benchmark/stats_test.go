package main

import "testing"

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // 39 * 25% < 10: not even p75
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(v, 0.5); got != 6 {
		t.Errorf("median of 1..10 = %v, want 6 (rank 5 of 0..9)", got)
	}
	if got := quantile(v, 0.9); got != 10 {
		t.Errorf("p90 of 1..10 = %v, want 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
	s := summarize([]float64{3, 1, 2})
	if s.Samples != 3 || s.P50 != 2 || s.TailPct != 0 {
		t.Errorf("summarize of three samples = %+v, want p50 2 and no tail", s)
	}
}

func TestClassMedianWeightsClassesByTheirShare(t *testing.T) {
	fast := func(ms ...float64) []sample {
		var ss []sample
		for _, m := range ms {
			ss = append(ss, sample{totalMs: m})
		}
		return ss
	}
	total := func(s sample) float64 { return s.totalMs }
	byClass := map[string][]sample{
		"hit":  fast(1, 1, 1, 1, 1, 1, 100), // median 1; the outlier does not count
		"miss": fast(9, 10, 11),             // median 10
	}
	if got, want := classMedian(byClass, total), (1.0*7+10.0*3)/10; got != want {
		t.Errorf("classMedian = %v, want %v", got, want)
	}
	if got := classMedian(map[string][]sample{"only": fast(3, 1, 2)}, total); got != 2 {
		t.Errorf("one class: classMedian = %v, want its median 2", got)
	}
}
