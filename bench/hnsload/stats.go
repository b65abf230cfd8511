package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of durations by
// the nearest-rank rule, in microseconds. It sorts d in place.
func percentile(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	if rank < 1 {
		rank = 1
	}
	return float64(d[rank-1]) / float64(time.Microsecond)
}

// median returns the middle of v (mean of the middle two for even
// lengths), without disturbing v. It is the window-to-run reduction: each
// reported value is the median over the run's windows.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cvPct is the coefficient of variation of v in percent: the spread of
// the window values a run's median was taken over.
func cvPct(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return 100 * math.Sqrt(ss/float64(len(v)-1)) / mean
}
