package main

import (
	"math"
	"sort"
)

// summary describes the samples of one metric: the median, the quartiles
// (as Python's statistics.quantiles(values, n=4) gives them) and the highest
// percentile that has at least ten samples beyond it.
type summary struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	N       int     `json:"n"`
	TailPct int     `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	s := summary{Median: quantile(v, 2), Q1: quantile(v, 1), Q3: quantile(v, 3), N: n}
	s.TailPct, s.Tail = 50, s.Median
	for _, p := range []int{75, 90, 95, 99} {
		if n*(100-p)/100 >= 10 {
			s.TailPct, s.Tail = p, v[int(math.Ceil(float64(p)/100*float64(n)))-1]
		}
	}
	return s
}

// quantile returns the i-th quartile of sorted by the exclusive method.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	m := n + 1
	j := min(max(i*m/4, 1), n-1)
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// medianError is about the standard error of the median: the distance
// between the quartiles over the square root of the sample count.
func (s summary) medianError() float64 {
	return (s.Q3 - s.Q1) / math.Sqrt(float64(s.N))
}
