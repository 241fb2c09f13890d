package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples the way results.json reports
// them: count, median and quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	return summary{N: len(xs), Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile the way Python's
// statistics.quantiles does by default (exclusive method), so spreads
// computed here match the ones the contract is judged by. It returns 0
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// percentile returns the p-th percentile (nearest rank) of an already
// sorted sample, used for latency tails where interpolation between two
// far-apart outliers would invent a value nobody measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
