package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it
// is reported: a p99 needs 1,000 samples, a p90 100, a median 20.
const minTail = 10

// percentile returns the q-quantile of xs (linear interpolation between
// closest ranks). It refuses when fewer than minTail samples lie beyond
// q, because such a percentile would be set by a handful of requests.
func percentile(xs []float64, q float64) (float64, error) {
	need := int(math.Ceil(minTail / math.Min(q, 1-q)))
	if len(xs) < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, need, len(xs))
	}
	return quantile(xs, q), nil
}

// quantile is the q-quantile of xs with no sample-size check.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles ports Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the spread of repeated runs is
// judged. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
