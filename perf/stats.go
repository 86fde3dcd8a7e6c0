package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of v by nearest rank.
// It sorts a copy. An empty input yields 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

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

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is
// what the driver uses to judge run-to-run spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median; 0 when
// there are too few values to have one.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}
