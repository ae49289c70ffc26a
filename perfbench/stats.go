package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile. A p99 therefore needs at least 1000 samples and a median at
// least 20; anything thinner is refused rather than reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses when fewer than minBeyond samples lie above the chosen rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it; need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// samplesFor is the smallest sample count whose p-th percentile percentile
// accepts.
func samplesFor(p float64) int {
	n := minBeyond + 1
	for {
		if _, err := percentile(make([]float64, n), p); err == nil {
			return n
		}
		n++
	}
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
