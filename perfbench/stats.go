package main

import (
	"math"
	"sort"
)

// tailMin is the number of samples that must lie beyond a reported tail
// percentile: a percentile with fewer samples beyond it is one or two
// outliers, not a tail.
const tailMin = 10

// percentileLadder lists the standard percentiles the tail rule
// chooses from, highest first.
var percentileLadder = []float64{99.9, 99, 90, 75, 50}

// tail is a latency distribution's reported tail: the highest ladder
// percentile with at least tailMin samples beyond it.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// nearestRank returns the 1-based nearest-rank position of percentile p
// in n sorted samples.
func nearestRank(p float64, n int) int {
	x := p / 100 * float64(n)
	r := int(math.Ceil(x - 1e-9*x)) // 99.9% of 10000 is rank 9990, not 9991
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOf applies the tail rule to xs (any order): the highest ladder
// percentile with at least tailMin samples beyond it. With fewer than
// 2*tailMin samples none qualifies; the median is reported with the
// samples it actually has beyond it.
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	for _, p := range percentileLadder {
		r := nearestRank(p, n)
		if n-r >= tailMin {
			return tail{Percentile: p, Value: s[r-1], Beyond: n - r, Samples: n}
		}
	}
	r := nearestRank(50, n)
	return tail{Percentile: 50, Value: s[r-1], Beyond: n - r, Samples: n}
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	return s[nearestRank(p, len(s))-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
