package main

import (
	"math"
	"slices"
)

// Exact order statistics over raw samples. Nothing here interpolates
// histogram buckets: every percentile is one of the measured values.

// median returns the exact median of xs (the mean of the two middle
// values when len(xs) is even), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is the tail latency with the percentile it was taken at.
type tailStat struct {
	Value  float64
	Pct    float64 // the percentile used, at most 99
	N      int     // samples
	Beyond int     // samples strictly above the chosen rank
}

// minBeyond is how many samples a reported tail percentile must have
// beyond it.
const minBeyond = 10

// tail returns the highest nearest-rank percentile, up to p99, that has
// at least minBeyond samples beyond it. Below p99 the percentile is not
// rounded to a whole number: the rank n−minBeyond is used directly, so
// the choice moves smoothly with n instead of jumping between p97 and
// p98 as a run's sample count varies. With minBeyond or fewer samples
// the maximum is returned with Beyond = 0.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := (99*n + 99) / 100 // nearest-rank p99: ⌈0.99·n⌉, in integers
	if n-r < minBeyond {
		r = n - minBeyond
	}
	if r < 1 {
		r = n
	}
	return tailStat{Value: s[r-1], Pct: 100 * float64(r) / float64(n), N: n, Beyond: n - r}
}

// geomean returns the geometric mean of positive xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
