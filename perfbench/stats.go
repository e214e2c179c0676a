package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: the tail is the highest percentile that still has this
// many samples above it.
const tailBeyond = 10

// tailBlock is how many samples, in the order they were recorded, one
// tail is taken over. A run with more samples reports the median of
// its blocks' tails, so the tail always stands at the same percentile
// (the 90th: ten beyond it in a hundred) however many operations a run
// fits in, and one stall moves one block, not the whole run's figure.
const tailBlock = 100

// dist summarises one timing distribution the way every timing metric
// is reported: its median, its tail and the sample count behind both.
type dist struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64 // the percentile tail stands at, 0..100
}

// summarise computes the median and the tail of xs, given in the order
// they were recorded. With fewer than tailBlock samples the tail is
// blockTail of them all; with more it is the median of blockTail over
// each complete block of tailBlock consecutive samples (a trailing
// partial block counts towards n and the median only). xs is sorted in
// place.
func summarise(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	d := dist{n: n}
	if n < tailBlock {
		d.tail, d.tailPct = blockTail(append([]float64(nil), xs...))
	} else {
		var tails []float64
		for lo := 0; lo+tailBlock <= n; lo += tailBlock {
			t, pct := blockTail(append([]float64(nil), xs[lo:lo+tailBlock]...))
			tails = append(tails, t)
			d.tailPct = pct
		}
		d.tail = medianOf(tails)
	}
	sort.Float64s(xs)
	d.p50 = median(xs)
	return d
}

// blockTail returns the (tailBeyond+1)-th largest of xs, the highest
// percentile with at least tailBeyond samples beyond it, and that
// percentile; with tailBeyond or fewer samples no such percentile
// exists and it returns the maximum, at percentile 100. xs is sorted in
// place.
func blockTail(xs []float64) (float64, float64) {
	n := len(xs)
	sort.Float64s(xs)
	if n <= tailBeyond {
		return xs[n-1], 100
	}
	return xs[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// median returns the median of sorted xs (0 when empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}

// maxOf returns the largest of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
