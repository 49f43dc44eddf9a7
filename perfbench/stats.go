package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule, or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing the rank one sample too far.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tail returns the highest ladder percentile of xs that has at least
// minBeyond samples beyond it, with that percentile. With fewer than
// 2*minBeyond samples no percentile qualifies and the tail is the
// maximum, reported as percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(1-p/100) >= minBeyond-1e-9 {
			return percentile(xs, p), p
		}
	}
	return percentile(xs, 100), 100
}

// windowedPercentile is the median, over consecutive windows of xs, of
// each window's p-th percentile. A window holds just enough samples to
// leave minBeyond beyond its percentile, so each window's value obeys
// the tail rule, and one slow stretch of a run (a disk stall, a noisy
// neighbour) moves one window, not the run's figure. Too few samples for
// two windows, or p = 100, fall back to the plain percentile.
func windowedPercentile(xs []float64, p float64) float64 {
	if p >= 100 {
		return percentile(xs, p)
	}
	w := int(math.Round(minBeyond / (1 - p/100)))
	if len(xs) < 2*w {
		return percentile(xs, p)
	}
	var per []float64
	for i := 0; i+w <= len(xs); i += w {
		per = append(per, percentile(xs[i:i+w], p))
	}
	return median(per)
}
