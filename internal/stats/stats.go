// Package stats holds the small numeric helpers the experiment harness
// uses to summarize series, and the K/M syntax of message sizes.
package stats

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum adds the values.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the smallest value (+Inf for an empty slice).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value (-Inf for an empty slice).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// GeoMean returns the geometric mean of positive values (0 if any value
// is non-positive or the slice is empty).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// FormatBytes renders a message size the way benchmark tables do (1K,
// 64K, 1M).
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%d", b)
	}
}

// ParseBytes is the inverse of FormatBytes: a non-negative count with an
// optional K or M suffix (powers of two, either case), e.g. "512",
// "64K", "1m". A value that overflows int64 is an error.
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	num, mult := strings.ToUpper(s), int64(1)
	if n, ok := strings.CutSuffix(num, "M"); ok {
		num, mult = n, 1<<20
	} else if n, ok := strings.CutSuffix(num, "K"); ok {
		num, mult = n, 1<<10
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q overflows int64", s)
	}
	return v * mult, nil
}

// PercentDelta returns 100*(b-a)/a.
func PercentDelta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}
