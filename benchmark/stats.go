package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. NaN for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) computes them, so the
// spreads `repeat` prints are the ones the driver computes. It needs at
// least two values; with fewer both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		// Rank k*(n+1)/4, clamped to 1..n-1 before the remainder is
		// taken, exactly as CPython does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// summary is a metric's sample reduced to what `run` prints.
type summary struct {
	Value float64 `json:"value"` // the reported figure (median unless the metric is a count or ratio)
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// summarize reports the median of xs with its quartiles.
func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Value: median(xs), N: len(xs), Q1: q1, Q3: q3}
}

// single reports one measured or counted value.
func single(v float64) summary { return summary{Value: v, N: 1, Q1: v, Q3: v} }

// summarizeTail reports the p-th percentile of xs, flanked by the
// percentiles half way to it from either side (p99: p98 and p99.5), so a
// reader sees how steep the tail is where it was cut.
func summarizeTail(xs []float64, p float64) summary {
	return summary{Value: percentile(xs, p), N: len(xs), Q1: percentile(xs, 2*p-100), Q3: percentile(xs, (p+100)/2)}
}
