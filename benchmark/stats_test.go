package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 3}, {50, 5}, {75, 7}, {100, 9}, {90, 8.2}, {99, 8.92}, {-5, 1}, {120, 9},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Errorf("single-sample percentile = %v, want 4", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("empty sample should give NaN")
	}
	if xs[0] != 9 {
		t.Errorf("percentile sorted its argument in place")
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints: the driver computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11}, 3, 9},
		{[]float64{2.5, 2.5, 2.5, 9}, 2.5, 7.375},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := summarize(xs)
	if s.N != 10 || !near(s.Value, 5.5) || !near(s.Q1, 2.75) || !near(s.Q3, 8.25) {
		t.Errorf("summarize = %+v", s)
	}
}
