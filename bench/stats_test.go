package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {90, 46}, {25, 20},
	} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The sample-count rule: a tail is reported at the highest percentile with
// at least ten samples beyond it.
func TestAllowedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 5, want: 90, got: 50},
		{n: 80, want: 90, got: 50}, // a 12 s sweep_1k window: the median only
		{n: 99, want: 90, got: 50},
		{n: 100, want: 90, got: 90},
		{n: 100000, want: 90, got: 90}, // never above what was asked for
		{n: 999, want: 99, got: 90},
		{n: 1000, want: 99, got: 99},
	} {
		if got := allowedPercentile(c.n, c.want); got != c.got {
			t.Errorf("allowedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the driver gates on; the expected values come from Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 3, 1, 2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// quartiles 2.75 and 8.25 around a median of 5.5.
	got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if got := quartileSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("quartileSpread of zeros = %v, want 0", got)
	}
}
