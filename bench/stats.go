package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// percentileLadder are the percentiles a tail metric may be reported at.
var percentileLadder = []float64{50, 90, 99}

// allowedPercentile applies the sample-count rule: a tail is reported at the
// highest ladder percentile, not above want, that leaves at least ten
// samples beyond it.  With fewer than twenty samples only the median is
// left.
func allowedPercentile(n int, want float64) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles reproduces Python's statistics.quantiles(values, n=4), the
// default exclusive method, which is what the benchmark driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median: the steadiness measure the driver gates on.
func quartileSpread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
