package main

import (
	"math"
	"sort"
)

var inf = math.Inf(1)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" definition). xs is sorted in place. An
// empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return sortedQuantile(xs, q)
}

func sortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	i := int(math.Floor(pos))
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	if math.IsInf(xs[i+1], 1) {
		if frac == 0 {
			return xs[i]
		}
		return math.Inf(1)
	}
	return xs[i] + frac*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the "exclusive" method),
// so spreads printed here match the ones a reader recomputes by hand.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
