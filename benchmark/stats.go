package main

import (
	"math"
	"slices"
)

func sorted(values []float64) []float64 {
	out := slices.Clone(values)
	slices.Sort(out)
	return out
}

// quantile is the q-th quantile of values by linear interpolation between
// order statistics (0 when empty).
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func sum(values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

func maxOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return slices.Max(values)
}

func minOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return slices.Min(values)
}

// spread is the distance between the first and third quartile of values as
// a share of their median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives: the acceptance rule the benchmark
// contract applies to repeated runs. Fewer than two values have no spread.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := sorted(values)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	mid := median(s)
	if mid == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(mid)
}
