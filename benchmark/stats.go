package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics. It sorts a copy; v is left untouched.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// frac returns a/b, or 0 when b is 0: the per-layer ratios stay defined on
// workloads where the layer did no work.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
