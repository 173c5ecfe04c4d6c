package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a "*_tail" figure, lowest first.
// The reported tail is the highest of them that still has at least
// minBeyond samples above it, so a tail always rests on real observations
// rather than on one or two outliers.
var tailPercentiles = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99}

// minBeyond is the number of samples a tail percentile must have above it.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
// The epsilon keeps a rank that is a whole number in decimal (99.9% of
// 10000) from rounding up through binary representation error.
func rankIndex(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// percentile returns the nearest-rank percentile p of xs (NaN when empty).
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rankIndex(p, len(s))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is a tail figure: the percentile chosen by the rule above, its
// value, and the sample count it came from.
type tail struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// tailOf applies the percentile rule: the highest candidate percentile with
// at least minBeyond samples beyond its rank. With fewer than 2·minBeyond
// samples no candidate qualifies and the median is reported (P = 50), so
// the figure is never extrapolated. Failed operations enter xs as +Inf and
// therefore sit beyond every finite percentile.
func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{P: 50, Value: math.NaN()}
	}
	s := sortedCopy(xs)
	n := len(s)
	best := 50.0
	for _, p := range tailPercentiles {
		if n-1-rankIndex(p, n) >= minBeyond {
			best = p
		}
	}
	return tail{P: best, Value: s[rankIndex(best, n)], N: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
