package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: tailOf must not rely on order
	}
	return xs
}

// The tail is the highest candidate percentile with at least ten samples
// above its nearest-rank position.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{10000, 99.9}, // rank 9989: 10 beyond; 99.95 would leave 5
		{1000, 99},    // rank 989: 10 beyond
		{999, 98},     // p99 would leave 9 beyond
		{200, 95},     // rank 189: 10 beyond
		{20, 50},      // rank 9: 10 beyond; p75 would leave 5
		{19, 50},      // no candidate qualifies: the median, never extrapolated
	} {
		got := tailOf(ramp(tc.n))
		wantV := float64(rankIndex(tc.wantP, tc.n) + 1)
		if got.P != tc.wantP || got.Value != wantV || got.N != tc.n {
			t.Errorf("n=%d: got p%v=%v (n=%d), want p%v=%v", tc.n, got.P, got.Value, got.N, tc.wantP, wantV)
		}
		if beyond := tc.n - int(got.Value); tc.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, got.P)
		}
	}
	if got := tailOf(nil); !math.IsNaN(got.Value) {
		t.Errorf("empty tail = %v, want NaN", got.Value)
	}
}
