package main

import (
	"math"
	"testing"
)

// An end-to-end metric with no samples fails the run instead of reading
// as the best possible value.
func TestReportFailsOnMissingMetric(t *testing.T) {
	res := &result{correct: true, attempted: 1, e2e: map[string]float64{}, meta: map[string]any{}}
	for _, d := range endToEnd {
		res.e2e[d.name] = 1
	}
	res.e2e["refresh_p50_ms"] = median(nil)
	res.e2e["capacity_rps"] = math.Inf(1)
	res.pooled = []float64{math.NaN(), 1, 1}
	delete(res.e2e, "small_p50_ms")
	report(res, false)
	if res.correct {
		t.Fatal("run with missing metrics reported correct")
	}
	missing, _ := res.meta["missing_metrics"].([]string)
	if len(missing) != 3 {
		t.Errorf("missing metrics %v, want small_p50_ms, capacity_rps and refresh_p50_ms", missing)
	}
}
