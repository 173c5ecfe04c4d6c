package core_test

import (
	"context"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/telemetry"
	"github.com/crrlab/crr/internal/verify"
)

// TestGramPathMatchesReferenceDiscovery is the engine-level byte-identity
// check of the sufficient-statistics fast path on the unit-test scale (the
// five-dataset comparison lives in internal/experiments): discovery whose
// Line-13 fits come from Gram statistics must produce the same rules, in
// the same order, with bitwise-equal weights and the same stats, as
// verify.ReferenceDiscover, which fits every part from its design matrix.
func TestGramPathMatchesReferenceDiscovery(t *testing.T) {
	rel := core.PiecewiseRelation(600, 0.2, 1)
	cfg := core.DiscoverCfg(rel, 0.5)
	reg := telemetry.New()
	fast, err := core.Discover(context.Background(), rel, core.WithConfig(cfg), core.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counters[telemetry.MetricStatReuse] == 0 {
		t.Fatal("no fit was served by the Gram path")
	}
	ref, err := verify.ReferenceDiscover(context.Background(), rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !experiments.SameRules(fast.Rules, ref.Rules, 0) {
		t.Error("Gram-path discovery not bitwise-identical to the reference")
	}
	if fast.Stats != ref.Stats {
		t.Errorf("stats diverged: %+v vs %+v", fast.Stats, ref.Stats)
	}
}
