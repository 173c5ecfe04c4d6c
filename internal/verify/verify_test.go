package verify_test

import (
	"context"
	"strings"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/telemetry"
	"github.com/crrlab/crr/internal/verify"
)

// targetFromSpec builds a small verification target from an experiment
// dataset spec.
func targetFromSpec(spec experiments.DatasetSpec, rows int) verify.Target {
	return verify.Target{
		Name:       spec.Name,
		Rel:        spec.Gen(rows),
		XAttrs:     spec.XAttrs,
		YAttr:      spec.YAttr,
		CondAttrs:  spec.CondAttrs,
		RhoM:       spec.RhoM,
		CompactTol: spec.CompactTol,
	}
}

// TestRunBirdMap runs the full oracle matrix (serve parity included) on a
// small BirdMap slice and expects zero divergences.
func TestRunBirdMap(t *testing.T) {
	reg := telemetry.New()
	rep, err := verify.Run(context.Background(), []verify.Target{targetFromSpec(experiments.BirdMapSpec(), 400)}, verify.Options{
		Seed:      1,
		Telemetry: reg,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("divergences: %+v", rep.Datasets[0].Divergences)
	}
	if rep.OraclesRun == 0 {
		t.Fatal("no oracles ran")
	}
	dr := rep.Datasets[0]
	if dr.Rules == 0 || dr.SoundnessApps == 0 {
		t.Fatalf("expected discovered rules and compaction applications, got %+v", dr)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricVerifyOraclesRun]; got != int64(rep.OraclesRun) {
		t.Fatalf("telemetry oracles_run = %d, report says %d", got, rep.OraclesRun)
	}
	if got := snap.Counters[telemetry.MetricVerifyDivergences]; got != 0 {
		t.Fatalf("telemetry divergences = %d, want 0", got)
	}
}

// TestRunTaxQuick covers a categorical-condition dataset with the expensive
// suites skipped (the path cmd/crrverify -quick exercises).
func TestRunTaxQuick(t *testing.T) {
	rep, err := verify.Run(context.Background(), []verify.Target{targetFromSpec(experiments.TaxSpec(), 400)}, verify.Options{
		Seed:            1,
		SkipServe:       true,
		SkipMetamorphic: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("divergences: %+v", rep.Datasets[0].Divergences)
	}
}

// TestRunRespectsCancel verifies that a canceled context aborts the run with
// the context error rather than a divergence report.
func TestRunRespectsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := verify.Run(ctx, []verify.Target{targetFromSpec(experiments.AbaloneSpec(), 100)}, verify.Options{}); err == nil {
		t.Fatal("Run on canceled context succeeded")
	}
}

func TestDiffRuleSets(t *testing.T) {
	spec := experiments.ElectricitySpec()
	tgt := targetFromSpec(spec, 300)
	cfg := verify.BaseConfig(tgt, tgt.Rel, 64)
	res, err := core.Discover(context.Background(), tgt.Rel, core.WithConfig(cfg))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	a := res.Rules
	if a.NumRules() == 0 {
		t.Fatal("no rules discovered")
	}
	if d := verify.DiffRuleSets(a, a); d != "" {
		t.Fatalf("self-diff: %s", d)
	}

	res2, err := core.Discover(context.Background(), tgt.Rel, core.WithConfig(cfg))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	b := res2.Rules
	if d := verify.DiffRuleSets(a, b); d != "" {
		t.Fatalf("re-discovery diff: %s", d)
	}

	b.Rules[0].Rho = a.Rules[0].Rho + 1e-12
	if d := verify.DiffRuleSets(a, b); !strings.Contains(d, "ρ") {
		t.Fatalf("ρ perturbation not detected: %q", d)
	}
	b.Rules[0].Rho = a.Rules[0].Rho
	b.Fallback++
	if d := verify.DiffRuleSets(a, b); !strings.Contains(d, "fallback") {
		t.Fatalf("fallback perturbation not detected: %q", d)
	}
}

func TestDriftBoundScalesWithDomain(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric},
	)
	rel := dataset.NewRelation(schema)
	rel.MustAppend(dataset.Tuple{dataset.Num(-200), dataset.Num(1)})
	rel.MustAppend(dataset.Tuple{dataset.Num(50), dataset.Num(2)})
	rel.MustAppend(dataset.Tuple{dataset.Null(), dataset.Num(3)})
	if got, want := verify.XScale(rel, []int{0}), 201.0; got != want {
		t.Fatalf("xScale = %g, want %g", got, want)
	}
	if b := verify.DriftBound(0.01, 201); b < 2*0.01*201 {
		t.Fatalf("driftBound %g below 2·tol·scale", b)
	}
}
