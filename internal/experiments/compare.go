package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/eval"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
	"github.com/crrlab/crr/internal/verify"
)

// CompareRow is one engine-vs-reference measurement of discovery on a
// dataset: the same sequential mine run by the engine (columnar scans, Gram
// fits, single-pass share scans) and by verify.ReferenceDiscover (tuple
// scans, design-matrix fits, one ShareTest per model).
type CompareRow struct {
	Dataset string
	Rows    int
	// EngineWall/RefWall are the discovery wall times of the engine and of
	// the reference.
	EngineWall, RefWall time.Duration
	// Trained is the number of Line-13 fits; StatReuse counts how many of
	// the engine's fits the Gram path served.
	Trained   int
	StatReuse int64
	// ScanWidth is the mean number of models per single-pass share scan.
	ScanWidth float64
	// RuleCount is the discovered rule count; Bitwise reports that the
	// engine and the reference produced identical rule sets (same rules,
	// order, conditions and ρ, weights compared with tolerance 0) — the
	// engine's correctness contract.
	RuleCount int
	Bitwise   bool
}

// hotPathSpecs are the five synthetic evaluation datasets the comparison
// (and the byte-identity acceptance check) runs on.
func hotPathSpecs() []DatasetSpec {
	return []DatasetSpec{BirdMapSpec(), AirQualitySpec(), ElectricitySpec(), TaxSpec(), AbaloneSpec()}
}

// HotPathCompare runs the engine against verify.ReferenceDiscover on the
// five evaluation datasets with the sequential engine, so rule order is
// deterministic, and checks their output for bitwise identity.
func HotPathCompare(ctx context.Context, scale float64) ([]CompareRow, error) {
	rows := make([]CompareRow, 0, 5)
	for _, spec := range hotPathSpecs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := scaled(4000, scale, 400)
		rel := spec.Gen(n)
		preds := predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
			Kind: predicate.Binary, Size: 64,
		})
		cfg := core.DiscoverConfig{
			XAttrs:  spec.XAttrs,
			YAttr:   spec.YAttr,
			RhoM:    spec.RhoM,
			Preds:   preds,
			Trainer: regress.LinearTrainer{},
		}

		reg := telemetry.New()
		var engine *core.DiscoverResult
		var err error
		engineWall := eval.Timed(func() {
			engine, err = core.Discover(ctx, rel, core.WithConfig(cfg), core.WithTelemetry(reg))
		})
		if err != nil {
			return nil, fmt.Errorf("compare %s (engine): %w", spec.Name, err)
		}
		var ref *core.DiscoverResult
		refWall := eval.Timed(func() {
			ref, err = verify.ReferenceDiscover(ctx, rel, cfg)
		})
		if err != nil {
			return nil, fmt.Errorf("compare %s (reference): %w", spec.Name, err)
		}

		snap := reg.Snapshot()
		rows = append(rows, CompareRow{
			Dataset:    spec.Name,
			Rows:       rel.Len(),
			EngineWall: engineWall,
			RefWall:    refWall,
			Trained:    engine.Stats.ModelsTrained,
			StatReuse:  snap.Counters[telemetry.MetricStatReuse],
			ScanWidth:  snap.Distributions[telemetry.MetricShareScanWidth].Mean(),
			RuleCount:  engine.Rules.NumRules(),
			Bitwise:    SameRules(engine.Rules, ref.Rules, 0) && engine.Stats == ref.Stats,
		})
	}
	return rows, nil
}

// SameRules reports structural identity of two rule sets: same rule count
// and order, same conditions and bias, and model weights within tol. It is
// the acceptance check of the hot path — the fast paths must not change
// discovery output.
func SameRules(a, b *core.RuleSet, tol float64) bool {
	if a.NumRules() != b.NumRules() {
		return false
	}
	for i := range a.Rules {
		ra, rb := &a.Rules[i], &b.Rules[i]
		if ra.Cond.String() != rb.Cond.String() {
			return false
		}
		if d := ra.Rho - rb.Rho; d > tol || d < -tol {
			return false
		}
		if ra.Model == nil || rb.Model == nil || !ra.Model.Equal(rb.Model, tol) {
			return false
		}
	}
	return true
}

// RenderCompareRows writes the comparison as an aligned table with a
// speedup column, the output of crrbench -compare.
func RenderCompareRows(w io.Writer, rows []CompareRow) error {
	t := eval.NewTable("[compare] discovery: engine vs tuple-scan reference",
		"dataset", "rows", "engine", "reference", "speedup", "trained", "stat-reuse", "scan-width", "#rules", "bitwise")
	for _, r := range rows {
		speedup := "n/a"
		if r.EngineWall > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(r.RefWall)/float64(r.EngineWall))
		}
		t.AddRowf(r.Dataset, r.Rows, r.EngineWall, r.RefWall, speedup,
			r.Trained, r.StatReuse, fmt.Sprintf("%.1f", r.ScanWidth), r.RuleCount, r.Bitwise)
	}
	return t.Render(w)
}

// CompareHotPath adapts HotPathCompare to the experiment registry's row
// shape so `crrbench -exp compare` composes with -format csv like every
// other experiment: the engine maps to method "CRR" and the reference to
// "CRR-reference", with learn time carrying the discovery wall.
func CompareHotPath(ctx context.Context, scale float64) ([]Row, error) {
	cmp, err := HotPathCompare(ctx, scale)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, c := range cmp {
		rows = append(rows,
			Row{
				Experiment: "compare", Dataset: c.Dataset, Method: "CRR",
				Param: "rows", Value: float64(c.Rows),
				Learn: c.EngineWall, Rules: c.RuleCount, Trained: c.Trained,
			},
			Row{
				Experiment: "compare", Dataset: c.Dataset, Method: "CRR-reference",
				Param: "rows", Value: float64(c.Rows),
				Learn: c.RefWall, Rules: c.RuleCount, Trained: c.Trained,
			})
		if !c.Bitwise {
			return nil, fmt.Errorf("compare %s: engine and reference output not bitwise-identical", c.Dataset)
		}
	}
	return rows, nil
}
