package verify_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
	"github.com/crrlab/crr/internal/induction"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/verify"
)

// referenceSpecs are the five evaluation generators.
func referenceSpecs() []experiments.DatasetSpec {
	return []experiments.DatasetSpec{
		experiments.BirdMapSpec(), experiments.AirQualitySpec(), experiments.ElectricitySpec(),
		experiments.TaxSpec(), experiments.AbaloneSpec(),
	}
}

// referenceConfig is the configuration the oracles mine with, over a binary
// predicate space drawn with the given seed.
func referenceConfig(spec experiments.DatasetSpec, rel *dataset.Relation, seed int64) core.DiscoverConfig {
	return core.DiscoverConfig{
		XAttrs: spec.XAttrs,
		YAttr:  spec.YAttr,
		RhoM:   spec.RhoM,
		Preds: predicate.Generate(rel, spec.CondAttrs, predicate.GeneratorConfig{
			Kind: predicate.Binary, Size: 64, Seed: seed,
		}),
		Trainer: regress.LinearTrainer{},
	}
}

// TestReferenceMatchesDiscover: on every generator and two predicate seeds,
// the sequential engine reproduces the reference bitwise — rules, ρ and
// weights at tolerance 0 — with the same DiscoverStats.
func TestReferenceMatchesDiscover(t *testing.T) {
	for _, spec := range referenceSpecs() {
		rel := spec.Gen(500)
		for _, seed := range []int64{3, 29} {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Name, seed), func(t *testing.T) {
				cfg := referenceConfig(spec, rel, seed)
				ref, err := verify.ReferenceDiscover(context.Background(), rel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Discover(context.Background(), rel, core.WithConfig(cfg))
				if err != nil {
					t.Fatal(err)
				}
				if ref.Rules.NumRules() == 0 {
					t.Fatal("reference discovered no rules")
				}
				if d := verify.DiffRuleSets(got.Rules, ref.Rules); d != "" {
					t.Fatalf("engine vs reference: %s", d)
				}
				if got.Stats != ref.Stats {
					t.Fatalf("stats: engine %+v, reference %+v", got.Stats, ref.Stats)
				}
			})
		}
	}
}

// TestReferenceMatchesDiscoverColumns: the relation-free entrypoint over
// the relation's ColumnSet reproduces the reference bitwise as well.
func TestReferenceMatchesDiscoverColumns(t *testing.T) {
	for _, spec := range referenceSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			rel := spec.Gen(500)
			cfg := referenceConfig(spec, rel, 3)
			ref, err := verify.ReferenceDiscover(context.Background(), rel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.DiscoverColumns(context.Background(), dataset.NewColumnSet(rel), core.WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if d := verify.DiffRuleSets(got.Rules, ref.Rules); d != "" {
				t.Fatalf("DiscoverColumns vs reference: %s", d)
			}
		})
	}
}

// TestReferenceRejectsUnmodeledOptions: every option the reference does not
// model is refused with ErrReferenceUnsupported instead of mined.
func TestReferenceRejectsUnmodeledOptions(t *testing.T) {
	spec := experiments.ElectricitySpec()
	rel := spec.Gen(200)
	base := referenceConfig(spec, rel, 3)
	seed, err := regress.LinearTrainer{}.Train([][]float64{{0}, {1}}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*core.DiscoverConfig){
		"FuseShared":     func(c *core.DiscoverConfig) { c.FuseShared = true },
		"Prop8Splits":    func(c *core.DiscoverConfig) { c.Prop8Splits = true },
		"DisableSharing": func(c *core.DiscoverConfig) { c.DisableSharing = true },
		"Increase":       func(c *core.DiscoverConfig) { c.Order = core.Increase },
		"RandomOrder":    func(c *core.DiscoverConfig) { c.Order = core.RandomOrder },
		"SeedModels":     func(c *core.DiscoverConfig) { c.SeedModels = []regress.Model{seed} },
		"Workers":        func(c *core.DiscoverConfig) { c.Workers = 4 },
		"AllCPUs":        func(c *core.DiscoverConfig) { c.Workers = -1 },
		"Strategy":       func(c *core.DiscoverConfig) { c.Strategy = induction.GrowPrune{} },
		"Columns":        func(c *core.DiscoverConfig) { c.Columns = dataset.NewColumnSet(rel) },
		"NilTrainer":     func(c *core.DiscoverConfig) { c.Trainer = nil },
		"NoPredicates":   func(c *core.DiscoverConfig) { c.Preds = nil },
		"DefaultRhoM":    func(c *core.DiscoverConfig) { c.RhoM = 0 },
	} {
		cfg := base
		mutate(&cfg)
		res, err := verify.ReferenceDiscover(context.Background(), rel, cfg)
		if !errors.Is(err, verify.ErrReferenceUnsupported) || res != nil {
			t.Errorf("%s: got (%v, %v), want ErrReferenceUnsupported", name, res, err)
		}
	}
	cfg := base
	cfg.Workers = 1
	if _, err := verify.ReferenceDiscover(context.Background(), rel, cfg); err != nil {
		t.Errorf("Workers=1 is the sequential engine the reference models: %v", err)
	}
}
