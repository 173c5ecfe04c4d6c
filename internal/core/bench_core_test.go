package core

// Micro-benchmarks for the core machinery, complementing the paper-artifact
// benchmarks at the repository root: discovery (sequential vs parallel),
// compaction, and indexed prediction against the linear-scan reference.

import (
	"context"
	"sync"
	"testing"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
)

func benchRelation(b *testing.B, n int) *dataset.Relation {
	b.Helper()
	return piecewiseRelation(n, 0.2, 42)
}

func BenchmarkDiscoverSequential(b *testing.B) {
	rel := benchRelation(b, 4000)
	cfg := discoverCfg(rel, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), rel, WithConfig(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverWorkers4(b *testing.B) {
	rel := benchRelation(b, 4000)
	cfg := discoverCfg(rel, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), rel, WithConfig(cfg), WithWorkers(4)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverNoSharing(b *testing.B) {
	rel := benchRelation(b, 4000)
	cfg := discoverCfg(rel, 0.5)
	cfg.DisableSharing = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), rel, WithConfig(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompact(b *testing.B) {
	rel := benchRelation(b, 4000)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.5)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compact(res.Rules)
	}
}

// benchArtifact is one rule set the classification benchmarks walk, with
// the relation whose tuples they classify.
type benchArtifact struct {
	name  string
	rel   *dataset.Relation
	rules *RuleSet
}

// benchArtifacts mines the classification fixtures once per test binary:
// "piecewise" is the three-regime relation, which yields only a few rules;
// "birdmap" is the static artifact the repository benchmark serves
// (BirdMap, 20k rows, Latitude on Date, 124 binary Date predicates plus one
// equality per bird, sequential, uncompacted), where the rule count gives
// an interval index something to skip.
var benchArtifacts = sync.OnceValue(func() []benchArtifact {
	mine := func(rel *dataset.Relation, cfg DiscoverConfig) *RuleSet {
		res, err := Discover(context.Background(), rel, WithConfig(cfg))
		if err != nil {
			panic(err)
		}
		return res.Rules
	}
	pw := piecewiseRelation(4000, 0.2, 42)
	bcfg := dataset.DefaultBirdMapConfig()
	bcfg.Rows = 20000
	bird := dataset.GenerateBirdMap(bcfg)
	return []benchArtifact{
		{"piecewise", pw, mine(pw, discoverCfg(pw, 0.5))},
		{"birdmap", bird, mine(bird, DiscoverConfig{
			XAttrs: []int{3}, // Date
			YAttr:  0,        // Latitude
			RhoM:   1,
			Preds: predicate.Generate(bird, []int{3, 2}, predicate.GeneratorConfig{
				Kind: predicate.Binary, Size: 128 - bcfg.Birds,
			}),
		})},
	}
})

// Sinks keep the measured calls' results live.
var (
	predictSink  float64
	coveringSink []CoveringEntry
)

func BenchmarkPredictIndexed(b *testing.B) {
	for _, a := range benchArtifacts() {
		b.Run(a.name, func(b *testing.B) {
			a.rules.Predict(a.rel.Tuples[0]) // build the index outside the loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				predictSink, _ = a.rules.Predict(a.rel.Tuples[i%a.rel.Len()])
			}
		})
	}
}

func BenchmarkPredictLinearScan(b *testing.B) {
	for _, a := range benchArtifacts() {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				predictSink, _ = predictLinearScan(a.rules, a.rel.Tuples[i%a.rel.Len()])
			}
		})
	}
}

func BenchmarkCoveringIndexed(b *testing.B) {
	for _, a := range benchArtifacts() {
		b.Run(a.name, func(b *testing.B) {
			buf := a.rules.Covering(a.rel.Tuples[0], nil) // build the index outside the loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = a.rules.Covering(a.rel.Tuples[i%a.rel.Len()], buf[:0])
			}
			coveringSink = buf
		})
	}
}

func BenchmarkCoveringLinearScan(b *testing.B) {
	for _, a := range benchArtifacts() {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coveringSink = coveringScan(a.rules, a.rel.Tuples[i%a.rel.Len()])
			}
		})
	}
}

func BenchmarkPrune(b *testing.B) {
	rel := overRefinedRelation(2000, 0.3, 1)
	res, err := Discover(context.Background(), rel, WithConfig(discoverCfg(rel, 0.1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Prune(rel, res.Rules, PruneOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
