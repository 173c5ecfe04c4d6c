package induction

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/telemetry"
)

// Stability is bootstrap stability selection over a base strategy (pycre's
// stability_selection, and the consistency line of Margot et al.): the
// relation is honest-split into a discovery half and an inference half; the
// base strategy runs on B bootstrap replicates of the discovery half; and
// only conditions whose normalized conjunction recurs in at least ⌈τ·B⌉
// replicates survive. Survivors are refit on the inference half — data the
// condition was never selected on, so the coefficients are honest — and
// published with ρ equal to the model's actual maximum residual over the
// condition's full selection on the input relation.
//
// Unlike the lattice walk and GrowPrune, Stability does not guarantee
// coverage: rows matched by no recurring condition fall through to the
// rule-set fallback. That is the point — it trades coverage for rules that
// are reproducible under resampling. Deterministic for a fixed Seed (the
// replicates force the sequential engine).
type Stability struct {
	// Base is the strategy run on each replicate; nil means the lattice.
	Base core.Strategy
	// B is the number of bootstrap replicates; 0 means 8.
	B int
	// Tau is the survival threshold fraction: a conjunction must recur in at
	// least ⌈τ·B⌉ replicates. 0 means 0.35.
	Tau float64
}

// Name implements core.Strategy.
func (Stability) Name() string { return "stability" }

// Induce implements core.Strategy.
func (s Stability) Induce(ctx context.Context, sub *core.Substrate) (*core.DiscoverResult, error) {
	cfg := sub.Config()
	out := sub.NewResult()
	all := sub.TrainableRows()
	rel := sub.Relation()
	if len(all) == 0 {
		return out, nil
	}
	if rel == nil {
		// Bootstrap replicates resample tuples into fresh relations; a
		// column-store-backed run has none to resample.
		return nil, fmt.Errorf("induction: stability: %w", core.ErrTuplesRequired)
	}
	b := s.B
	if b <= 0 {
		b = 8
	}
	tau := s.Tau
	if tau <= 0 {
		tau = 0.35
	}
	base := s.Base
	if base == nil {
		base = core.LatticeStrategy{}
	}
	keptC := cfg.Telemetry.Counter(telemetry.MetricInductionStabilityKept)
	droppedC := cfg.Telemetry.Counter(telemetry.MetricInductionStabilityDropped)

	// Honest split: a seeded permutation of the rows, half for replicate
	// discovery, half for the final refit. Both halves are restored to row
	// order so every downstream scan stays deterministic.
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(rel.Len())
	mid := rel.Len() / 2
	if mid == 0 {
		mid = rel.Len()
	}
	discRows := append([]int(nil), perm[:mid]...)
	holdRows := append([]int(nil), perm[mid:]...)
	sort.Ints(discRows)
	sort.Ints(holdRows)
	if len(holdRows) == 0 {
		holdRows = discRows // degenerate single-row relations
	}

	// Replicate discovery: the base strategy on B bootstrap samples of the
	// discovery half. Each replicate contributes its normalized conjunctions
	// as a set (recurrence counts replicates, not rules). Builtin shifts from
	// share hits are stripped — survivors are refit from scratch.
	counts := make(map[string]int)
	reps := make(map[string]predicate.Conjunction)
	repCfg := cfg
	repCfg.Strategy = base
	repCfg.Workers = 1 // replicate output must be deterministic
	repCfg.Telemetry = nil
	repCfg.SeedModels = nil
	repCfg.Columns = nil // each replicate mines its own bootstrap relation
	for i := 0; i < b; i++ {
		if err := ctx.Err(); err != nil {
			return nil, core.Canceled(err)
		}
		sample := make([]int, len(discRows))
		for j := range sample {
			sample[j] = discRows[rng.Intn(len(discRows))]
		}
		sort.Ints(sample)
		boot := dataset.NewRelation(rel.Schema)
		boot.Tuples = make([]dataset.Tuple, len(sample))
		for j, ri := range sample {
			boot.Tuples[j] = rel.Tuples[ri]
		}
		res, err := core.Discover(ctx, boot, core.WithConfig(repCfg))
		if err != nil {
			return nil, fmt.Errorf("induction: stability replicate %d: %w", i, err)
		}
		out.Stats.NodesExpanded += res.Stats.NodesExpanded
		out.Stats.ModelsTrained += res.Stats.ModelsTrained
		out.Stats.ShareHits += res.Stats.ShareHits
		seen := make(map[string]bool)
		for _, r := range res.Rules.Rules {
			for _, c := range r.Cond.Conjs {
				rep := stripBuiltin(c)
				key := conjID(rep)
				if seen[key] {
					continue
				}
				seen[key] = true
				counts[key]++
				if _, ok := reps[key]; !ok {
					reps[key] = rep
				}
			}
		}
	}

	// Survivors: conjunctions recurring in ≥ ⌈τ·B⌉ replicates. When nothing
	// clears the bar (heavy noise, fine-grained cuts), fall back to the modal
	// conjunctions so the strategy still reports its most reproducible
	// conditions rather than nothing.
	threshold := int(math.Ceil(tau * float64(b)))
	if threshold < 1 {
		threshold = 1
	}
	var keys []string
	for k, n := range counts {
		if n >= threshold {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		for k, n := range counts {
			if n == best && best > 0 {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)

	// Honest refit on the inference half; publish ρ over the full selection.
	trainable := make(map[int]bool, len(all))
	for _, r := range all {
		trainable[r] = true
	}
	holdTrain := make([]int, 0, len(holdRows))
	for _, r := range holdRows {
		if trainable[r] {
			holdTrain = append(holdTrain, r)
		}
	}
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return nil, core.Canceled(err)
		}
		rep := reps[key]
		sel := holdTrain
		for _, p := range rep.Preds {
			sel = sub.Filter(sel, p)
		}
		if len(sel) < min(cfg.MinSupport, len(holdTrain)) || len(sel) == 0 {
			droppedC.Inc()
			continue
		}
		model, err := sub.Fit(sel)
		if err != nil {
			droppedC.Inc()
			continue
		}
		out.Stats.ModelsTrained++
		full := all
		for _, p := range rep.Preds {
			full = sub.Filter(full, p)
		}
		rho := sub.MaxAbsError(model, full)
		if rho > cfg.RhoM {
			out.Stats.ForcedRules++
		}
		out.Rules.Rules = append(out.Rules.Rules, core.CRR{
			Model:  model,
			Rho:    rho,
			Cond:   predicate.NewDNF(rep.Normalize()),
			XAttrs: out.Rules.XAttrs,
			YAttr:  cfg.YAttr,
		})
		keptC.Inc()
	}
	return out, nil
}

// stripBuiltin rebuilds a conjunction from the normalized predicates alone,
// dropping any builtin y-shift a share hit attached — survivors are refit,
// so carried shifts would be wrong.
func stripBuiltin(c predicate.Conjunction) predicate.Conjunction {
	out := predicate.NewConjunction()
	for _, p := range c.Normalize().Preds {
		out = out.And(p)
	}
	return out
}

// conjID keys a conjunction for recurrence counting: the sorted multiset of
// its predicate renderings, so the same bounds reached in different
// refinement orders count as the same condition.
func conjID(c predicate.Conjunction) string {
	parts := make([]string, len(c.Preds))
	for i, p := range c.Preds {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " ∧ ")
}
