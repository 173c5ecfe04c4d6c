package verify

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// ErrReferenceUnsupported reports a configuration ReferenceDiscover does not
// model. The reference refuses it rather than silently mining something the
// engine would not.
var ErrReferenceUnsupported = errors.New("verify: reference discovery does not model this option")

// ReferenceDiscover is a deliberately plain Algorithm 1 — the oracle the
// discovery engine is checked against. It shares no kernel with the engine:
// it reads Tuple cells, filters with predicate.Sat, fits every part with
// Trainer.Train on its design matrix (no Gram statistics), and tests sharing
// with regress.ShareTest, newest model first. Split scoring repeats the
// engine's arithmetic written out on its own — the same sort.Slice over the
// part, the same prefix-sum gain and the same gain/attr/cut tie-break — so
// that on the configurations it models, core.Discover with Workers ≤ 1 must
// reproduce its output bitwise.
//
// It models only the sequential, Decrease-ordered lattice walk over an
// explicit configuration: Preds, Trainer and a positive RhoM must be set,
// MinSupport and MaxNodes take the engine's documented defaults when zero.
// FuseShared, Prop8Splits, DisableSharing, a non-Decrease Order,
// SeedModels, Workers other than 0 or 1, a Strategy and a supplied Columns
// substrate return an error wrapping ErrReferenceUnsupported. Telemetry and
// Seed are ignored (Seed only drives RandomOrder).
func ReferenceDiscover(ctx context.Context, rel *dataset.Relation, cfg core.DiscoverConfig) (*core.DiscoverResult, error) {
	if err := referenceSupports(cfg); err != nil {
		return nil, err
	}
	if rel == nil || rel.Len() == 0 {
		return nil, core.ErrEmptyRelation
	}
	if rel.Schema.Attr(cfg.YAttr).Kind != dataset.Numeric {
		return nil, core.ErrNonNumericTarget
	}
	for _, a := range cfg.XAttrs {
		if a == cfg.YAttr {
			return nil, core.ErrTrivialTarget
		}
	}
	for _, p := range cfg.Preds {
		if p.Attr == cfg.YAttr {
			return nil, core.ErrPredicateOnTarget
		}
	}
	minSupport := cfg.MinSupport
	if minSupport <= 0 {
		minSupport = len(cfg.XAttrs) + 2
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 64*rel.Len() + 4096
	}

	r := &reference{rel: rel, cfg: cfg, splits: newRefSplits(cfg.Preds)}
	var trainable []int
	var ysum float64
	for i, t := range rel.Tuples {
		if r.trainable(t) {
			trainable = append(trainable, i)
			ysum += t[cfg.YAttr].Num
		}
	}
	out := &core.DiscoverResult{Rules: &core.RuleSet{
		Schema: rel.Schema,
		XAttrs: append([]int(nil), cfg.XAttrs...),
		YAttr:  cfg.YAttr,
	}}
	if len(trainable) == 0 {
		return out, nil
	}
	out.Rules.Fallback = ysum / float64(len(trainable))

	emit := func(m regress.Model, rho float64, conj predicate.Conjunction) {
		out.Rules.Rules = append(out.Rules.Rules, core.CRR{
			Model:  m,
			Rho:    rho,
			Cond:   predicate.NewDNF(conj.Normalize()),
			XAttrs: out.Rules.XAttrs,
			YAttr:  cfg.YAttr,
		})
	}

	var models []regress.Model // the shared model set F, oldest first
	queue := []refNode{{conj: predicate.NewConjunction(), rows: trainable}}
	visited := map[string]bool{refKey(queue[0].conj): true}
	seq := 0
	for len(queue) > 0 && out.Stats.NodesExpanded < maxNodes {
		if err := ctx.Err(); err != nil {
			return nil, core.Canceled(err)
		}
		var node refNode
		node, queue = popBest(queue)
		if len(node.rows) == 0 {
			continue
		}
		out.Stats.NodesExpanded++
		x, y := r.design(node.rows)

		// Lines 7–12: try every model newest first; the sharing index
		// ind(C) is the best fit fraction among the models tried.
		var ind float64
		shared := false
		for i := len(models) - 1; i >= 0; i-- {
			res := regress.ShareTest(models[i], x, y, cfg.RhoM)
			if res.FitFraction > ind {
				ind = res.FitFraction
			}
			if res.OK {
				conj := node.conj.Clone()
				conj.Builtin = conj.Builtin.WithYShift(res.Delta0)
				emit(models[i], res.MaxErr, conj)
				out.Stats.ShareHits++
				shared = true
				break
			}
		}
		if shared {
			continue
		}

		// Lines 13–18: train, accept within ρ_M or at the MinSupport floor.
		m, err := cfg.Trainer.Train(x, y)
		if err != nil {
			return nil, fmt.Errorf("verify: reference training on %d tuples: %w", len(x), err)
		}
		out.Stats.ModelsTrained++
		maxErr := regress.MaxAbsError(m, x, y)
		var children []refChild
		if !(maxErr <= cfg.RhoM) && len(node.rows) > minSupport {
			children = r.bestSplit(node.rows)
		}
		if len(children) == 0 {
			// Within ρ_M, or forced: at the MinSupport floor or unsplittable.
			emit(m, maxErr, node.conj)
			models = append(models, m)
			if !(maxErr <= cfg.RhoM) {
				out.Stats.ForcedRules++
			}
			continue
		}

		// Lines 19–22: refine; children inherit ind(C) as their priority.
		for _, ch := range children {
			conj := node.conj.And(ch.pred)
			key := refKey(conj)
			if visited[key] {
				continue
			}
			visited[key] = true
			seq++
			queue = append(queue, refNode{conj: conj, rows: ch.rows, prio: ind, seq: seq})
		}
	}

	// MaxNodes tripped: every part still queued gets its own model, in queue
	// order, so Σ still covers D.
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, core.Canceled(err)
		}
		var node refNode
		node, queue = popBest(queue)
		if len(node.rows) == 0 {
			continue
		}
		x, y := r.design(node.rows)
		m, err := cfg.Trainer.Train(x, y)
		if err != nil {
			return nil, fmt.Errorf("verify: reference training on %d tuples: %w", len(x), err)
		}
		out.Stats.ModelsTrained++
		out.Stats.ForcedRules++
		emit(m, regress.MaxAbsError(m, x, y), node.conj)
	}
	return out, nil
}

// referenceSupports rejects every option the reference does not model.
func referenceSupports(cfg core.DiscoverConfig) error {
	var why string
	switch {
	case cfg.FuseShared:
		why = "FuseShared"
	case cfg.Prop8Splits:
		why = "Prop8Splits"
	case cfg.DisableSharing:
		why = "DisableSharing"
	case cfg.Order != core.Decrease:
		why = "queue order " + cfg.Order.String()
	case len(cfg.SeedModels) > 0:
		why = "SeedModels"
	case cfg.Workers > 1 || cfg.Workers < 0:
		why = fmt.Sprintf("Workers=%d", cfg.Workers)
	case cfg.Strategy != nil:
		why = "strategy " + cfg.Strategy.Name()
	case cfg.Columns != nil:
		why = "a Columns substrate"
	case cfg.Trainer == nil:
		why = "a nil Trainer"
	case len(cfg.Preds) == 0:
		why = "an empty predicate space"
	case cfg.RhoM <= 0:
		why = "a non-positive RhoM"
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", ErrReferenceUnsupported, why)
}

// reference is the state of one reference run.
type reference struct {
	rel    *dataset.Relation
	cfg    core.DiscoverConfig
	splits refSplits
}

// trainable reports whether t has non-null X and Y cells.
func (r *reference) trainable(t dataset.Tuple) bool {
	if t[r.cfg.YAttr].Null {
		return false
	}
	for _, a := range r.cfg.XAttrs {
		if t[a].Null {
			return false
		}
	}
	return true
}

// design returns the part's design matrix and targets, freshly allocated.
func (r *reference) design(rows []int) ([][]float64, []float64) {
	x := make([][]float64, len(rows))
	y := make([]float64, len(rows))
	for i, ti := range rows {
		t := r.rel.Tuples[ti]
		x[i] = make([]float64, len(r.cfg.XAttrs))
		for j, a := range r.cfg.XAttrs {
			x[i][j] = t[a].Num
		}
		y[i] = t[r.cfg.YAttr].Num
	}
	return x, y
}

// refNode is one queued conjunction with the rows it selects; the queue pops
// the highest prio, the earliest seq among ties.
type refNode struct {
	conj predicate.Conjunction
	rows []int
	prio float64
	seq  int
}

// popBest removes and returns the node with the highest priority, earliest
// pushed first among equals.
func popBest(queue []refNode) (refNode, []refNode) {
	best := 0
	for i := 1; i < len(queue); i++ {
		if queue[i].prio > queue[best].prio ||
			(queue[i].prio == queue[best].prio && queue[i].seq < queue[best].seq) {
			best = i
		}
	}
	node := queue[best]
	queue[best] = queue[len(queue)-1]
	return node, queue[:len(queue)-1]
}

// refKey identifies a conjunction up to equivalence: the sorted renderings
// of its normalized predicates.
func refKey(c predicate.Conjunction) string {
	n := c.Normalize()
	parts := make([]string, len(n.Preds))
	for i, p := range n.Preds {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x00")
}

// refSplits is the split structure of the predicate space: per numeric
// attribute the cut constants c with both A > c and A ≤ c present, and per
// categorical attribute its distinct equality predicates in first-appearance
// order.
type refSplits struct {
	numAttrs []int
	cuts     map[int][]float64
	catAttrs []int
	catPreds map[int][]predicate.Predicate
}

func newRefSplits(preds []predicate.Predicate) refSplits {
	type cut struct {
		attr int
		c    float64
	}
	type value struct {
		attr int
		v    string
	}
	gt := map[cut]bool{}
	for _, p := range preds {
		if !p.Categorical && p.Op == predicate.Gt {
			gt[cut{p.Attr, p.Num}] = true
		}
	}
	s := refSplits{cuts: map[int][]float64{}, catPreds: map[int][]predicate.Predicate{}}
	seenCut, seenVal := map[cut]bool{}, map[value]bool{}
	for _, p := range preds {
		switch {
		case p.Categorical:
			if seenVal[value{p.Attr, p.Str}] {
				continue
			}
			seenVal[value{p.Attr, p.Str}] = true
			if len(s.catPreds[p.Attr]) == 0 {
				s.catAttrs = append(s.catAttrs, p.Attr)
			}
			s.catPreds[p.Attr] = append(s.catPreds[p.Attr], p)
		case p.Op == predicate.Le && gt[cut{p.Attr, p.Num}] && !seenCut[cut{p.Attr, p.Num}]:
			seenCut[cut{p.Attr, p.Num}] = true
			if len(s.cuts[p.Attr]) == 0 {
				s.numAttrs = append(s.numAttrs, p.Attr)
			}
			s.cuts[p.Attr] = append(s.cuts[p.Attr], p.Num)
		}
	}
	for _, cuts := range s.cuts {
		sort.Float64s(cuts)
	}
	sort.Ints(s.numAttrs)
	sort.Ints(s.catAttrs)
	return s
}

// refChild is one child of the chosen split.
type refChild struct {
	pred predicate.Predicate
	rows []int
}

// refCand is one scored split: a numeric cut on attr, or (numeric false) the
// equality fan of a categorical attr.
type refCand struct {
	gain    float64
	numeric bool
	attr    int
	cut     float64
}

// better is the engine's candidate order: larger gain, then smaller
// attribute, then smaller cut.
func (c refCand) better(o refCand) bool {
	if c.gain != o.gain {
		return c.gain > o.gain
	}
	if c.attr != o.attr {
		return c.attr < o.attr
	}
	return c.cut < o.cut
}

// bestSplit scores every numeric cut and categorical fan by its reduction of
// the target's sum of squared errors and returns the children of the best
// one, or nil when nothing reduces it.
func (r *reference) bestSplit(rows []int) []refChild {
	yattr := r.cfg.YAttr
	total := r.sse(rows)
	var best refCand
	found := false
	consider := func(c refCand) {
		if c.gain > 0 && (!found || c.better(best)) {
			best, found = c, true
		}
	}

	for _, a := range r.splits.numAttrs {
		n := len(rows)
		vals := make([]float64, n)
		ys := make([]float64, n)
		order := make([]int, n)
		for i, ti := range rows {
			order[i] = i
			vals[i] = r.rel.Tuples[ti][a].Num
			ys[i] = r.rel.Tuples[ti][yattr].Num
		}
		sort.Slice(order, func(i, j int) bool { return vals[order[i]] < vals[order[j]] })
		sorted := make([]float64, n)
		s1 := make([]float64, n+1)
		s2 := make([]float64, n+1)
		for i, oi := range order {
			sorted[i] = vals[oi]
			s1[i+1] = s1[i] + ys[oi]
			s2[i+1] = s2[i] + ys[oi]*ys[oi]
		}
		sseRange := func(lo, hi int) float64 {
			sum := s1[hi] - s1[lo]
			return (s2[hi] - s2[lo]) - sum*sum/float64(hi-lo)
		}
		for _, c := range r.splits.cuts[a] {
			pos := sort.Search(n, func(i int) bool { return sorted[i] > c })
			if pos == 0 || pos == n {
				continue
			}
			consider(refCand{gain: total - sseRange(0, pos) - sseRange(pos, n), numeric: true, attr: a, cut: c})
		}
	}

	for _, a := range r.splits.catAttrs {
		groups := map[string][]int{}
		for _, ti := range rows {
			v := r.rel.Tuples[ti][a].Str
			groups[v] = append(groups[v], ti)
		}
		if len(groups) < 2 {
			continue
		}
		values := make([]string, 0, len(groups))
		for v := range groups {
			values = append(values, v)
		}
		sort.Strings(values)
		fanned := true
		var childSSE float64
		for _, v := range values {
			if !r.inFan(a, v) {
				fanned = false
				break
			}
			childSSE += r.sse(groups[v])
		}
		if fanned {
			consider(refCand{gain: total - childSSE, attr: a})
		}
	}

	if !found {
		return nil
	}
	var preds []predicate.Predicate
	if best.numeric {
		preds = []predicate.Predicate{
			predicate.NumPred(best.attr, predicate.Le, best.cut),
			predicate.NumPred(best.attr, predicate.Gt, best.cut),
		}
	} else {
		preds = r.splits.catPreds[best.attr]
	}
	var children []refChild
	for _, p := range preds {
		var sel []int
		for _, ti := range rows {
			if p.Sat(r.rel.Tuples[ti]) {
				sel = append(sel, ti)
			}
		}
		if best.numeric || len(sel) > 0 {
			children = append(children, refChild{pred: p, rows: sel})
		}
	}
	return children
}

// inFan reports whether the categorical attribute's fan has an equality
// predicate for value v.
func (r *reference) inFan(attr int, v string) bool {
	for _, p := range r.splits.catPreds[attr] {
		if p.Str == v {
			return true
		}
	}
	return false
}

// sse is Σ (y − ȳ)² over the rows' target values, summed in row order.
func (r *reference) sse(rows []int) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, ti := range rows {
		sum += r.rel.Tuples[ti][r.cfg.YAttr].Num
	}
	mean := sum / float64(len(rows))
	var s float64
	for _, ti := range rows {
		d := r.rel.Tuples[ti][r.cfg.YAttr].Num - mean
		s += d * d
	}
	return s
}
