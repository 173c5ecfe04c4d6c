package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/crrlab/crr/internal/core"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// warmup is an unrecorded open-loop step before measuring, so connection
// pools and lazily built prediction indexes are ready.
const warmup = 500 * time.Millisecond

// result is everything a run reports.
type result struct {
	correct           bool
	attempted, failed int
	e2e, layer        map[string]float64
	meta              map[string]any
	tr                *tracer
	// pooled holds the pooled tails of the isolated small and batch
	// requests and of the refreshes, printed beside the end-to-end
	// metrics but not part of them.
	pooled []float64
}

// setup is a workload's inputs plus the running fleet.
type setup struct {
	mineIn *mineInput
	fleet  *fleet
	rig    *rig
	feeder *feeder
}

func (s *setup) close() error {
	if s.rig != nil {
		s.rig.close()
	}
	return s.fleet.close()
}

// buildSetup generates the inputs, writes the CSVs, mines the two served
// artifacts, starts the fleet and installs them on every node.
func buildSetup(ctx context.Context, w workload, seed int64, dir string, tr *tracer, chk *mineChecks) (*setup, error) {
	staticIn, err := prepareMine(staticSpec, seed, filepath.Join(dir, "static.csv"))
	if err != nil {
		return nil, err
	}
	streamIn, err := prepareMine(streamSpec, seed+1, filepath.Join(dir, "stream.csv"))
	if err != nil {
		return nil, err
	}
	s := &setup{}
	if s.mineIn, err = prepareMine(w.mine, seed+2, filepath.Join(dir, "train.csv")); err != nil {
		return nil, err
	}
	static, err := mineServed(ctx, staticIn, dir, chk)
	if err != nil {
		return nil, err
	}
	streamed, err := mineServed(ctx, streamIn, dir, chk)
	if err != nil {
		return nil, err
	}
	staticArt, err := encodeRules(static)
	if err != nil {
		return nil, err
	}
	staticRef, err := core.ReadRuleSet(bytes.NewReader(staticArt))
	if err != nil {
		return nil, err
	}
	streamArt, err := encodeRules(streamed)
	if err != nil {
		return nil, err
	}
	if s.fleet, err = startFleet(tr, staticRef); err != nil {
		return nil, err
	}
	if _, err := s.fleet.pushAll(ctx, nil, tenantStatic, staticArt); err != nil {
		s.close()
		return nil, err
	}
	gens, err := s.fleet.pushAll(ctx, nil, tenantStream, streamArt)
	if err != nil {
		s.close()
		return nil, err
	}
	feed := genElectricity(streamSpec.rows, seed+3).Tuples
	if s.feeder, err = newFeeder(s.fleet, streamed, feed, gens); err != nil {
		s.close()
		return nil, err
	}
	if s.rig, err = newRig(s.fleet, runtime.NumCPU(), staticRef, staticIn.heldOut, streamIn.heldOut); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// mineServed mines an artifact once, untraced.
func mineServed(ctx context.Context, in *mineInput, dir string, chk *mineChecks) (*core.RuleSet, error) {
	ing, err := runIngest(ctx, nil, in, dir, chk)
	if err != nil {
		return nil, err
	}
	return ing.mines[0].rules, nil
}

// run sets up, then alternates mining with serve rounds for dur, and
// gathers the metrics.
func run(ctx context.Context, w workload, seed int64, dur time.Duration, traced bool, dir string) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	chk := &mineChecks{}
	var setupS, setupCPU []float64
	var s *setup
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		cpu0, t0 := processCPU(), time.Now()
		var err error
		if s, err = buildSetup(ctx, w, seed, dir, tr, chk); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, processCPU()-cpu0)
	}
	defer func() {
		if err := s.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
		}
	}()
	s.rig.tr, s.feeder.tr = tr, tr
	warm := runStep(ctx, namedRate, warmup, schedule(rand.New(rand.NewSource(-seed)), namedRate, warmup, smallShare), s.rig.send)

	chkBefore := *chk
	before := fleetCounters(s.fleet)
	steal0, total0, stealOK := cpuTicks()
	got, err := s.measure(ctx, w, seed, dur, tr, dir, chk)
	if err != nil {
		return nil, err
	}
	after := fleetCounters(s.fleet)
	steal1, total1, _ := cpuTicks()
	ings := got.ings

	res := &result{tr: tr, e2e: map[string]float64{}, meta: map[string]any{}}
	mines := chk.run - chkBefore.run
	outcomes := append(append([]outcome(nil), got.isolated.outcomes...), got.named.outcomes...)
	var capacity, wallRate []float64
	for _, c := range got.capacity {
		outcomes = append(outcomes, c.outcomes...)
		ok := 0
		for _, o := range c.outcomes {
			if !o.failed {
				ok++
			}
		}
		capacity = append(capacity, float64(ok)/c.cpuS*float64(runtime.NumCPU()))
		wallRate = append(wallRate, float64(ok)/c.wallS)
	}
	reqFailed := 0
	for _, o := range outcomes {
		if o.failed {
			reqFailed++
		}
	}
	fd := s.feeder
	res.attempted = mines + len(outcomes) + fd.pushes
	res.failed = chk.failed - chkBefore.failed + reqFailed + fd.failed
	res.correct = chk.failed == 0 && s.rig.checkFails.Load() == 0 && fd.failed == 0

	e := res.e2e
	e["setup_s"] = median(setupCPU)
	var ingestS, mineS, ingestCPU, mineCPU, heap, rmse, cov []float64
	for _, ing := range ings {
		ingestS, ingestCPU = append(ingestS, ing.ingestS), append(ingestCPU, ing.ingestCPU)
		for _, m := range ing.mines {
			mineS, heap = append(mineS, m.mineS), append(heap, m.heapMB)
			mineCPU = append(mineCPU, m.mineCPU)
			rmse, cov = append(rmse, m.rmse), append(cov, m.coverage)
		}
	}
	rows := float64(s.mineIn.spec.rows)
	e["ingest_rows_per_cpu_s"] = rows / median(ingestCPU)
	e["mine_rows_per_cpu_s"] = rows / median(mineCPU)
	// The lower quartile: a mine's peak is higher when its collections
	// fall behind its allocation, so it varies with how much CPU the host
	// leaves the process; on mine-wide it ranged over 45-67 MB from mine
	// to mine within one run.
	e["mine_peak_heap_mb"] = percentile(heap, 25)
	e["test_rmse"] = median(rmse)
	e["test_coverage"] = median(cov)
	small, batch := got.isolated.latencies(classSmall), got.isolated.latencies(classBatch)
	e["small_p50_ms"], e["batch_p50_ms"] = median(small), median(batch)
	e["capacity_rps"] = median(capacity)
	e["success_ratio"] = float64(res.attempted-res.failed) / float64(res.attempted)
	e["refresh_p50_ms"] = median(fd.refreshMs)

	m := res.meta
	m["workload_seconds"] = dur.Seconds()
	m["wall"] = map[string]float64{
		"setup_s": median(setupS), "ingest_rows_per_s": rows / median(ingestS), "mine_rows_per_s": rows / median(mineS),
		"capacity_rps": median(wallRate),
	}
	m["machine"] = machine()
	if stealOK && total1 > total0 {
		// The hypervisor's share of the CPU time during the measured part.
		m["steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	m["seed"] = seed
	m["served_rules"] = map[string]int{"static": s.rig.static.NumRules(), "stream_live": s.feeder.m.Live()}
	m["named_rate_rps"] = namedRate
	m["small_share"] = smallShare
	m["capacity"] = map[string]any{
		"conns": capacityConns * runtime.NumCPU(), "slices": len(capacity),
		"cpu_normalised_rps": capacity,
	}
	m["limits"] = map[string]float64{
		"small_tail_ms": serveLimits.smallTailMs, "batch_tail_ms": serveLimits.batchTailMs,
		"max_error_ratio": serveLimits.maxErrorRatio, "late_slack_ms": serveLimits.lateSlackMs,
		"max_late_share": serveLimits.maxLateShare, "max_backlog_s": serveLimits.maxBacklogS,
	}
	smallTail, batchTail, refresh := tailOf(small), tailOf(batch), tailOf(fd.refreshMs)
	m["tails"] = map[string]tail{"small_tail_ms": smallTail, "batch_tail_ms": batchTail, "refresh_tail_ms": refresh}
	res.pooled = []float64{smallTail.Value, batchTail.Value, refresh.Value}
	m["named_step"] = got.named.stats(serveLimits)
	m["samples"] = map[string]int{
		"setups": len(setupS), "ingests": len(ings), "mines": len(mineS), "requests": len(outcomes),
		"isolated_small": len(small), "isolated_batch": len(batch), "capacity_slices": len(capacity),
		"named_rate_requests": len(got.named.outcomes), "warmup_requests": len(warm.outcomes),
		"pushes": fd.pushes, "refreshes": len(fd.refreshMs),
		"output_checks": chk.run + int(s.rig.checks.Load()) + fd.pushes,
	}
	m["check_failures"] = map[string]any{
		"mines": chk.failed, "responses": s.rig.checkFails.Load(), "responses_first": s.rig.checkErrs,
		"pushes": fd.failed,
	}
	if traced {
		if res.layer, err = layerMetrics(s, ings, got.isolated.outcomes, got.named.outcomes, before, after); err != nil {
			return nil, err
		}
		res.layer["trace.overhead_mine_ratio"] = median(got.tracedMineS) / median(got.plainMineS)
	}
	return res, nil
}

// measured is what the measured part of a run collected.
type measured struct {
	ings                    []ingestSample
	tracedMineS, plainMineS []float64
	isolated                stepResult // one-connection closed-loop requests
	capacity                []closedResult
	named                   stepResult // every slice at namedRate
}

// Lengths of the parts of a serve round: isolated small requests, then
// isolated batches, then a capacity slice, each isoDur, then a slice at
// the named rate with the stream beside it.
const (
	isoDur   = 500 * time.Millisecond
	sliceDur = time.Second
)

// measure runs the measured part of a run for dur. It alternates mine
// slices (one ingest and its mines) with serve rounds, keeping mining at
// its share of the time. Interleaving spreads every metric's samples over
// the whole run, so a few seconds in which the machine is slow touch a
// share of each metric instead of all of one. In a traced run every other
// ingest is untraced, so the two halves give the tracing overhead on
// mining.
func (s *setup) measure(ctx context.Context, w workload, seed int64, dur time.Duration, tr *tracer, dir string, chk *mineChecks) (*measured, error) {
	m := &measured{named: stepResult{rate: namedRate}}
	var mineUsed, serveUsed time.Duration
	// Whatever dur, there is at least one slice of each kind.
	for round := 0; mineUsed+serveUsed < dur || len(m.ings) == 0 || round == 0; {
		if len(m.ings) > 0 && float64(mineUsed) >= w.mineShare*float64(mineUsed+serveUsed) {
			t0 := time.Now()
			rs := seed*1009 + int64(round)*4
			for _, share := range []float64{1, 0} {
				c := runClosed(ctx, 1, isoDur, rs, share, s.rig.send)
				m.isolated.add(stepResult{outcomes: c.outcomes, dur: time.Duration(c.wallS * float64(time.Second))})
				rs++
			}
			m.capacity = append(m.capacity, runClosed(ctx, capacityConns*runtime.NumCPU(), isoDur, rs, smallShare, s.rig.send))
			st, err := s.serveSlice(ctx, namedRate, sliceDur, schedule(rand.New(rand.NewSource(rs+1)), namedRate, sliceDur, smallShare))
			if err != nil {
				return nil, err
			}
			m.named.add(st)
			serveUsed += time.Since(t0)
			round++
			continue
		}
		itr := tr
		if len(m.ings)%2 == 1 {
			itr = nil
		}
		t0 := time.Now()
		ing, err := runIngest(ctx, itr, s.mineIn, dir, chk)
		if err != nil {
			return nil, fmt.Errorf("mine: %w", err)
		}
		mineUsed += time.Since(t0)
		// Collect the mine's garbage and return its memory to the OS
		// now, so neither lands on the serve round after it.
		debug.FreeOSMemory()
		m.ings = append(m.ings, ing)
		for _, mine := range ing.mines {
			if itr != nil {
				m.tracedMineS = append(m.tracedMineS, mine.mineS)
			} else {
				m.plainMineS = append(m.plainMineS, mine.mineS)
			}
		}
	}
	return m, nil
}

// serveSlice runs one open-loop slice with the stream refreshing beside
// it.
func (s *setup) serveSlice(ctx context.Context, rate float64, dur time.Duration, ops []op) (stepResult, error) {
	stop := make(chan struct{})
	feedDone := make(chan error, 1)
	go func() { feedDone <- s.feeder.run(ctx, stop) }()
	st := runStep(ctx, rate, dur, ops, s.rig.send)
	close(stop)
	return st, <-feedDone
}

// counters are the fleet's telemetry counters, summed over nodes.
type counters map[string]float64

func fleetCounters(f *fleet) counters {
	c := counters{}
	for _, n := range f.nodes {
		for k, v := range n.reg.Snapshot().Counters {
			c[k] += float64(v)
		}
	}
	for k, v := range f.rreg.Snapshot().Counters {
		c[k] += float64(v)
	}
	return c
}

func (c counters) diff(before counters, name string) float64 { return c[name] - before[name] }
