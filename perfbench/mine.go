package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/crrlab/crr/internal/colstore"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/telemetry"
)

// mineSpec is one mining pipeline over one generated dataset.
type mineSpec struct {
	gen      func(rows int, seed int64) *dataset.Relation
	rows     int // training rows
	heldOut  int // scoring rows, generated from a different seed
	xattrs   []int
	yattr    int
	cond     []int
	rhoM     float64
	predSize int // binary predicate pairs per numeric condition attribute
	// store selects CSV → colstore.BuildCSVFile → mmap → DiscoverColumns;
	// otherwise CSV → dataset.ReadCSV → Discover in memory.
	store      bool
	workers    int // discovery workers; ≤ 1 is the sequential engine
	compact    bool
	compactTol float64
	// minesPerIngest is how many mines share one ingest, so an expensive
	// ingest does not starve the mine medians of samples.
	minesPerIngest int
}

// mineInput is a spec with its generated files and held-out rows.
type mineInput struct {
	spec     mineSpec
	csv      string
	csvBytes int64
	heldOut  *dataset.Relation
}

// heldOutSeed derives the scoring seed, so held-out rows never repeat
// training rows.
func heldOutSeed(seed int64) int64 { return seed*7919 + 104729 }

// prepareMine generates the training CSV and the held-out rows.
func prepareMine(spec mineSpec, seed int64, csvPath string) (*mineInput, error) {
	if err := writeCSV(csvPath, spec.gen(spec.rows, seed)); err != nil {
		return nil, err
	}
	fi, err := os.Stat(csvPath)
	if err != nil {
		return nil, err
	}
	return &mineInput{spec: spec, csv: csvPath, csvBytes: fi.Size(), heldOut: spec.gen(spec.heldOut, heldOutSeed(seed))}, nil
}

func writeCSV(path string, rel *dataset.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataset.WriteCSV(f, rel); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mineSample is one mine: its timings, its heap growth, its score and the
// per-layer figures taken from its telemetry registry.
type mineSample struct {
	mineS    float64 // open/column build + predicates + discovery + compaction
	mineCPU  float64 // process CPU seconds over the same span
	heapMB   float64 // peak heap during the mine above the heap at its start
	rmse     float64
	coverage float64
	rules    *core.RuleSet // the rules as served: compacted when the spec compacts
	layer    map[string]float64
}

// ingestSample is one ingest and the mines that used it.
type ingestSample struct {
	ingestS   float64
	ingestCPU float64 // process CPU seconds over the same span
	layer     map[string]float64
	mines     []mineSample
}

// mineChecks counts output checks: every discovered rule set must be
// non-empty and hold on its training rows. The check runs before
// compaction, whose model tolerance trades a bounded drift for fewer rules.
type mineChecks struct{ run, failed int }

// runIngest ingests in.csv once and mines the result spec.minesPerIngest
// times. scratch is a directory the store pipeline may use.
func runIngest(ctx context.Context, tr *tracer, in *mineInput, scratch string, chk *mineChecks) (ingestSample, error) {
	if in.spec.store {
		return runStoreIngest(ctx, tr, in, scratch, chk)
	}
	return runMemoryIngest(ctx, tr, in, chk)
}

func runStoreIngest(ctx context.Context, tr *tracer, in *mineInput, scratch string, chk *mineChecks) (ingestSample, error) {
	spec := in.spec
	dir := filepath.Join(scratch, "store")
	if err := os.RemoveAll(dir); err != nil {
		return ingestSample{}, err
	}
	defer os.RemoveAll(dir)
	sp := tr.begin("colstore.build", 0, 0)
	cpu0, t0 := processCPU(), time.Now()
	if err := colstore.BuildCSVFile(dir, in.csv, 0); err != nil {
		return ingestSample{}, fmt.Errorf("build store: %w", err)
	}
	ing := ingestSample{ingestS: time.Since(t0).Seconds(), ingestCPU: processCPU() - cpu0, layer: map[string]float64{}}
	sp.end()
	ing.layer["colstore.build_s"] = ing.ingestS
	ing.layer["colstore.bytes_per_csv_byte"] = float64(dirBytes(dir)) / float64(in.csvBytes)

	for k := 0; k < spec.minesPerIngest; k++ {
		reg := telemetry.New()
		heap := startHeapWatch()
		cpu0, t0 := processCPU(), time.Now()
		sp := tr.begin("colstore.open", 0, 0)
		st, err := colstore.OpenWith(dir, colstore.OpenOptions{Telemetry: reg})
		sp.end()
		if err != nil {
			heap.stop()
			return ing, fmt.Errorf("open store: %w", err)
		}
		tOpen := time.Now()
		cols := st.Columns()
		m, err := mineOnce(tr, spec, reg, func() []predicate.Predicate {
			return predicate.GenerateColumns(cols, spec.cond, predicate.GeneratorConfig{Kind: predicate.Binary, Size: spec.predSize})
		}, func(cfg core.DiscoverConfig) (*core.DiscoverResult, error) {
			return core.DiscoverColumns(ctx, cols, core.WithConfig(cfg))
		})
		m.mineS, m.mineCPU = time.Since(t0).Seconds(), processCPU()-cpu0
		m.heapMB = heap.stop()
		if err != nil {
			st.Close()
			return ing, err
		}
		m.layer["colstore.open_ms"] = ms(tOpen.Sub(t0))
		m.layer["colstore.bytes_mapped"] = float64(reg.Counter(telemetry.MetricColstoreBytesMapped).Value())
		// ViolationsColumns is bitwise-identical to the row path, so an
		// empty result is core.HoldsAll over the mapped training rows.
		chk.run++
		if len(m.raw.Rules) == 0 || len(core.ViolationsColumns(cols, m.raw)) != 0 {
			chk.failed++
		}
		if err := st.Close(); err != nil {
			return ing, err
		}
		in.score(tr, &m.mineSample)
		ing.mines = append(ing.mines, m.mineSample)
	}
	return ing, nil
}

func runMemoryIngest(ctx context.Context, tr *tracer, in *mineInput, chk *mineChecks) (ingestSample, error) {
	spec := in.spec
	sp := tr.begin("dataset.read_csv", 0, 0)
	cpu0, t0 := processCPU(), time.Now()
	f, err := os.Open(in.csv)
	if err != nil {
		return ingestSample{}, err
	}
	rel, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return ingestSample{}, fmt.Errorf("read csv: %w", err)
	}
	ing := ingestSample{ingestS: time.Since(t0).Seconds(), ingestCPU: processCPU() - cpu0, layer: map[string]float64{}}
	sp.end()
	ing.layer["dataset.csv_read_s"] = ing.ingestS

	for k := 0; k < spec.minesPerIngest; k++ {
		reg := telemetry.New()
		heap := startHeapWatch()
		cpu0, t0 := processCPU(), time.Now()
		m, err := mineOnce(tr, spec, reg, func() []predicate.Predicate {
			return predicate.Generate(rel, spec.cond, predicate.GeneratorConfig{Kind: predicate.Binary, Size: spec.predSize})
		}, func(cfg core.DiscoverConfig) (*core.DiscoverResult, error) {
			return core.Discover(ctx, rel, core.WithConfig(cfg))
		})
		m.mineS, m.mineCPU = time.Since(t0).Seconds(), processCPU()-cpu0
		m.heapMB = heap.stop()
		if err != nil {
			return ing, err
		}
		m.layer["dataset.columns_build_ms"] = float64(reg.Counter(telemetry.MetricColumnsBuild).Value()) / 1e6
		chk.run++
		if len(m.raw.Rules) == 0 || !core.HoldsAll(rel, m.raw) {
			chk.failed++
		}
		in.score(tr, &m.mineSample)
		ing.mines = append(ing.mines, m.mineSample)
	}
	return ing, nil
}

// minedRules is a mine plus its uncompacted rules, which the training-rows
// check runs against.
type minedRules struct {
	mineSample
	raw *core.RuleSet
}

// mineOnce runs predicate generation, discovery and compaction, timing
// each and reading the per-layer figures from reg.
func mineOnce(tr *tracer, spec mineSpec, reg *telemetry.Registry,
	generate func() []predicate.Predicate,
	discover func(core.DiscoverConfig) (*core.DiscoverResult, error)) (minedRules, error) {
	m := minedRules{mineSample: mineSample{layer: map[string]float64{}}}
	sp := tr.begin("predicate.generate", 0, 0)
	t0 := time.Now()
	preds := generate()
	sp.end()
	tGen := time.Since(t0)

	cfg := core.DiscoverConfig{
		XAttrs: spec.xattrs, YAttr: spec.yattr, RhoM: spec.rhoM, Preds: preds,
		Trainer: regress.LinearTrainer{}, Workers: spec.workers, Telemetry: reg,
	}
	before := readRuntime()
	sp = tr.begin("core.discover", 0, 0)
	t0 = time.Now()
	res, err := discover(cfg)
	tDisc := time.Since(t0)
	sp.end()
	after := readRuntime()
	if err != nil {
		return m, fmt.Errorf("discover: %w", err)
	}
	m.raw, m.rules = res.Rules, res.Rules

	var tCompact time.Duration
	if spec.compact {
		sp = tr.begin("core.compact", 0, 0)
		t0 = time.Now()
		m.rules, _ = core.CompactOpts(res.Rules, core.CompactOptions{ModelTol: spec.compactTol, Telemetry: reg})
		tCompact = time.Since(t0)
		sp.end()
	}

	snap := reg.Snapshot()
	train, share := snap.Durations[telemetry.MetricTrainTime], snap.Durations[telemetry.MetricShareTestTime]
	c := snap.Counters
	l := m.layer
	l["predicate.generate_ms"] = ms(tGen)
	l["predicate.count"] = float64(len(preds))
	l["predicate.filter_rows_scanned"] = float64(c[telemetry.MetricFilterRowsScanned])
	l["predicate.filter_selectivity_mean"] = snap.Distributions[telemetry.MetricFilterSelectivity].Mean()
	l["core.discover_s"] = tDisc.Seconds()
	l["core.discover_self_s"] = (tDisc - train.Total - share.Total).Seconds()
	l["core.discover_alloc_mb"] = (after.allocBytes - before.allocBytes) / 1e6
	l["core.discover_gc_cycles"] = after.gcCycles - before.gcCycles
	l["core.conditions_expanded"] = float64(c[telemetry.MetricConditionsExpanded])
	l["core.models_trained"] = float64(c[telemetry.MetricModelsTrained])
	l["core.queue_depth_max"] = snap.Gauges[telemetry.MetricQueueDepth].Max
	l["core.column_cache_hits"] = float64(c[telemetry.MetricCacheHits])
	l["core.stat_reuse_ratio"] = ratio(c[telemetry.MetricStatReuse], c[telemetry.MetricModelsTrained])
	l["core.forced_rules"] = float64(c[telemetry.MetricForcedRules])
	l["core.rules_raw"] = float64(res.Rules.NumRules())
	l["regress.train_s"] = train.Total.Seconds()
	l["regress.train_count"] = float64(train.Count)
	l["regress.share_test_s"] = share.Total.Seconds()
	l["regress.share_tests"] = float64(c[telemetry.MetricShareTests])
	l["regress.share_hit_ratio"] = ratio(c[telemetry.MetricModelsShared], c[telemetry.MetricShareTests])
	l["regress.share_scan_width_mean"] = snap.Distributions[telemetry.MetricShareScanWidth].Mean()
	l["core.compact_ms"] = ms(tCompact)
	l["core.compact_solver_attempts"] = float64(c[telemetry.MetricSolverAttempts])
	l["core.compact_translations"] = float64(c[telemetry.MetricTranslations])
	l["core.compact_fusions"] = float64(c[telemetry.MetricFusions])
	l["core.rules_compacted"] = float64(m.rules.NumRules())
	return m, nil
}

// score rates the served rules on the held-out rows.
func (in *mineInput) score(tr *tracer, m *mineSample) {
	sp := tr.begin("core.score", 0, 0)
	t0 := time.Now()
	m.rmse = m.rules.RMSE(in.heldOut)
	m.coverage = m.rules.Coverage(in.heldOut)
	m.layer["core.score_ms"] = ms(time.Since(t0))
	sp.end()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// runtimeCounters are cumulative allocation and GC counts, read without
// stopping the world.
type runtimeCounters struct{ allocBytes, gcCycles float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// heapWatch samples the heap every few milliseconds during one mine and
// keeps the peak. It forces a collection first, so the baseline is the live
// heap the mine starts from and the peak is what the mine adds to it.
type heapWatch struct {
	base  uint64
	peak  uint64
	stopC chan struct{}
	done  chan struct{}
}

const heapSampleEvery = 5 * time.Millisecond

func heapNow() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapWatch() *heapWatch {
	runtime.GC()
	w := &heapWatch{base: heapNow(), stopC: make(chan struct{}), done: make(chan struct{})}
	w.peak = w.base
	go func() {
		defer close(w.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stopC:
				return
			case <-t.C:
				w.peak = max(w.peak, heapNow())
			}
		}
	}()
	return w
}

// stop ends sampling and returns the peak growth in MB.
func (w *heapWatch) stop() float64 {
	close(w.stopC)
	<-w.done
	w.peak = max(w.peak, heapNow())
	return float64(w.peak-w.base) / 1e6
}
