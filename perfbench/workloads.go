package main

import (
	"runtime"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/experiments"
)

// Every workload runs the whole life of a rule set — ingest, mine, score,
// serve, refresh — so each reports every end-to-end metric; the workloads
// differ in the data mined. Both serve the same two artifacts, so their
// serving metrics are expected to stay flat whatever a change does to
// mining.
type workload struct {
	mine      mineSpec
	mineShare float64 // share of --seconds spent mining, the rest serving
}

// How the figures are taken. The machine this benchmark was tuned on, a
// 2-vCPU Intel Xeon VM on a shared host, loses 1-30% of its CPU time to
// the host (steal) while both vCPUs are busy, and the share changes from
// run to run. Wall-clock figures of long CPU-bound work follow it: in ten
// mine-store runs at 18-31% steal the wall-clock ingest rate ranged over
// 86k-130k rows/s, the mine rate over 441k-661k rows/s and set-up over
// 1.7-3.1 s, while in five of them the same work per CPU-second of the
// process ranged over 137k-150k, 591k-639k rows and 1.73-1.83 s. So:
//
// Set-up, ingest and mining (setup_s, ingest_rows_per_cpu_s,
// mine_rows_per_cpu_s) are timed in CPU seconds of the process, which
// leave out steal. Nothing else runs in the process meanwhile. A change
// that only lets mine-store's discovery workers overlap better does not
// show in them; the wall-clock figures are kept in the run metadata.
// CPU seconds still run 10-20% slower on a busy host than on a quiet one.
//
// Isolated latency (small_p50_ms, batch_p50_ms): one connection, closed
// loop, so each request has the fleet to itself and its time is the work
// on its path plus the hops, with no queueing. Most requests finish
// between two stolen slices: over forty runs at 1-23% steal the
// small-request p50 stayed within 0.29-0.38 ms and the batch p50 within
// 0.59-0.80 ms.
//
// Capacity (capacity_rps): capacityConns closed-loop connections per core
// keep every core busy; the figure is requests completed per CPU-second
// of the whole process (load generator, router and nodes) times nproc,
// the rate the fleet would sustain with the cores to itself. Over the
// same forty runs it ranged over 3380-4180 req/s, closed-loop wall
// throughput over 2570-4010.
//
// Named rate (refresh_p50_ms): open-loop arrivals at namedRate with the
// stream refreshing beside them, so swaps compete with reads. An earlier
// form of this benchmark served 800 req/s there and searched for the
// highest rate meeting tail limits; under steal its small-request p50 and
// its capacity moved by half or more between runs. At 200 req/s the
// refresh p50 stayed within 0.59-0.82 ms over the forty runs.
const (
	namedRate     = 200
	capacityConns = 2 // per core
)

// smallShare is the share of requests that are small interactive predicts,
// the rest being 1k-row batches, at the named rate and in the capacity
// mix. No recorded traffic exists to derive it from: the split is an
// assumption, chosen so both classes get hundreds of samples per run.
const smallShare = 0.7

// serveLimits decide whether the named-rate step passes; the result is
// recorded in the run metadata. The tail limits are assumptions,
// interactive service levels rather than measured ones.
var serveLimits = limits{
	smallTailMs:   25,
	batchTailMs:   50,
	maxErrorRatio: 0.001,
	lateSlackMs:   5,
	maxLateShare:  0.05,
	maxBacklogS:   0.1,
}

var workloads = map[string]workload{
	// Row scalability (Fig. 3, Fig. 5): few rules over many rows, mined out
	// of core, so split scoring, filtering and the heap dominate, and
	// share scanning and compaction are nearly free.
	"mine-store": {mine: electricityStore(200000), mineShare: 0.4},
	// Predicate scalability (Fig. 6): a 128-predicate space in memory, so
	// share scanning, Gram fits, the queue and compaction carry the cost
	// and the column store is bypassed. Sequential, because the parallel
	// engine's rule set varies from run to run on this input.
	"mine-wide": {mine: birdWide(100000), mineShare: 0.4},
}

// birdPreds is the 128-predicate space over Date and BirdID: one equality
// predicate per bird plus binary cut pairs on Date for the rest.
var birdPreds = 128 - dataset.DefaultBirdMapConfig().Birds

func electricityStore(rows int) mineSpec {
	s := experiments.ElectricitySpec()
	return mineSpec{
		gen: genElectricity, rows: rows, heldOut: 20000,
		xattrs: s.XAttrs, yattr: s.YAttr, cond: s.CondAttrs, rhoM: s.RhoM, predSize: 16,
		store: true, workers: runtime.NumCPU(), compact: true, compactTol: s.CompactTol,
		minesPerIngest: 3,
	}
}

func birdWide(rows int) mineSpec {
	s := experiments.BirdMapSpec()
	return mineSpec{
		gen: genBirdMap, rows: rows, heldOut: 10000,
		xattrs: s.XAttrs, yattr: s.YAttr, cond: s.CondAttrs, rhoM: s.RhoM, predSize: birdPreds,
		compact: true, compactTol: s.CompactTol, minesPerIngest: 1,
	}
}

// The served artifacts are mined uncompacted in setup. The static one's
// held-out rows become its request payloads (16 batches plus small
// requests); the streamed one's become the small requests of its tenant.
// The streamed artifact regresses total power on the three sub-meters, a
// relation that holds across the day, so window refits change its models
// on every swap without the drift test retiring them; regressing on Time,
// as mine-store does, mixes daily regimes inside one rule and the stream
// retires every rule within the first swaps.
var (
	staticSpec = func() mineSpec {
		s := birdWide(20000)
		s.heldOut, s.compact = 17*batchRows, false
		return s
	}()
	streamSpec = func() mineSpec {
		s := electricityStore(20000)
		s.xattrs = []int{4, 5, 6} // Sub1, Sub2, Sub3
		s.heldOut, s.store, s.workers, s.compact, s.minesPerIngest = 4000, false, 0, false, 1
		return s
	}()
)

func genElectricity(rows int, seed int64) *dataset.Relation {
	cfg := dataset.DefaultElectricityConfig()
	cfg.Rows, cfg.Seed = rows, seed
	return dataset.GenerateElectricity(cfg)
}

func genBirdMap(rows int, seed int64) *dataset.Relation {
	cfg := dataset.DefaultBirdMapConfig()
	cfg.Rows, cfg.Seed = rows, seed
	return dataset.GenerateBirdMap(cfg)
}

// Metrics in print order. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_rows_per_cpu_s", "rows/cpu-s"},
	{"mine_rows_per_cpu_s", "rows/cpu-s"},
	{"mine_peak_heap_mb", "MB"},
	{"test_rmse", "target"},
	{"test_coverage", "ratio"},
	{"small_p50_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"capacity_rps", "req/s"},
	{"success_ratio", "ratio"},
	{"refresh_p50_ms", "ms"},
}

// pooledTails are printed after the end-to-end metrics on untraced runs,
// each with its percentile and sample count in the run metadata: the
// pooled tails of the isolated requests and of the refreshes under the
// percentile rule (highest percentile with at least ten samples beyond
// it). They are not end-to-end metrics: on a shared two-core machine they
// are the size of a run's few worst stalls, and the batch tail moved by
// a factor of 1.7 between runs even at its p90.
var pooledTails = []string{"small_tail_ms", "batch_tail_ms", "refresh_tail_ms"}

var perLayer = []metricDef{
	{"colstore.build_s", "s"},
	{"colstore.open_ms", "ms"},
	{"colstore.bytes_mapped", "bytes"},
	{"colstore.bytes_per_csv_byte", "ratio"},
	{"colstore.self_s", "s"},
	{"dataset.csv_read_s", "s"},
	{"dataset.columns_build_ms", "ms"},
	{"dataset.self_s", "s"},
	{"predicate.generate_ms", "ms"},
	{"predicate.count", "count"},
	{"predicate.filter_rows_scanned", "rows"},
	{"predicate.filter_selectivity_mean", "ratio"},
	{"predicate.self_s", "s"},
	{"core.discover_s", "s"},
	{"core.discover_self_s", "s"},
	{"core.discover_alloc_mb", "MB"},
	{"core.discover_gc_cycles", "count"},
	{"core.conditions_expanded", "count"},
	{"core.models_trained", "count"},
	{"core.queue_depth_max", "count"},
	{"core.column_cache_hits", "count"},
	{"core.stat_reuse_ratio", "ratio"},
	{"core.forced_rules", "count"},
	{"core.rules_raw", "count"},
	{"core.compact_ms", "ms"},
	{"core.compact_solver_attempts", "count"},
	{"core.compact_translations", "count"},
	{"core.compact_fusions", "count"},
	{"core.rules_compacted", "count"},
	{"core.score_ms", "ms"},
	{"core.classify_ns_per_row", "ns/row"},
	{"core.self_s", "s"},
	{"regress.train_s", "s"},
	{"regress.train_count", "count"},
	{"regress.share_test_s", "s"},
	{"regress.share_tests", "count"},
	{"regress.share_hit_ratio", "ratio"},
	{"regress.share_scan_width_mean", "models"},
	{"wire.decode_ns_per_row", "ns/row"},
	{"wire.encode_ns_per_row", "ns/row"},
	{"wire.bytes_per_row", "bytes/row"},
	{"wire.self_s", "s"},
	{"serve.small_handler_p50_ms", "ms"},
	{"serve.small_handler_tail_ms", "ms"},
	{"serve.batch_handler_p50_ms", "ms"},
	{"serve.batch_handler_tail_ms", "ms"},
	{"serve.reload_ms", "ms"},
	{"serve.inflight_max", "count"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"serve.self_s", "s"},
	{"router.self_p50_ms", "ms"},
	{"router.forwards", "count"},
	{"router.failovers", "count"},
	{"router.quota_rejections", "count"},
	{"router.upstream_errors", "count"},
	{"router.self_s", "s"},
	{"cluster.route_ns", "ns"},
	{"cluster.ring_rebuilds", "count"},
	{"cluster.self_s", "s"},
	{"client.self_p50_ms", "ms"},
	{"client.self_s", "s"},
	{"stream.append_ns_per_row", "ns/row"},
	{"stream.snapshot_ms", "ms"},
	{"stream.refits", "count"},
	{"stream.drift_events", "count"},
	{"stream.retires", "count"},
	{"stream.rebuilds", "count"},
	{"stream.swaps", "count"},
	{"stream.self_s", "s"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_tail_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.succeeded", "count"},
	{"loadgen.failed", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_small_p50_ratio", "ratio"},
	{"trace.overhead_mine_ratio", "ratio"},
}
