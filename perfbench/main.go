// Command perfbench is the repository benchmark: it drives the program only
// through the public functions of each layer, on inputs generated from its
// own seed, and prints every end-to-end metric with its unit followed by
// one JSON result line.
//
//	bash perfbench/run.sh --workload mine-store --seed 1 --seconds 45 --trace 0
//
// Run it from the repository root. Workloads are mine-store and mine-wide
// (see workloads.go). --trace 1 makes a separate traced run
// that prints the per-layer metrics instead and writes its spans under
// --workdir. The exit status is non-zero when any output check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: mine-store or mine-wide")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 45, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for generated files and traces")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	if *trace == 1 {
		res.meta["trace_file"], err = writeTrace(res, *workdir, *name, *seed)
		if err != nil {
			fail(err)
		}
	}
	report(res, *trace == 1)
	if !res.correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func writeTrace(res *result, workdir, name string, seed int64) (string, error) {
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+"-seed"+strconv.FormatInt(seed, 10)+".jsonl")
	return path, res.tr.write(path)
}

// metricDef names one printed metric.
type metricDef struct{ name, unit string }

// report writes every metric as a "name value unit" line, then the run
// metadata, then the result object as the last line. An end-to-end metric
// without a value (no samples, or not finite) fails the run: it is left
// out of the result instead of being printed as a number. A per-layer
// metric without a value is a layer the workload did not exercise and
// reads 0.
func report(res *result, traced bool) {
	defs, values := endToEnd, res.e2e
	if traced {
		defs, values = perLayer, res.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !traced {
				missing = append(missing, d.name)
				fmt.Printf("%-40s %14s %s\n", d.name, "missing", d.unit)
				continue
			}
			v = 0
		}
		out[d.name] = metric{v, d.unit}
		fmt.Printf("%-40s %14.6g %s\n", d.name, v, d.unit)
	}
	if !traced && len(res.pooled) == len(pooledTails) {
		// The pooled tails under the percentile rule, which repeat too
		// poorly from run to run on a shared machine to gate a change.
		for i, name := range pooledTails {
			fmt.Printf("%-40s %14.6g ms (pooled, not gated; percentile in meta.tails)\n", name, res.pooled[i])
		}
	}
	if len(missing) > 0 {
		res.correct = false
		res.meta["missing_metrics"] = missing
		fmt.Fprintln(os.Stderr, "perfbench: no value for", missing)
	}
	meta, err := json.Marshal(map[string]any{"meta": res.meta})
	if err != nil {
		meta, _ = json.Marshal(map[string]any{"meta_error": err.Error()})
	}
	fmt.Println(string(meta))
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	fmt.Println(string(line))
}

// machine is the fingerprint stamped into every result.
func machine() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit(),
	}
}
