package main

import (
	"context"
	"fmt"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/stream"
	"github.com/crrlab/crr/internal/telemetry"
)

// The refresh path: a stream.Maintainer replays a feed at a fixed row rate
// beside the read load, and every swapEvery rows flushes its refits and,
// when anything changed, pushes the snapshot to every node. A refresh is
// timed from the append of the row that triggered it until the last node
// acknowledged the new generation.
//
// The window and the swap cadence are crrstream's defaults (-window 2048,
// -swap-every 1000). A swap every 1000 rows is past the Maintainer's refit
// trigger (a quarter of a rule's covered rows, at most 512 in a 2048-row
// window), so each snapshot carries the threshold refits of every live
// rule as well as the flush. The feed rate is an assumption: no recorded
// feed exists, and 40k rows/s gives 40 refreshes per second, several
// hundred in a run at the named rate.
const (
	feedRowsPerS = 40000
	feedTick     = 10 * time.Millisecond
	swapEvery    = 1000
	streamWindow = 2048
)

type feeder struct {
	m     *stream.Maintainer
	reg   *telemetry.Registry
	rows  []dataset.Tuple
	fleet *fleet
	tr    *tracer
	gens  []uint64 // last acknowledged generation per node
	// next is the feed position; sinceSwap counts rows since the last swap.
	next, sinceSwap int

	refreshMs []float64 // one per acknowledged swap
	appendNs  []float64 // ns per row of each append batch
	snapMs    []float64 // refit flush + snapshot + encode
	pushes    int       // swaps attempted
	failed    int       // swaps not acknowledged by every node
}

// driftAlpha is the significance level of the stream's drift test. The
// feed is stationary by construction and a run tests each rule about a
// thousand times, so the default level would retire rules by chance
// mid-run and stop the refreshes the workload exists to measure.
const driftAlpha = 1e-9

// newFeeder maintains rules with crrstream's default bias bound: headroom
// above the artifact's worst ρ, since a window refit minimises squared
// error rather than the maximum residual.
func newFeeder(f *fleet, rules *core.RuleSet, rows []dataset.Tuple, gens []uint64) (*feeder, error) {
	rho := 0.0
	for _, r := range rules.Rules {
		rho = max(rho, r.Rho)
	}
	reg := telemetry.New()
	m, err := stream.New(rules, stream.Config{Window: streamWindow, RhoM: 1.5 * rho, Alpha: driftAlpha, Registry: reg})
	if err != nil {
		return nil, err
	}
	return &feeder{m: m, reg: reg, rows: rows, fleet: f, gens: append([]uint64(nil), gens...)}, nil
}

// run feeds rows until stop is closed, then returns; the next call carries
// on where it stopped. Rows are appended in tick-sized batches paced
// against the wall clock, so a slow swap is made up for by the batches
// after it rather than lowering the feed rate.
func (fd *feeder) run(ctx context.Context, stop <-chan struct{}) error {
	start, base := time.Now(), fd.next
	tick := time.NewTicker(feedTick)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		due := base + int(time.Since(start).Seconds()*feedRowsPerS)
		for fd.next < due {
			n := min(due-fd.next, swapEvery-fd.sinceSwap)
			sp := fd.tr.begin("stream.append", 0, 0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := fd.m.Append(fd.rows[(fd.next+i)%len(fd.rows)]); err != nil {
					return fmt.Errorf("stream append: %w", err)
				}
			}
			fd.appendNs = append(fd.appendNs, float64(time.Since(t0).Nanoseconds())/float64(n))
			sp.end()
			fd.next += n
			fd.sinceSwap += n
			if fd.sinceSwap == swapEvery {
				fd.sinceSwap = 0
				if err := fd.swap(ctx, time.Now()); err != nil {
					return err
				}
			}
		}
	}
}

// swap flushes refits and pushes a changed snapshot. trigger is when the
// triggering row had been appended.
func (fd *feeder) swap(ctx context.Context, trigger time.Time) error {
	sp := fd.tr.begin("stream.snapshot", 0, 0)
	fd.m.Refit()
	if !fd.m.Changed() {
		sp.end()
		return nil
	}
	artifact, err := encodeRules(fd.m.Snapshot())
	sp.end()
	if err != nil {
		return err
	}
	fd.snapMs = append(fd.snapMs, ms(time.Since(trigger)))
	fd.pushes++
	gens, err := fd.fleet.pushAll(ctx, fd.tr, tenantStream, artifact)
	acked := err == nil
	for i, g := range gens {
		// Nothing else writes this tenant, so each push must move every
		// node exactly one generation on.
		acked = acked && g == fd.gens[i]+1
		if g != 0 {
			fd.gens[i] = g
		}
	}
	if !acked {
		fd.failed++
		return nil
	}
	fd.refreshMs = append(fd.refreshMs, ms(time.Since(trigger)))
	return nil
}
