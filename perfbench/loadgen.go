package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is open loop: arrivals follow a seeded Poisson
// schedule fixed before the step starts, and a request is sent when it is
// due whether or not earlier ones have answered, as independent users
// would. Each request is timed from its due time, so a stall that delays
// later requests is charged to them (no coordinated omission), and the
// generator's own lateness is recorded so a step it could not drive
// faithfully is marked invalid rather than reported.

// Request classes.
const (
	classSmall = iota // interactive JSON predict of 1–16 tuples
	classBatch        // 1k-row binary predict or check
)

// op is one scheduled request.
type op struct {
	seq   int
	due   time.Duration // from the step start
	class int
	pick  int // payload choice, resolved by the issuing function
}

// schedule draws Poisson arrivals at rate per second for dur; a request is
// small with probability smallShare.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, smallShare float64) []op {
	var ops []op
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return ops
		}
		class := classBatch
		if rng.Float64() < smallShare {
			class = classSmall
		}
		ops = append(ops, op{seq: len(ops), due: due, class: class, pick: rng.Int()})
	}
}

// outcome is one finished request.
type outcome struct {
	class  int
	late   float64 // ms from due time to the call
	lat    float64 // ms from due time to the answer; +Inf when failed
	failed bool
	traced bool
}

// stepResult is one rate step.
type stepResult struct {
	rate     float64
	dur      time.Duration
	outcomes []outcome
	// backlog is the number of requests still unanswered when the step's
	// last request was due (the largest over a step's slices).
	backlog int
}

// add appends another slice run at the same rate.
func (s *stepResult) add(o stepResult) {
	s.outcomes = append(s.outcomes, o.outcomes...)
	s.dur += o.dur
	s.backlog = max(s.backlog, o.backlog)
}

// sendFunc sends one request and reports whether it succeeded and
// whether it was traced.
type sendFunc func(ctx context.Context, o op) (traced bool, err error)

// maxOutstanding bounds requests in flight; beyond it the generator waits,
// and the wait shows as lateness.
const maxOutstanding = 1024

// runStep sends ops open loop and waits for every answer.
func runStep(ctx context.Context, rate float64, dur time.Duration, ops []op, send sendFunc) stepResult {
	res := stepResult{rate: rate, dur: dur, outcomes: make([]outcome, len(ops))}
	sem := make(chan struct{}, maxOutstanding)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, o := range ops {
		if wait := time.Until(start.Add(o.due)); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		due := start.Add(o.due)
		late := time.Since(due)
		inflight.Add(1)
		wg.Add(1)
		go func(i int, o op) {
			defer wg.Done()
			traced, err := send(ctx, o)
			lat := ms(time.Since(due))
			if err != nil {
				lat = math.Inf(1)
			}
			res.outcomes[i] = outcome{class: o.class, late: ms(late), lat: lat, failed: err != nil, traced: traced}
			inflight.Add(-1)
			<-sem
		}(i, o)
	}
	res.backlog = int(inflight.Load())
	wg.Wait()
	return res
}

// limits decide whether a step passes.
type limits struct {
	smallTailMs, batchTailMs float64
	maxErrorRatio            float64
	// lateSlackMs and maxLateShare define a faithful step: at most
	// maxLateShare of its requests may be sent more than lateSlackMs after
	// their due time.
	lateSlackMs, maxLateShare float64
	// maxBacklogS bounds the backlog at the step's end, in seconds of
	// arrivals; more means the queue was still growing.
	maxBacklogS float64
}

// stepStats summarises a step.
type stepStats struct {
	Rate      float64 `json:"rate_rps"`
	Achieved  float64 `json:"achieved_rps"`
	Sent      int     `json:"sent"`
	Failed    int     `json:"failed"`
	Small     tail    `json:"small_tail_ms"`
	SmallP50  float64 `json:"small_p50_ms"`
	Batch     tail    `json:"batch_tail_ms"`
	BatchP50  float64 `json:"batch_p50_ms"`
	LateShare float64 `json:"late_share"`
	Backlog   int     `json:"backlog"`
	Valid     bool    `json:"valid"`
	Pass      bool    `json:"pass"`
}

func (s stepResult) latencies(class int) []float64 {
	var xs []float64
	for _, o := range s.outcomes {
		if o.class == class {
			xs = append(xs, o.lat)
		}
	}
	return xs
}

func (s stepResult) stats(lim limits) stepStats {
	st := stepStats{Rate: s.rate, Sent: len(s.outcomes), Backlog: s.backlog}
	late := 0
	for _, o := range s.outcomes {
		if o.failed {
			st.Failed++
		}
		if o.late > lim.lateSlackMs {
			late++
		}
	}
	st.Achieved = float64(st.Sent-st.Failed) / s.dur.Seconds()
	small, batch := s.latencies(classSmall), s.latencies(classBatch)
	st.Small, st.SmallP50 = tailOf(small), median(small)
	st.Batch, st.BatchP50 = tailOf(batch), median(batch)
	if st.Sent > 0 {
		st.LateShare = float64(late) / float64(st.Sent)
	}
	st.Valid = st.LateShare <= lim.maxLateShare
	st.Pass = st.Valid && st.Sent > 0 &&
		st.Small.Value <= lim.smallTailMs && st.Batch.Value <= lim.batchTailMs &&
		float64(st.Failed) <= lim.maxErrorRatio*float64(st.Sent) &&
		float64(st.Backlog) <= lim.maxBacklogS*s.rate
	return st
}

// closedResult is one closed-loop slice.
type closedResult struct {
	outcomes []outcome
	wallS    float64
	cpuS     float64 // CPU time of the whole process during the slice
}

// runClosed keeps conns requests in flight for dur: each connection sends
// its next request when the previous one has answered, as callers that
// wait for a reply would. Requests are small with probability smallShare,
// drawn from a generator seeded per connection; each is timed from when
// it was sent, which in a closed loop is when it was due. The slice waits
// for every answer.
func runClosed(ctx context.Context, conns int, dur time.Duration, seed int64, smallShare float64, send sendFunc) closedResult {
	per := make([][]outcome, conns)
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			for seq := 0; time.Since(start) < dur; seq++ {
				class := classBatch
				if rng.Float64() < smallShare {
					class = classSmall
				}
				t0 := time.Now()
				traced, err := send(ctx, op{seq: seq, class: class, pick: rng.Int()})
				lat := ms(time.Since(t0))
				if err != nil {
					lat = math.Inf(1)
				}
				per[c] = append(per[c], outcome{class: class, lat: lat, failed: err != nil, traced: traced})
			}
		}(c)
	}
	wg.Wait()
	res := closedResult{wallS: time.Since(start).Seconds(), cpuS: processCPU() - cpu0}
	for _, o := range per {
		res.outcomes = append(res.outcomes, o...)
	}
	return res
}
