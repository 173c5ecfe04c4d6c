package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crrlab/crr/pkg/client"
)

// evenOps schedules n small requests every gap, starting at gap.
func evenOps(n int, gap time.Duration) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{seq: i, due: time.Duration(i+1) * gap, class: classSmall, pick: i}
	}
	return ops
}

// A handler that stalls once holds up every request queued behind it on
// the single connection. Timed from their due times, those requests show
// the stall; timed from when they were sent they would not, because the
// open-loop generator keeps sending on schedule throughout.
func TestStalledHandlerChargedFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	tp := &http.Transport{MaxConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp}

	const gap = 4 * time.Millisecond
	ops := evenOps(100, gap)
	res := runStep(context.Background(), 1/gap.Seconds(), time.Duration(len(ops))*gap, ops,
		func(ctx context.Context, o op) (bool, error) {
			resp, err := hc.Get(srv.URL)
			if err != nil {
				return false, err
			}
			return false, resp.Body.Close()
		})

	st := res.stats(limits{smallTailMs: 25, batchTailMs: 50, maxErrorRatio: 0.001, lateSlackMs: 20, maxLateShare: 0.05, maxBacklogS: 1})
	if !st.Valid || st.LateShare > 0.05 {
		t.Fatalf("generator fell behind (late share %.3f); the test needs it on schedule", st.LateShare)
	}
	// Requests due during the first half of the stall waited at least its
	// second half.
	waited := 0
	for _, o := range res.outcomes[:int(stall/gap)/2] {
		if o.lat >= ms(stall/2) {
			waited++
		}
	}
	if want := int(stall/gap)/2 - 2; waited < want {
		t.Errorf("%d requests show the stall from their due time, want at least %d", waited, want)
	}
	if st.Small.Value < ms(stall/2) || st.Pass {
		t.Errorf("tail %v ms (pass=%v): the stall must raise the tail past the %v ms limit", st.Small.Value, st.Pass, 25)
	}
}

// A 429, a 5xx and a timeout each count as a failed operation, enter the
// latencies as +Inf so they miss every limit, and fail the step.
func TestFailuresCountAndMissLimits(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get(client.TenantHeader) {
		case "shed":
			http.Error(w, `{"error":{"code":"overloaded","message":"shed"}}`, http.StatusTooManyRequests)
		case "broken":
			http.Error(w, `{"error":{"code":"internal","message":"boom"}}`, http.StatusInternalServerError)
		case "slow":
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"y":"y","predictions":[{"value":1,"covered":true}]}`))
		}
	}))
	defer srv.Close()
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	var clients []*client.Client
	for _, tenant := range []string{"ok", "shed", "broken", "slow"} {
		clients = append(clients, client.New(srv.URL, client.WithHTTPClient(&http.Client{Transport: tp}),
			client.WithFormat(client.FormatJSON), client.WithTenant(tenant), client.WithTimeout(250*time.Millisecond)))
	}
	b := client.NewBatch().Float64("x", []float64{1}, nil)

	const gap = 2 * time.Millisecond
	ops := evenOps(200, gap)
	res := runStep(context.Background(), 1/gap.Seconds(), time.Duration(len(ops))*gap, ops,
		func(ctx context.Context, o op) (bool, error) {
			_, err := clients[o.pick%4].Predict(ctx, b)
			return false, err
		})

	failed := 0
	for i, o := range res.outcomes {
		if wantFail := i%4 != 0; o.failed != wantFail {
			t.Fatalf("request %d (mode %d): failed=%v, want %v", i, i%4, o.failed, wantFail)
		}
		if o.failed {
			failed++
			if !math.IsInf(o.lat, 1) {
				t.Errorf("failed request %d has latency %v, want +Inf", i, o.lat)
			}
		}
	}
	st := res.stats(limits{smallTailMs: 1e9, batchTailMs: 1e9, maxErrorRatio: 0.001, lateSlackMs: 5, maxLateShare: 1, maxBacklogS: 1e9})
	if st.Failed != failed || failed != 150 {
		t.Errorf("step counted %d failures, outcomes %d, want 150", st.Failed, failed)
	}
	if !math.IsInf(st.Small.Value, 1) || st.Pass {
		t.Errorf("tail %v, pass %v: failures must miss every limit", st.Small.Value, st.Pass)
	}
}

// A closed loop never has more than conns requests in flight, sends each
// connection's next request only after the previous one answered, and
// counts a failed request as failed at +Inf.
func TestClosedLoopInFlightAndFailures(t *testing.T) {
	const conns = 3
	var inflight, peak, calls atomic.Int64
	res := runClosed(context.Background(), conns, 50*time.Millisecond, 1, 0.5, func(ctx context.Context, o op) (bool, error) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		if calls.Add(1)%4 == 0 {
			return false, errors.New("refused")
		}
		return false, nil
	})
	if peak.Load() != conns {
		t.Errorf("peak in flight %d, want %d", peak.Load(), conns)
	}
	if len(res.outcomes) != int(calls.Load()) || res.wallS <= 0 {
		t.Fatalf("%d outcomes for %d calls over %v s", len(res.outcomes), calls.Load(), res.wallS)
	}
	failed := 0
	for _, o := range res.outcomes {
		if o.failed != math.IsInf(o.lat, 1) {
			t.Fatalf("outcome %+v: a request is failed exactly when its latency is +Inf", o)
		}
		if o.failed {
			failed++
		}
	}
	if want := int(calls.Load()) / 4; failed != want {
		t.Errorf("%d failed outcomes, want %d", failed, want)
	}
}
