package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/telemetry"
)

// startOnListener runs the server's own http.Server (the thing Shutdown
// drains) on an ephemeral port, unlike httptest which wraps the handler in
// its own server.
func startOnListener(t *testing.T, srv *Server) (base string, done chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return "http://" + l.Addr().String(), done
}

// TestInFlightLimitSheds429: with the semaphore saturated by requests held
// in flight, the next data-plane request is rejected immediately with 429 —
// while /healthz and /metrics stay reachable. Releasing the held requests
// restores service.
func TestInFlightLimitSheds429(t *testing.T) {
	rel, rules := taxRules(t, 800)
	hold := make(chan struct{})
	var admitted sync.WaitGroup
	admitted.Add(2)
	var held atomic.Int64
	reg := telemetry.New()
	cfg := Config{
		MaxInFlight: 2,
		Registry:    reg,
		// Only the first two admitted requests block; anything after the
		// release passes straight through.
		OnRequest: func(string) {
			if held.Add(1) <= 2 {
				admitted.Done()
				<-hold
			}
		},
	}
	_, ts := newTestServer(t, cfg, rules)

	tuple := encodeTuple(rel.Schema, rel.Tuples[0])
	body, _ := json.Marshal(map[string]any{"tuple": tuple})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("held request finished %d, want 200", resp.StatusCode)
				}
			}
		}()
	}
	admitted.Wait() // both slots are now occupied

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated predict = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	// Control plane is exempt from shedding.
	for _, path := range []string{"/healthz", "/metrics", "/v1/rules"} {
		if status, _ := getBody(t, ts.URL+path); status != http.StatusOK {
			t.Errorf("%s under saturation = %d, want 200", path, status)
		}
	}

	close(hold)
	wg.Wait()

	// Capacity restored: the next request is served.
	if status, _ := postJSON(t, ts.URL+"/v1/predict", map[string]any{"tuple": tuple}); status != http.StatusOK {
		t.Errorf("post-release predict = %d, want 200", status)
	}
	snap := reg.Snapshot()
	if snap.Counters[telemetry.MetricServeShed] == 0 {
		t.Error("shed counter not incremented")
	}
	if snap.Gauges[telemetry.MetricServeInFlight].Max < 2 {
		t.Errorf("in-flight high-water = %v, want >= 2", snap.Gauges[telemetry.MetricServeInFlight].Max)
	}
}

// TestShutdownDrainsInFlight: a request admitted before Shutdown completes
// with 200 while the server refuses new connections, and Serve returns
// ErrServerClosed.
func TestShutdownDrainsInFlight(t *testing.T) {
	rel, rules := taxRules(t, 800)
	admitted := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Once
	cfg := Config{OnRequest: func(string) {
		gate.Do(func() { close(admitted); <-release })
	}}
	srv, err := NewFromRuleSet(cfg, rules, "test")
	if err != nil {
		t.Fatal(err)
	}
	base, done := startOnListener(t, srv)

	tuple := encodeTuple(rel.Schema, rel.Tuples[0])
	body, _ := json.Marshal(map[string]any{"tuple": tuple})
	result := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			result <- -1
			return
		}
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	<-admitted

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give Shutdown a moment to stop the listeners, then release the held
	// request; it must still be answered.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if status := <-result; status != http.StatusOK {
		t.Errorf("in-flight request during shutdown = %d, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestShutdownNoGoroutineLeak mirrors the leak pattern of
// internal/core/cancel_test.go: after serving traffic and shutting down, the
// goroutine count returns to its baseline.
func TestShutdownNoGoroutineLeak(t *testing.T) {
	rel, rules := taxRules(t, 800)
	before := runtime.NumGoroutine()

	srv, err := NewFromRuleSet(Config{}, rules, "test")
	if err != nil {
		t.Fatal(err)
	}
	base, done := startOnListener(t, srv)

	tuple := encodeTuple(rel.Schema, rel.Tuples[0])
	for i := 0; i < 20; i++ {
		if status, _ := postJSON(t, base+"/v1/predict", map[string]any{"tuple": tuple}); status != 200 {
			t.Fatalf("warmup predict %d failed: %d", i, status)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRequestTimeout504: a request whose processing exceeds the per-request
// deadline is abandoned with 504 and counted in serve.timeouts.
func TestRequestTimeout504(t *testing.T) {
	rel, rules := taxRules(t, 800)
	reg := telemetry.New()
	cfg := Config{
		RequestTimeout: 20 * time.Millisecond,
		Registry:       reg,
		OnRequest:      func(string) { time.Sleep(60 * time.Millisecond) },
	}
	_, ts := newTestServer(t, cfg, rules)
	tuple := encodeTuple(rel.Schema, rel.Tuples[0])
	status, body := postJSON(t, ts.URL+"/v1/predict", map[string]any{"tuple": tuple})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("slow request = %d (%s), want 504", status, body)
	}
	if got := reg.Snapshot().Counters[telemetry.MetricServeTimeouts]; got != 1 {
		t.Errorf("serve.timeouts = %d, want 1", got)
	}
}

// TestConcurrentReloadPredict is the -race acceptance test: goroutines
// hammer POST /v1/predict while others hot-swap between two artifacts.
// Every response must be exactly artifact A's or artifact B's answer —
// a torn artifact would produce a third value (or a race report).
func TestConcurrentReloadPredict(t *testing.T) {
	relA, rulesA := taxRules(t, 600)
	_, rulesB := electricityRules(t, 600)

	var artA, artB bytes.Buffer
	if err := core.WriteRuleSet(&artA, rulesA); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteRuleSet(&artB, rulesB); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{MaxInFlight: 64}, rulesA)

	// A probe tuple valid under schema A; under schema B it is rejected
	// with 400 (different schema), which is also a legal outcome — what is
	// NOT legal is a 200 whose value matches neither artifact.
	probe := relA.Tuples[3]
	wantA, _ := rulesA.Predict(probe)
	probeObj := encodeTuple(relA.Schema, probe)
	body, _ := json.Marshal(map[string]any{"tuple": probeObj})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				var pr predictResponse
				dec := json.NewDecoder(resp.Body)
				decErr := dec.Decode(&pr)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						errs <- fmt.Sprintf("decode 200 body: %v", decErr)
						return
					}
					if pr.Predictions[0].Value != wantA {
						errs <- fmt.Sprintf("prediction %v matches neither artifact (want %v under A)",
							pr.Predictions[0].Value, wantA)
						return
					}
				case http.StatusBadRequest:
					// schema B active: probe rejected by name validation.
				default:
					errs <- fmt.Sprintf("unexpected status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		art := [][]byte{artA.Bytes(), artB.Bytes()}[w]
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/reload", "application/json", bytes.NewReader(art))
				if err == nil {
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("reload status %d", resp.StatusCode)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReloadFromPath: New loads from disk; rewriting the file and calling
// Reload (the SIGHUP path) swaps the artifact; a corrupted file is rejected
// and the old artifact keeps serving.
func TestReloadFromPath(t *testing.T) {
	_, rulesA := taxRules(t, 600)
	_, rulesB := electricityRules(t, 600)

	dir := t.TempDir()
	path := filepath.Join(dir, "rules.json")
	writeArtifact := func(rs *core.RuleSet) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.WriteRuleSet(f, rs); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	writeArtifact(rulesA)

	srv, err := New(Config{RulesPath: path})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	ts := hts.URL
	if _, body := getBody(t, ts+"/v1/rules"); !strings.Contains(string(body), `"y":"Tax"`) {
		t.Fatalf("initial artifact not served: %s", body)
	}

	writeArtifact(rulesB)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, body := getBody(t, ts+"/v1/rules"); !strings.Contains(string(body), `"y":"GlobalActivePower"`) {
		t.Fatalf("reloaded artifact not served: %s", body)
	}

	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err == nil {
		t.Fatal("corrupt artifact reload succeeded")
	}
	if _, body := getBody(t, ts+"/v1/rules"); !strings.Contains(string(body), `"y":"GlobalActivePower"`) {
		t.Error("corrupt reload replaced the served artifact")
	}
}

// TestSlowHeaderClientDropped: a client that sends half a request header
// and then stalls holds no in-flight slot, so the server must bound it on
// its own — the connection is closed once the request deadline passes.
func TestSlowHeaderClientDropped(t *testing.T) {
	_, rules := taxRules(t, 200)
	const timeout = 200 * time.Millisecond
	srv, err := NewFromRuleSet(Config{RequestTimeout: timeout}, rules, "test")
	if err != nil {
		t.Fatal(err)
	}
	base, done := startOnListener(t, srv)
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	// The server either closes silently or answers 408 and closes; either
	// way the read drains to EOF instead of hitting the client deadline.
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("connection still open after %v", time.Since(start))
			}
			break
		}
	}
	if held := time.Since(start); held < timeout/2 || held > timeout+time.Second {
		t.Fatalf("connection closed after %v, want about %v", held, timeout)
	}
}
