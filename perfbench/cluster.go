package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/crrlab/crr/internal/cluster"
	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/router"
	"github.com/crrlab/crr/internal/serve"
	"github.com/crrlab/crr/internal/telemetry"
)

// The served fleet: serve nodes behind one router, all in this process on
// loopback TCP, so every request crosses the real HTTP stack twice.

const fleetNodes = 2

// listener is one HTTP server of the fleet.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &listener{url: "http://" + l.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(l) }()
	return s, nil
}

func (s *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

type node struct {
	name string
	reg  *telemetry.Registry
	*listener
}

type fleet struct {
	nodes   []*node
	rreg    *telemetry.Registry // router and cluster metrics
	tracker *cluster.Tracker
	router  *listener
	// push carries artifact pushes straight to the nodes.
	push *http.Client
}

// startFleet starts the nodes, each serving initial as its default tenant,
// and the router in front of them.
func startFleet(tr *tracer, initial *core.RuleSet) (*fleet, error) {
	f := &fleet{rreg: telemetry.New()}
	var specs []cluster.NodeSpec
	for i := 0; i < fleetNodes; i++ {
		reg := telemetry.New()
		srv, err := serve.NewFromRuleSet(serve.Config{Registry: reg}, initial, "setup")
		if err != nil {
			f.close()
			return nil, err
		}
		l, err := listen(wrapHandler(tr, "serve.handle", srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		n := &node{name: "node" + strconv.Itoa(i), reg: reg, listener: l}
		f.nodes = append(f.nodes, n)
		specs = append(specs, cluster.NodeSpec{Name: n.name, URL: n.url})
	}
	var err error
	f.tracker, err = cluster.NewTracker(specs, cluster.TrackerConfig{Registry: f.rreg})
	if err != nil {
		f.close()
		return nil, err
	}
	rt, err := router.New(router.Config{Tracker: f.tracker, Registry: f.rreg})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.router, err = listen(wrapHandler(tr, "router.forward", rt.Handler())); err != nil {
		f.close()
		return nil, err
	}
	f.push = &http.Client{Transport: stampTransport{base: &http.Transport{MaxIdleConnsPerHost: fleetNodes}}}
	return f, nil
}

// close stops the router, then the nodes, and waits for each to exit.
func (f *fleet) close() error {
	var errs []error
	if f.router != nil {
		errs = append(errs, f.router.close())
	}
	for _, n := range f.nodes {
		errs = append(errs, n.close())
	}
	if f.push != nil {
		f.push.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// pushAll installs artifact as tenant on every node through the tenant
// reload endpoint, concurrently, and returns each node's acknowledged
// generation. It fails unless every node acknowledged.
func (f *fleet) pushAll(ctx context.Context, tr *tracer, tenant string, artifact []byte) ([]uint64, error) {
	gens := make([]uint64, len(f.nodes))
	errs := make([]error, len(f.nodes))
	var wg sync.WaitGroup
	for i, n := range f.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			gens[i], errs[i] = f.pushOne(ctx, tr, n, tenant, artifact)
		}(i, n)
	}
	wg.Wait()
	return gens, errors.Join(errs...)
}

func (f *fleet) pushOne(ctx context.Context, tr *tracer, n *node, tenant string, artifact []byte) (uint64, error) {
	req := tr.newReq()
	sp := tr.begin("stream.push", req, 0)
	defer sp.end()
	if req != 0 {
		ctx = withTrace(ctx, req, sp.s.ID)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+"/v1/reload", bytes.NewReader(artifact))
	if err != nil {
		return 0, err
	}
	hr.Header.Set(serve.TenantHeader, tenant)
	hr.Header.Set("Content-Type", "application/json")
	resp, err := f.push.Do(hr)
	if err != nil {
		return 0, fmt.Errorf("push to %s: %w", n.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("push to %s: %w", n.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("push to %s: HTTP %d: %s", n.name, resp.StatusCode, body)
	}
	var ack struct {
		Tenant     string `json:"tenant"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, fmt.Errorf("push to %s: %w", n.name, err)
	}
	if ack.Tenant != tenant || ack.Generation == 0 {
		return 0, fmt.Errorf("push to %s: acknowledged tenant %q generation %d", n.name, ack.Tenant, ack.Generation)
	}
	return ack.Generation, nil
}

// encodeRules is the artifact form of rules, as pushed to the nodes.
func encodeRules(rules *core.RuleSet) ([]byte, error) {
	var buf bytes.Buffer
	err := core.WriteRuleSet(&buf, rules)
	return buf.Bytes(), err
}
