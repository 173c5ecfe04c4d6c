// Command crrrouter fronts a fleet of crrserve nodes as a stateless router:
// it hashes each request's tenant onto the consistent-hash ring, forwards
// the request to the owning node without touching the body (JSON and binary
// columnar both pass through byte-for-byte), and fails over to the next
// ring replica when a node dies mid-request. Per-tenant token-bucket quotas
// and in-flight caps keep one tenant from starving the fleet.
//
// Usage:
//
//	crrserve  -registry /srv/reg-a -addr :8081 &
//	crrserve  -registry /srv/reg-b -addr :8082 &
//	crrrouter -addr :8080 -node n1=http://localhost:8081 -node n2=http://localhost:8082
//
//	curl -s localhost:8080/t/acme/v1/predict -d '{"tuple":{"Salary":82000,"State":"IA"}}'
//	curl -s -H 'X-CRR-Tenant: acme' localhost:8080/v1/predict -d '...'
//	curl -s localhost:8080/v1/shardmap     # the ring, for direct-routing SDKs
//	curl -s localhost:8080/healthz
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/crrlab/crr/internal/cluster"
	"github.com/crrlab/crr/internal/router"
	"github.com/crrlab/crr/internal/serve"
	"github.com/crrlab/crr/internal/telemetry"
)

// nodeList collects repeated -node flags.
type nodeList []string

func (n *nodeList) String() string     { return strings.Join(*n, ",") }
func (n *nodeList) Set(v string) error { *n = append(*n, v); return nil }

func main() {
	var nodes nodeList
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		replicas   = flag.Int("replicas", 2, "ring candidates per tenant (primary + failover replicas)")
		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per physical node")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "liveness probe period")
		reqTimeout = flag.Duration("timeout", 30*time.Second, "per-request forwarding deadline (all failover attempts)")
		quotaRPS   = flag.Float64("quota-rps", 0, "per-tenant token-bucket rate, requests/second (0 = unlimited)")
		quotaBurst = flag.Int("quota-burst", 0, "per-tenant bucket depth (default ceil(quota-rps))")
		tenantCap  = flag.Int("tenant-max-inflight", 0, "per-tenant concurrent-forward cap (0 = unlimited)")
		quiet      = flag.Bool("quiet", false, "suppress lifecycle log lines")
	)
	flag.Var(&nodes, "node", "serve node as name=url or url (repeatable; required)")
	flag.Parse()
	if err := run(nodes, *addr, *replicas, *vnodes, *probeEvery, *reqTimeout,
		*quotaRPS, *quotaBurst, *tenantCap, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "crrrouter:", err)
		os.Exit(1)
	}
}

func run(nodes []string, addr string, replicas, vnodes int, probeEvery, reqTimeout time.Duration,
	quotaRPS float64, quotaBurst, tenantCap int, quiet bool) error {
	if len(nodes) == 0 {
		return fmt.Errorf("at least one -node is required (see -h)")
	}
	logf := log.Printf
	if quiet {
		logf = func(string, ...any) {}
	}
	specs := make([]cluster.NodeSpec, 0, len(nodes))
	for _, n := range nodes {
		spec, err := cluster.ParseNodeSpec(n)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	// One registry feeds both the cluster.* and router.* metrics, so
	// /metrics on the router shows the whole picture.
	reg := telemetry.New()
	tracker, err := cluster.NewTracker(specs, cluster.TrackerConfig{
		ProbeInterval: probeEvery,
		VNodes:        vnodes,
		Replicas:      replicas,
		Registry:      reg,
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	rtr, err := router.New(router.Config{
		Tracker:           tracker,
		RequestTimeout:    reqTimeout,
		QuotaRPS:          quotaRPS,
		QuotaBurst:        quotaBurst,
		TenantMaxInFlight: tenantCap,
		Registry:          reg,
		Logf:              logf,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Probe immediately so the first forwards already know the fleet state,
	// then keep probing in the background.
	tracker.ProbeOnce(ctx)
	go tracker.Run(ctx)

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logf("crrrouter: listening on %s, %d node(s)", l.Addr(), len(specs))
	hs := &http.Server{
		Handler: rtr.Handler(),
		// Slow-header clients are dropped after the forwarding deadline;
		// they would otherwise hold connections outside every quota.
		ReadHeaderTimeout: rtr.RequestTimeout(),
		IdleTimeout:       serve.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	logf("crrrouter: clean exit")
	return nil
}
