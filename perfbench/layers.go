package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/telemetry"
	"github.com/crrlab/crr/internal/wire"
)

// layerMetrics gathers the per-layer figures of a traced run: medians of
// the per-mine and per-ingest figures, span statistics of the serving
// phase, telemetry counter diffs, and replays of the run's own batches and
// tenants through the layers that run inside the SDK and the router.
// isolated are the one-connection requests, which alternate traced and
// untraced; named are the open-loop requests at the named rate, which the
// load generator figures describe.
func layerMetrics(s *setup, ings []ingestSample, isolated, named []outcome, before, after counters) (map[string]float64, error) {
	l := map[string]float64{}
	perIngest, perMine := map[string][]float64{}, map[string][]float64{}
	for _, ing := range ings {
		for k, v := range ing.layer {
			perIngest[k] = append(perIngest[k], v)
		}
		for _, m := range ing.mines {
			for k, v := range m.layer {
				perMine[k] = append(perMine[k], v)
			}
		}
	}
	for _, group := range []map[string][]float64{perIngest, perMine} {
		for k, vs := range group {
			l[k] = median(vs)
		}
	}

	if err := replay(s, l); err != nil {
		return nil, err
	}
	spans := s.rig.tr.all()
	self := selfTimes(spans)
	for _, sp := range spans {
		l[sp.layer()+".self_s"] += self[sp.ID].Seconds()
	}
	l["trace.spans"] = float64(len(spans))
	requestSpans(spans, self, l)

	for _, name := range []string{"shed", "timeouts"} {
		l["serve."+name] = after.diff(before, "serve."+name)
	}
	for _, n := range s.fleet.nodes {
		l["serve.inflight_max"] = max(l["serve.inflight_max"], n.reg.Gauge(telemetry.MetricServeInFlight).Max())
	}
	for _, name := range []string{telemetry.MetricRouterForwards, telemetry.MetricRouterFailovers,
		telemetry.MetricRouterQuotaRejections, telemetry.MetricRouterUpstreamErrors, telemetry.MetricClusterRingRebuilds} {
		l[name] = after.diff(before, name)
	}

	fd := s.feeder
	l["stream.append_ns_per_row"] = median(fd.appendNs)
	l["stream.snapshot_ms"] = median(fd.snapMs)
	c := fd.reg.Snapshot().Counters
	for _, name := range []string{telemetry.MetricStreamRefits, telemetry.MetricStreamDriftEvents,
		telemetry.MetricStreamRetires, telemetry.MetricStreamRebuilds, telemetry.MetricStreamSwaps} {
		l[name] = float64(c[name])
	}

	var tracedSmall, plainSmall []float64
	for _, o := range isolated {
		if o.class == classSmall && !o.failed && o.traced {
			tracedSmall = append(tracedSmall, o.lat)
		} else if o.class == classSmall && !o.failed {
			plainSmall = append(plainSmall, o.lat)
		}
	}
	l["trace.overhead_small_p50_ratio"] = median(tracedSmall) / median(plainSmall)
	var late []float64
	ok := 0
	for _, o := range named {
		late = append(late, o.late)
		if !o.failed {
			ok++
		}
	}
	l["loadgen.late_p50_ms"] = median(late)
	l["loadgen.late_tail_ms"] = tailOf(late).Value
	l["loadgen.sent"] = float64(len(named))
	l["loadgen.succeeded"] = float64(ok)
	l["loadgen.failed"] = float64(len(named) - ok)
	return l, nil
}

// requestSpans derives the per-request figures: node handler time per
// request class, reload handling, and router and SDK self time.
func requestSpans(spans []span, self map[int64]time.Duration, l map[string]float64) {
	root := map[int64]string{} // request id → root span name
	for _, sp := range spans {
		if sp.Req != 0 && sp.Parent == 0 {
			root[sp.Req] = sp.Name
		}
	}
	byName := map[string][]float64{}
	for _, sp := range spans {
		if sp.Req == 0 {
			continue
		}
		switch sp.Name {
		case "serve.handle":
			byName[root[sp.Req]+"/serve"] = append(byName[root[sp.Req]+"/serve"], ms(sp.dur()))
		case "router.forward", "client.small", "client.batch":
			byName[sp.Name] = append(byName[sp.Name], ms(self[sp.ID]))
		}
	}
	small, batch := byName["client.small/serve"], byName["client.batch/serve"]
	l["serve.small_handler_p50_ms"], l["serve.small_handler_tail_ms"] = median(small), tailOf(small).Value
	l["serve.batch_handler_p50_ms"], l["serve.batch_handler_tail_ms"] = median(batch), tailOf(batch).Value
	l["serve.reload_ms"] = median(byName["stream.push/serve"])
	l["router.self_p50_ms"] = median(byName["router.forward"])
	l["client.self_p50_ms"] = median(append(byName["client.small"], byName["client.batch"]...))
}

// replay times the layers that run inside the SDK and the router on the
// run's own traffic: every batch sent is encoded and decoded again, and
// classified in process; every request's tenant is routed again.
func replay(s *setup, l map[string]float64) error {
	tr := s.rig.tr
	var encNs, decNs, classNs, bytesOut, rows float64
	var buf bytes.Buffer
	for i := range s.rig.batches {
		p := &s.rig.batches[i]
		for u := s.rig.batchUses[i].Load(); u > 0; u-- {
			buf.Reset()
			sp := tr.begin("wire.encode", 0, 0)
			t0 := time.Now()
			if err := wire.EncodeBatch(&buf, p.wire, wire.EncodeOptions{}); err != nil {
				return fmt.Errorf("replay encode: %w", err)
			}
			encNs += float64(time.Since(t0))
			sp.end()
			bytesOut += float64(buf.Len())
			sp = tr.begin("wire.decode", 0, 0)
			t0 = time.Now()
			if _, err := wire.DecodeBatch(&buf, wire.DecodeLimits{}); err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			decNs += float64(time.Since(t0))
			sp.end()
			sp = tr.begin("core.classify", 0, 0)
			t0 = time.Now()
			if u%2 == 0 {
				s.rig.static.PredictView(p.cols.View())
			} else {
				core.ViolationsColumns(p.cols, s.rig.static)
			}
			classNs += float64(time.Since(t0))
			sp.end()
			rows += float64(p.wire.Rows)
		}
	}
	l["wire.encode_ns_per_row"] = encNs / rows
	l["wire.decode_ns_per_row"] = decNs / rows
	l["wire.bytes_per_row"] = bytesOut / rows
	l["core.classify_ns_per_row"] = classNs / rows

	var routeNs, routes float64
	for i, tenant := range []string{tenantStatic, tenantStream} {
		n := s.rig.tenantReqs[i].Load()
		sp := tr.begin("cluster.route", 0, 0)
		t0 := time.Now()
		for k := int64(0); k < n; k++ {
			s.fleet.tracker.Route(tenant)
		}
		routeNs += float64(time.Since(t0))
		sp.end()
		routes += float64(n)
	}
	l["cluster.route_ns"] = routeNs / routes
	return nil
}
