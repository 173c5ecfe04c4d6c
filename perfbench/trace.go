package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only by this benchmark's own code, around its calls
// into each layer: the program under test carries no tracing of its own.
// A span's layer is the part of its name before the first dot.

// span is one timed call. Spans of one request share Req; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a span that has begun but not ended.
type open struct {
	t *tracer
	s span
}

// begin starts a span. req and parent may be 0.
func (t *tracer) begin(name string, req, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: span{
		ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.origin)),
	}}
}

// newReq allocates a request id (0 when tracing is off).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (o open) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.origin))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children are merged first, and a
// child running past its parent's end counts only up to that end.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		curLo, curHi := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// Request ids travel between the SDK, the router and the nodes in these
// headers: the benchmark's round tripper sets them, and the handler
// wrappers read them and pass their own span id on as the next parent.
const (
	reqHeader    = "X-Bench-Req"
	parentHeader = "X-Bench-Parent"
)

type traceKey struct{}

type traceCtx struct{ req, parent int64 }

// withTrace marks ctx so the round tripper stamps the request.
func withTrace(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(ctx, traceKey{}, traceCtx{req, parent})
}

// stampTransport copies the request id and parent span from the context
// into the outgoing headers.
type stampTransport struct{ base http.RoundTripper }

func (s stampTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tc, ok := r.Context().Value(traceKey{}).(traceCtx)
	if !ok {
		return s.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatInt(tc.req, 10))
	r.Header.Set(parentHeader, strconv.FormatInt(tc.parent, 10))
	return s.base.RoundTrip(r)
}

// wrapHandler records a span named name around h for every request that
// carries a request id; unmarked requests pass straight through.
func wrapHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		o := t.begin(name, req, parent)
		r.Header.Set(parentHeader, strconv.FormatInt(o.s.ID, 10))
		h.ServeHTTP(w, r)
		o.end()
	})
}
