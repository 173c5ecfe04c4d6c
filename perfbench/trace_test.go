package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// Self time subtracts the union of the children's intervals: overlapping
// children are not subtracted twice, a child running past its parent's end
// counts only up to that end, and a grandchild counts against its own
// parent only.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // outlives its parent
		{ID: 5, Parent: 2, Start: 15, End: 35},  // inside span 2
		{ID: 6, Start: 200, End: 250},           // unrelated root
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 40, 2: 10, 3: 30, 4: 30, 5: 20, 6: 50} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

// A request id and parent set on the context reach the server's span
// through the stamping transport and the handler wrapper; requests
// without them pass through unrecorded.
func TestSpanPropagatesAcrossHTTP(t *testing.T) {
	tr := newTracer()
	inner := make(chan string, 2) // the next hop's parent, one per request
	srv := httptest.NewServer(wrapHandler(tr, "serve.handle", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner <- r.Header.Get(parentHeader)
	})))
	defer srv.Close()
	hc := &http.Client{Transport: stampTransport{base: http.DefaultTransport}}
	defer hc.CloseIdleConnections()

	get := func(ctx context.Context) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get(context.Background())
	if n := len(tr.all()); n != 0 {
		t.Fatalf("unmarked request recorded %d spans", n)
	}
	if p := <-inner; p != "" {
		t.Fatalf("unmarked request carried parent %q", p)
	}
	req := tr.newReq()
	client := tr.begin("client.small", req, 0)
	get(withTrace(context.Background(), req, client.s.ID))
	client.end()

	spans := tr.all()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	node := spans[0]
	if node.Name != "serve.handle" || node.Req != req || node.Parent != client.s.ID {
		t.Errorf("node span %+v, want request %d under parent %d", node, req, client.s.ID)
	}
	if p, want := <-inner, strconv.FormatInt(node.ID, 10); p != want {
		t.Errorf("handler saw parent %q, want its own span id %s for the next hop", p, want)
	}
}
