package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pnn/api"
	"pnn/internal/obs"
	"pnn/server"
)

// TestRouterExposition validates the full router /metrics page with the
// shared exposition parser after mixed traffic: unique # TYPE lines, no
// duplicate series, cumulative histogram buckets — the regression guard
// for merging the router's own series with the per-backend families.
func TestRouterExposition(t *testing.T) {
	sets := testSets(t)
	hs1, _ := newBackend(t, sets)
	hs2, _ := newBackend(t, sets)
	rt := newRouter(t, Config{Backends: []string{hs1.URL, hs2.URL}, ProbeInterval: -1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	for _, path := range []string{
		"/v1/nonzero?dataset=ds0&x=1&y=2",
		"/v1/topk?dataset=ds1&x=0&y=0&k=2",
		"/healthz",
	} {
		resp, err := http.Get(router.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(body)
	if err := obs.CheckExposition(page); err != nil {
		t.Fatalf("invalid router exposition page: %v\n%s", err, page)
	}
	for _, want := range []string{
		"pnn_router_requests_total 2", // healthz and /metrics are not API traffic
		`pnn_router_request_duration_seconds_bucket{endpoint="nonzero",le="+Inf"} 1`,
		`pnn_router_request_duration_seconds_count{endpoint="healthz"} 1`,
		"pnn_router_backend_latency_seconds_bucket{backend=",
		"pnn_router_backend_latency_seconds_sum{backend=",
		"pnn_router_backend_up{backend=",
		"pnn_router_backends 2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Per-backend series are pre-minted: both backends appear even
	// though rendezvous may have sent all traffic to one.
	for _, hs := range []string{hs1.URL, hs2.URL} {
		if !strings.Contains(page, `pnn_router_backend_requests_total{backend="`+hs+`"}`) {
			t.Errorf("backend %s missing from /metrics", hs)
		}
	}
}

// TestRouterRequestIDPropagation is the end-to-end correlation
// contract, now on the trace ID (the only correlation ID): one trace
// ID supplied by the client is echoed on the router response, logged
// by the router, forwarded to the backend, and logged there — and
// backend error bodies proxied through the router and router-minted
// ones carry it as trace_id and in the deprecated request_id alias.
func TestRouterRequestIDPropagation(t *testing.T) {
	var routerBuf, backendBuf bytes.Buffer
	routerLog := slog.New(slog.NewJSONHandler(&lockedWriter{w: &routerBuf}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	backendLog := slog.New(slog.NewJSONHandler(&lockedWriter{w: &backendBuf}, &slog.HandlerOptions{Level: slog.LevelDebug}))

	reg := server.NewRegistry()
	for name, set := range testSets(t) {
		if err := reg.Add(name, set); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(reg, server.Config{Logger: backendLog})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	rt := newRouter(t, Config{Backends: []string{hs.URL}, ProbeInterval: -1, Logger: routerLog})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	const id = "cafef00d00000042cafef00d00000042"
	parent := obs.FormatTraceParent(id, "00000000000000cc", false)
	req, _ := http.NewRequest(http.MethodGet, router.URL+"/v1/nonzero?dataset=ds0&x=1&y=2", nil)
	req.Header.Set(api.TraceParentHeader, parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got, _, _ := obs.ParseTraceParent(resp.Header.Get(api.TraceParentHeader)); got != id {
		t.Errorf("router response trace id = %q, want %q", got, id)
	}
	if !strings.Contains(routerBuf.String(), `"trace_id":"`+id+`"`) {
		t.Errorf("router log has no line with the trace id:\n%s", routerBuf.String())
	}
	if !strings.Contains(backendBuf.String(), `"trace_id":"`+id+`"`) {
		t.Errorf("backend log has no line with the trace id (not forwarded?):\n%s", backendBuf.String())
	}

	// A backend-minted error proxied through the router keeps the ID in
	// its body: the backend read it from the forwarded traceparent.
	req, _ = http.NewRequest(http.MethodGet, router.URL+"/v1/nonzero?dataset=ghost&x=1&y=2", nil)
	req.Header.Set(api.TraceParentHeader, parent)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.TraceID != id || e.RequestID != id {
		t.Errorf("proxied error body trace_id/request_id = %q/%q, want %q", e.TraceID, e.RequestID, id)
	}

	// A router-minted error (dead fleet) carries the ID too.
	dead := newRouter(t, Config{Backends: []string{"http://127.0.0.1:1"}, ProbeInterval: -1, RequestTimeout: -1})
	dead.backends[0].up.Store(false)
	dead.probing = true // fast-fail instead of failing open
	deadSrv := httptest.NewServer(dead.Handler())
	defer deadSrv.Close()
	req, _ = http.NewRequest(http.MethodGet, deadSrv.URL+"/v1/nonzero?dataset=ds0&x=1&y=2", nil)
	req.Header.Set(api.TraceParentHeader, parent)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	e = api.Error{}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Code != api.CodeNoBackend || e.TraceID != id || e.RequestID != id {
		t.Errorf("router-minted error = %+v, want no_backend with trace_id and request_id %q", e, id)
	}
	if rt.Metrics().Snapshot().ErrorsByCode[api.CodeNoBackend] != 0 {
		t.Error("healthy router counted a no_backend error")
	}
	if dead.Metrics().Snapshot().ErrorsByCode[api.CodeNoBackend] != 1 {
		t.Errorf("dead router ErrorsByCode = %+v, want one no_backend", dead.Metrics().Snapshot().ErrorsByCode)
	}
}

// TestRouterDebugObs checks the router's JSON snapshot endpoint.
func TestRouterDebugObs(t *testing.T) {
	sets := testSets(t)
	hs1, _ := newBackend(t, sets)
	rt := newRouter(t, Config{Backends: []string{hs1.URL}, ProbeInterval: -1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	if _, err := http.Get(router.URL + "/v1/nonzero?dataset=ds0&x=1&y=2"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(router.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding /debug/obs: %v\n%s", err, body)
	}
	if snap.Counters["pnn_router_requests_total"][""] != 1 {
		t.Errorf("requests = %+v", snap.Counters["pnn_router_requests_total"])
	}
	lat := snap.Histograms["pnn_router_backend_latency_seconds"]
	if lat[hs1.URL].Count != 1 || lat[hs1.URL].P99 <= 0 {
		t.Errorf("backend latency stats = %+v, want one observation with p99 > 0", lat[hs1.URL])
	}
}

// lockedWriter serializes concurrent slog writes into one buffer.
type lockedWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
