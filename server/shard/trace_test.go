package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"pnn/api"
	"pnn/client"
	"pnn/internal/obs"
	"pnn/server"
)

func fetchTraces(t *testing.T, base string) []obs.TraceData {
	t.Helper()
	return fetchTracesAt(t, base+"/debug/traces")
}

func fetchTracesAt(t *testing.T, url string) []obs.TraceData {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("decoding /debug/traces: %v\n%s", err, body)
	}
	return page.Traces
}

func findTrace(t *testing.T, traces []obs.TraceData, traceID, where string) obs.TraceData {
	t.Helper()
	for _, tr := range traces {
		if tr.TraceID == traceID {
			return tr
		}
	}
	t.Fatalf("trace %s not kept on %s (%d traces)", traceID, where, len(traces))
	return obs.TraceData{}
}

func spanNamed(t *testing.T, tr obs.TraceData, name string) obs.SpanData {
	t.Helper()
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp
		}
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	t.Fatalf("trace %s has no span %q (spans: %v)", tr.TraceID, name, names)
	return obs.SpanData{}
}

// TestRoutedQueryTraceEndToEnd is the distributed-tracing acceptance
// test: one routed query yields a kept trace on BOTH tiers under the
// same trace ID — the router's with a proxy span naming the backend it
// forwarded to, the backend's with its own root whose parent is the
// router's proxy span.
func TestRoutedQueryTraceEndToEnd(t *testing.T) {
	var routerBuf bytes.Buffer
	routerLog := slog.New(slog.NewJSONHandler(&lockedWriter{w: &routerBuf}, &slog.HandlerOptions{Level: slog.LevelDebug}))

	sets := testSets(t)
	reg := server.NewRegistry()
	for name, set := range sets {
		if err := reg.Add(name, set); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(reg, server.Config{TraceSampleRate: 1})
	defer srv.Close()
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()

	rt := newRouter(t, Config{Backends: []string{backend.URL}, ProbeInterval: -1, TraceSampleRate: 1, Logger: routerLog})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	const parent = "00-feedfacefeedfacefeedfacefeedface-0123456789abcdef-01"
	req, _ := http.NewRequest(http.MethodGet, router.URL+"/v1/nonzero?dataset=ds0&x=1&y=2", nil)
	req.Header.Set(api.TraceParentHeader, parent)
	resp, err := router.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed query: %d", resp.StatusCode)
	}
	const traceID = "feedfacefeedfacefeedfacefeedface"
	if got, _, ok := obs.ParseTraceParent(resp.Header.Get(api.TraceParentHeader)); !ok || got != traceID {
		t.Fatalf("router traceparent echo = %q, want trace %s", resp.Header.Get(api.TraceParentHeader), traceID)
	}

	rtTrace := findTrace(t, fetchTraces(t, router.URL), traceID, "router")
	rtRoot := spanNamed(t, rtTrace, "nonzero")
	proxy := spanNamed(t, rtTrace, "proxy")
	if proxy.ParentID != rtRoot.SpanID {
		t.Errorf("proxy parent = %q, want router root %q", proxy.ParentID, rtRoot.SpanID)
	}
	if proxy.Attrs["backend"] != backend.URL {
		t.Errorf("proxy backend attr = %q, want %q", proxy.Attrs["backend"], backend.URL)
	}

	beTrace := findTrace(t, fetchTraces(t, backend.URL), traceID, "backend")
	beRoot := spanNamed(t, beTrace, "nonzero")
	if beRoot.ParentID != proxy.SpanID {
		t.Errorf("backend root parent = %q, want router proxy span %q", beRoot.ParentID, proxy.SpanID)
	}

	// The router's request log line carries the same trace ID.
	var line struct {
		TraceID  string `json:"trace_id"`
		Endpoint string `json:"endpoint"`
	}
	dec := json.NewDecoder(bytes.NewReader(routerBuf.Bytes()))
	found := false
	for dec.More() {
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("decoding router log line: %v\n%s", err, routerBuf.String())
		}
		if line.TraceID == traceID && line.Endpoint == "nonzero" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no router log line with trace_id %s:\n%s", traceID, routerBuf.String())
	}
}

// TestRouterDebugTracesByID is the one-ID lookup: the trace ID on a
// routed response's traceparent selects exactly that request's trace
// at /debug/traces?id= on the router and on the backend it reached,
// and the backend tree nests under the router's proxy span.
func TestRouterDebugTracesByID(t *testing.T) {
	reg := server.NewRegistry()
	for name, set := range testSets(t) {
		if err := reg.Add(name, set); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(reg, server.Config{})
	defer srv.Close()
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	rt := newRouter(t, Config{Backends: []string{backend.URL}, ProbeInterval: -1, TraceSampleRate: 1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := http.Get(router.URL + "/v1/topk?dataset=ds0&x=1&y=2&k=2")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id, _, ok := obs.ParseTraceParent(resp.Header.Get(api.TraceParentHeader))
		if !ok || resp.StatusCode != http.StatusOK {
			t.Fatalf("routed query %d: %d, traceparent %q", i, resp.StatusCode, resp.Header.Get(api.TraceParentHeader))
		}
		ids = append(ids, id)
	}
	if n := len(fetchTraces(t, router.URL)); n != 3 {
		t.Fatalf("router keeps %d traces, want 3", n)
	}
	rtTraces := fetchTracesAt(t, router.URL+"/debug/traces?id="+ids[1])
	if len(rtTraces) != 1 || rtTraces[0].TraceID != ids[1] {
		t.Fatalf("router ?id=%s served %d traces, want exactly that one", ids[1], len(rtTraces))
	}
	beTraces := fetchTracesAt(t, backend.URL+"/debug/traces?id="+ids[1])
	if len(beTraces) != 1 || beTraces[0].TraceID != ids[1] {
		t.Fatalf("backend ?id=%s served %d traces, want exactly that one", ids[1], len(beTraces))
	}
	proxy := spanNamed(t, rtTraces[0], "proxy")
	if root := spanNamed(t, beTraces[0], "topk"); root.ParentID != proxy.SpanID {
		t.Errorf("backend root parent = %q, want the router's proxy span %q", root.ParentID, proxy.SpanID)
	}
	spanNamed(t, beTraces[0], "cache")
}

// TestClientAPIErrorTraceID: a failed request through the router hands
// the client the trace ID for /debug/traces lookup — in the APIError
// and rendered in its message.
func TestClientAPIErrorTraceID(t *testing.T) {
	sets := testSets(t)
	hs, _ := newBackend(t, sets)
	rt := newRouter(t, Config{Backends: []string{hs.URL}, ProbeInterval: -1, TraceSampleRate: 1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	cli := client.New(router.URL)
	_, err := cli.Nonzero(context.Background(), "ghost", 1, 2, nil)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *client.APIError", err)
	}
	if len(apiErr.TraceID) != 32 {
		t.Errorf("APIError.TraceID = %q, want a 32-hex trace ID", apiErr.TraceID)
	}
	if apiErr.Code != api.CodeUnknownDataset {
		t.Errorf("code = %q", apiErr.Code)
	}
}
