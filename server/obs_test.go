package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pnn/api"
	"pnn/internal/obs"
)

// TestMetricsExposition drives traffic through every stage (cache
// miss, hit, batch, error) and validates the full /metrics page with
// the shared exposition parser: unique # TYPE lines, no duplicate
// series, cumulative sorted histogram buckets.
func TestMetricsExposition(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, path := range []string{
		"/v1/nonzero?dataset=fleet&x=1&y=2",
		"/v1/nonzero?dataset=fleet&x=1&y=2", // cache hit
		"/v1/topk?dataset=fleet&x=0&y=0&k=2",
		"/v1/nonzero?dataset=ghost&x=1&y=2", // unknown_dataset error
		"/healthz",
	} {
		getBody(t, hs, path)
	}
	status, _, body := getBody(t, hs, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	page := string(body)
	if err := obs.CheckExposition(page); err != nil {
		t.Fatalf("invalid exposition page: %v\n%s", err, page)
	}
	for _, want := range []string{
		`pnn_requests_total{endpoint="nonzero"} 3`,
		`pnn_requests_total{endpoint="healthz"} 1`,
		`pnn_errors_total{code="unknown_dataset"} 1`,
		`pnn_request_duration_seconds_bucket{endpoint="nonzero",le="+Inf"} 3`,
		`pnn_request_duration_seconds_count{endpoint="topk"} 1`,
		`pnn_request_duration_seconds_sum{endpoint=`,
		`pnn_dataset_duration_seconds_count{dataset="fleet"} 3`,
		`pnn_stage_duration_seconds_bucket{stage="cache",le=`,
		`pnn_stage_duration_seconds_bucket{stage="build",le=`,
		`pnn_stage_duration_seconds_bucket{stage="execute",le=`,
		`pnn_stage_duration_seconds_bucket{stage="encode",le=`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The ghost dataset must not mint a per-dataset histogram child.
	if strings.Contains(page, `dataset="ghost"`) {
		t.Error("unknown dataset leaked into per-dataset latency labels")
	}
}

// TestTraceIDEcho: a request without a traceparent gets a valid one
// minted and echoed; a supplied trace ID is echoed; error bodies carry
// it as trace_id and in the deprecated request_id alias.
func TestTraceIDEcho(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	_, h, _ := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=1&y=2")
	if _, _, ok := obs.ParseTraceParent(h.Get(api.TraceParentHeader)); !ok {
		t.Fatalf("minted traceparent %q is not valid", h.Get(api.TraceParentHeader))
	}

	const traceID = "deadbeef00000001deadbeef00000001"
	status, h, raw := tracedDo(t, hs, http.MethodGet, "/v1/nonzero?dataset=ghost&x=1&y=2",
		obs.FormatTraceParent(traceID, "00000000000000aa", false), nil, "")
	if got, _, _ := obs.ParseTraceParent(h.Get(api.TraceParentHeader)); got != traceID {
		t.Errorf("supplied trace id not echoed: traceparent %q", h.Get(api.TraceParentHeader))
	}
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.TraceID != traceID || e.RequestID != traceID {
		t.Errorf("error body trace_id/request_id = %q/%q, want the supplied trace id in both", e.TraceID, e.RequestID)
	}
	if status != http.StatusNotFound || e.Code != api.CodeUnknownDataset {
		t.Errorf("status %d code %q, want 404 unknown_dataset", status, e.Code)
	}
}

// TestErrorAccounting covers the paths that used to be invisible to
// the error counter: failed batch items and admin-endpoint failures,
// both labeled by wire code.
func TestErrorAccounting(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	breq := api.BatchRequest{Items: []api.BatchItem{
		{Dataset: "fleet", Op: "nonzero", X: 1, Y: 2},
		{Dataset: "ghost", Op: "nonzero", X: 1, Y: 2},
		{Dataset: "fleet", Op: "topk", K: -1},
	}}
	raw, _ := json.Marshal(breq)
	resp, err := hs.Client().Post(hs.URL+api.BatchPath, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var bresp api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if bresp.Results[1].Error == nil || bresp.Results[2].Error == nil {
		t.Fatalf("expected item errors, got %+v", bresp.Results)
	}
	// Batch item errors carry the batch request's trace ID, also in the
	// deprecated request_id alias.
	traceID, _, _ := obs.ParseTraceParent(resp.Header.Get(api.TraceParentHeader))
	if e := bresp.Results[1].Error; len(traceID) != 32 || e.TraceID != traceID || e.RequestID != traceID {
		t.Errorf("batch item error trace_id/request_id = %q/%q, want the batch's trace id %q", e.TraceID, e.RequestID, traceID)
	}

	// Admin failure: no store configured → read_only.
	req, _ := http.NewRequest(http.MethodPut, hs.URL+api.DatasetPath("x"), strings.NewReader(`{"kind":"disks"}`))
	if _, err := hs.Client().Do(req); err != nil {
		t.Fatal(err)
	}

	snap := srv.Metrics().Snapshot()
	if snap.ErrorsByCode[api.CodeUnknownDataset] != 1 {
		t.Errorf("unknown_dataset errors = %d, want 1", snap.ErrorsByCode[api.CodeUnknownDataset])
	}
	if snap.ErrorsByCode[api.CodeBadParam] != 1 {
		t.Errorf("bad_param errors = %d, want 1", snap.ErrorsByCode[api.CodeBadParam])
	}
	if snap.ErrorsByCode[api.CodeReadOnly] != 1 {
		t.Errorf("read_only errors = %d, want 1", snap.ErrorsByCode[api.CodeReadOnly])
	}
	if snap.Errors != 3 {
		t.Errorf("total errors = %d, want 3", snap.Errors)
	}
}

// TestDebugObs checks the JSON snapshot endpoint serves derived
// percentiles per endpoint.
func TestDebugObs(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	getBody(t, hs, "/v1/nonzero?dataset=fleet&x=1&y=2")
	status, _, body := getBody(t, hs, "/debug/obs")
	if status != http.StatusOK {
		t.Fatalf("/debug/obs: %d", status)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding /debug/obs: %v\n%s", err, body)
	}
	lat := snap.Histograms["pnn_request_duration_seconds"]
	if lat["nonzero"].Count != 1 {
		t.Errorf("nonzero latency count = %+v, want 1 observation", lat["nonzero"])
	}
	if lat["nonzero"].P99 <= 0 {
		t.Errorf("nonzero p99 = %g, want > 0", lat["nonzero"].P99)
	}
	if snap.Counters["pnn_requests_total"]["nonzero"] != 1 {
		t.Errorf("counters = %+v", snap.Counters["pnn_requests_total"])
	}
}

// TestRequestLogging checks the request-scoped structured log: one
// line per request carrying the trace ID, endpoint, dataset, status,
// and duration — and the slow-query promotion to Warn.
func TestRequestLogging(t *testing.T) {
	reg, _ := testRegistry(t)
	var buf bytes.Buffer
	mu := &syncWriter{w: &buf}
	logger := slog.New(slog.NewJSONHandler(mu, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv := New(reg, Config{Logger: logger, SlowQueryThreshold: -1})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const traceID = "feedface00000002feedface00000002"
	tracedDo(t, hs, http.MethodGet, "/v1/nonzero?dataset=fleet&x=1&y=2",
		obs.FormatTraceParent(traceID, "00000000000000bb", false), nil, "")
	var line struct {
		Level    string  `json:"level"`
		TraceID  string  `json:"trace_id"`
		Endpoint string  `json:"endpoint"`
		Dataset  string  `json:"dataset"`
		Status   int     `json:"status"`
		Duration float64 `json:"duration"`
	}
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	found := false
	for dec.More() {
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("decoding log line: %v\n%s", err, buf.String())
		}
		if line.TraceID == traceID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no log line with the trace id:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "request_id") {
		t.Errorf("log lines still carry a request_id:\n%s", buf.String())
	}
	if line.Endpoint != "nonzero" || line.Dataset != "fleet" || line.Status != 200 {
		t.Errorf("log line = %+v", line)
	}
	if line.Duration <= 0 {
		t.Errorf("log line duration = %g, want > 0", line.Duration)
	}

	// With a tiny threshold every request is slow: level promotes to WARN.
	buf.Reset()
	srvSlow := New(reg, Config{Logger: logger, SlowQueryThreshold: 1})
	defer srvSlow.Close()
	hsSlow := httptest.NewServer(srvSlow.Handler())
	defer hsSlow.Close()
	getBody(t, hsSlow, "/v1/nonzero?dataset=fleet&x=3&y=4")
	if !strings.Contains(buf.String(), `"WARN"`) {
		t.Errorf("slow query not promoted to WARN:\n%s", buf.String())
	}
}

// syncWriter serializes writes from concurrent request goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
