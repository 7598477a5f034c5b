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

// TestRequestIDEcho: a request without an ID gets one minted and
// echoed; a supplied ID is preserved; error bodies carry it.
func TestRequestIDEcho(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	_, h, _ := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=1&y=2")
	minted := h.Get(api.RequestIDHeader)
	if len(minted) != 16 {
		t.Fatalf("minted request id %q, want 16 hex chars", minted)
	}

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/nonzero?dataset=ghost&x=1&y=2", nil)
	req.Header.Set(api.RequestIDHeader, "deadbeef00000001")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(api.RequestIDHeader); got != "deadbeef00000001" {
		t.Errorf("supplied request id not echoed: got %q", got)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "deadbeef00000001" {
		t.Errorf("error body request_id = %q, want the supplied id", e.RequestID)
	}
	if e.Code != api.CodeUnknownDataset {
		t.Errorf("code = %q", e.Code)
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
	// Batch item errors carry the batch request's ID.
	if id := bresp.Results[1].Error.RequestID; len(id) != 16 {
		t.Errorf("batch item error request_id = %q, want minted id", id)
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
// line per request carrying the request ID, endpoint, dataset, status,
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

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/nonzero?dataset=fleet&x=1&y=2", nil)
	req.Header.Set(api.RequestIDHeader, "feedface00000002")
	if _, err := hs.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Level     string  `json:"level"`
		RequestID string  `json:"request_id"`
		Endpoint  string  `json:"endpoint"`
		Dataset   string  `json:"dataset"`
		Status    int     `json:"status"`
		Duration  float64 `json:"duration"`
	}
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	found := false
	for dec.More() {
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("decoding log line: %v\n%s", err, buf.String())
		}
		if line.RequestID == "feedface00000002" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no log line with the request id:\n%s", buf.String())
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
