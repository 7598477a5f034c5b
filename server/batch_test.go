package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pnn/api"
)

// postBatch posts items to /v1/batch and decodes the envelope.
func postBatch(t *testing.T, hs *httptest.Server, items []api.BatchItem) (int, api.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(api.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+api.BatchPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out api.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding batch response: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, out
}

// TestBatchByteIdenticalToSingle: every batch item's Body must be
// byte-identical to the corresponding single-query endpoint's response
// body (modulo the trailing newline the single path appends) — the
// guarantee the shard router's scatter-gather builds on.
func TestBatchByteIdenticalToSingle(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	singles := []string{
		"/v1/nonzero?dataset=fleet&x=3&y=4",
		"/v1/probabilities?dataset=fleet&x=3&y=4",
		"/v1/topk?dataset=fleet&x=3&y=4&k=2",
		"/v1/threshold?dataset=fleet&x=3&y=4&tau=0.2",
		"/v1/expectednn?dataset=fleet&x=3&y=4",
		"/v1/probabilities?dataset=fleet&x=3&y=4&method=spiral&eps=0.05",
	}
	items := []api.BatchItem{
		{Dataset: "fleet", Op: "nonzero", X: 3, Y: 4},
		{Dataset: "fleet", Op: "probabilities", X: 3, Y: 4},
		{Dataset: "fleet", Op: "topk", X: 3, Y: 4, K: 2},
		{Dataset: "fleet", Op: "threshold", X: 3, Y: 4, Tau: 0.2},
		{Dataset: "fleet", Op: "expectednn", X: 3, Y: 4},
		{Dataset: "fleet", Op: "probabilities", X: 3, Y: 4, Method: "spiral", Eps: 0.05},
	}
	status, bresp := postBatch(t, hs, items)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if len(bresp.Results) != len(items) {
		t.Fatalf("got %d results, want %d", len(bresp.Results), len(items))
	}
	for i, path := range singles {
		code, _, single := getBody(t, hs, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s -> %d", path, code)
		}
		res := bresp.Results[i]
		if res.Error != nil {
			t.Fatalf("item %d errored: %+v", i, res.Error)
		}
		want := bytes.TrimSuffix(single, []byte("\n"))
		if !bytes.Equal(res.Body, want) {
			t.Errorf("item %d body mismatch:\nbatch:  %s\nsingle: %s", i, res.Body, want)
		}
	}
}

// TestBatchPerItemErrors: a failing item reports its own api error
// code in request order, without poisoning its batchmates.
func TestBatchPerItemErrors(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	items := []api.BatchItem{
		{Dataset: "fleet", Op: "nonzero", X: 1, Y: 2},
		{Dataset: "nope", Op: "nonzero", X: 1, Y: 2},
		{Dataset: "fleet", Op: "frobnicate", X: 1, Y: 2},
		{Dataset: "fleet", Op: "probabilities", X: 1, Y: 2, Method: "spiral", Eps: 7},
		{Op: "nonzero", X: 1, Y: 2},
	}
	status, bresp := postBatch(t, hs, items)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if bresp.Results[0].Error != nil || bresp.Results[0].Body == nil {
		t.Errorf("item 0: want success, got %+v", bresp.Results[0].Error)
	}
	wantCodes := map[int]string{
		1: api.CodeUnknownDataset,
		2: api.CodeBadParam,
		3: api.CodeBadParam,
		4: api.CodeBadParam,
	}
	for i, code := range wantCodes {
		res := bresp.Results[i]
		if res.Error == nil {
			t.Errorf("item %d: want error %q, got success", i, code)
			continue
		}
		if res.Error.Code != code {
			t.Errorf("item %d: code = %q, want %q (%s)", i, res.Error.Code, code, res.Error.Error)
		}
	}
}

// TestBatchSharesCacheWithSingle: a batch item repeating an earlier
// single query must be served from the shared result cache.
func TestBatchSharesCacheWithSingle(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	code, _, _ := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=9&y=9")
	if code != http.StatusOK {
		t.Fatalf("warmup status = %d", code)
	}
	before := srv.Metrics().Snapshot().CacheHits
	status, bresp := postBatch(t, hs, []api.BatchItem{{Dataset: "fleet", Op: "nonzero", X: 9, Y: 9}})
	if status != http.StatusOK || bresp.Results[0].Error != nil {
		t.Fatalf("batch failed: %d %+v", status, bresp.Results[0].Error)
	}
	if after := srv.Metrics().Snapshot().CacheHits; after != before+1 {
		t.Errorf("cache hits = %d, want %d (batch item should hit the single-query cache line)", after, before+1)
	}
	// A stray K or Tau on an op that doesn't use them must not
	// fragment the cache line (normalize zeroes the irrelevant ones).
	before = srv.Metrics().Snapshot().CacheHits
	status, bresp = postBatch(t, hs, []api.BatchItem{{Dataset: "fleet", Op: "nonzero", X: 9, Y: 9, K: 5, Tau: 0.7}})
	if status != http.StatusOK || bresp.Results[0].Error != nil {
		t.Fatalf("batch with stray k/tau failed: %d %+v", status, bresp.Results[0].Error)
	}
	if after := srv.Metrics().Snapshot().CacheHits; after != before+1 {
		t.Errorf("cache hits = %d, want %d (stray k/tau must not fragment the cache key)", after, before+1)
	}
}

// TestUnknownDataset404 is the regression test for the uniform
// unknown-dataset contract: every query path — all five single-query
// endpoints, warm cache or cold, and batch items — answers an unknown
// dataset name with 404 and api.CodeUnknownDataset, never a generic
// 500.
func TestUnknownDataset404(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Warm the cache with known-dataset queries first so the
	// lookup-through-cache path is exercised too.
	for _, warm := range []string{
		"/v1/nonzero?dataset=fleet&x=1&y=2",
		"/v1/topk?dataset=fleet&x=1&y=2&k=2",
	} {
		if code, _, _ := getBody(t, hs, warm); code != http.StatusOK {
			t.Fatalf("warmup %s -> %d", warm, code)
		}
	}
	paths := []string{
		"/v1/nonzero?dataset=nope&x=1&y=2",
		"/v1/probabilities?dataset=nope&x=1&y=2",
		"/v1/topk?dataset=nope&x=1&y=2&k=2",
		"/v1/threshold?dataset=nope&x=1&y=2&tau=0.5",
		"/v1/expectednn?dataset=nope&x=1&y=2",
	}
	for _, path := range paths {
		code, _, body := getBody(t, hs, path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s -> %d, want 404 (%s)", path, code, body)
			continue
		}
		var apiErr api.Error
		if err := json.Unmarshal(body, &apiErr); err != nil {
			t.Errorf("GET %s: undecodable error body %q", path, body)
			continue
		}
		if apiErr.Code != api.CodeUnknownDataset {
			t.Errorf("GET %s: code = %q, want %q", path, apiErr.Code, api.CodeUnknownDataset)
		}
	}
	// Same contract per batch item.
	for _, op := range []string{"nonzero", "probabilities", "topk", "threshold", "expectednn"} {
		status, bresp := postBatch(t, hs, []api.BatchItem{{Dataset: "nope", Op: op, X: 1, Y: 2, K: 2, Tau: 0.5}})
		if status != http.StatusOK {
			t.Fatalf("batch status = %d", status)
		}
		res := bresp.Results[0]
		if res.Error == nil || res.Error.Code != api.CodeUnknownDataset {
			t.Errorf("batch op %s: error = %+v, want code %q", op, res.Error, api.CodeUnknownDataset)
		}
	}
}

// TestBatchRejectsOversizeAndNonPOST covers the envelope-level guards.
func TestBatchRejectsOversizeAndNonPOST(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	code, _, body := getBody(t, hs, api.BatchPath)
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET %s -> %d, want 405 (%s)", api.BatchPath, code, body)
	}
	items := make([]api.BatchItem, api.MaxBatchItems+1)
	for i := range items {
		items[i] = api.BatchItem{Dataset: "fleet", Op: "nonzero", X: float64(i), Y: 0}
	}
	status, _ := postBatch(t, hs, items)
	if status != http.StatusBadRequest {
		t.Errorf("oversize batch -> %d, want 400", status)
	}
}

// TestBatchExemptFromRequestTimeout: /v1/batch must not sit behind the
// single-query TimeoutHandler — a batch outliving the per-request
// budget would collapse into a plaintext 503 that discards every
// per-item result. With a RequestTimeout far too small for any work,
// single queries 503 via TimeoutHandler while the batch still answers
// 200 with one JSON result per item (each item spending its own
// budget, surfacing per-item timeout errors at worst).
func TestBatchExemptFromRequestTimeout(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{RequestTimeout: time.Nanosecond})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	code, _, _ := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=1&y=2")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("single query with 1ns budget -> %d, want TimeoutHandler's 503", code)
	}
	items := []api.BatchItem{
		{Dataset: "fleet", Op: "nonzero", X: 1, Y: 2},
		{Dataset: "fleet", Op: "topk", X: 1, Y: 2, K: 2},
	}
	status, bresp := postBatch(t, hs, items)
	if status != http.StatusOK {
		t.Fatalf("batch with 1ns per-item budget -> %d, want 200 with per-item results", status)
	}
	if len(bresp.Results) != len(items) {
		t.Fatalf("got %d results, want %d", len(bresp.Results), len(items))
	}
	for i, res := range bresp.Results {
		if (res.Error == nil) == (res.Body == nil) {
			t.Errorf("item %d: want exactly one of Body and Error, got %+v", i, res)
		}
	}
}

// TestQueryMethodNotAllowed: single-query endpoints are GET-only.
func TestQueryMethodNotAllowed(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/nonzero?dataset=fleet&x=1&y=2", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/nonzero -> %d (%s), want 405", resp.StatusCode, body)
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code != api.CodeBadRequest {
		t.Errorf("error = %+v, want code %q", apiErr, api.CodeBadRequest)
	}
}
