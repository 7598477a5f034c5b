package client

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pnn"
	"pnn/api"
	"pnn/internal/datafile"
	"pnn/server"
	"pnn/server/shard"
)

func testServer(t *testing.T) (*Client, pnn.UncertainSet) {
	t.Helper()
	c, set, _ := testServerURL(t)
	return c, set
}

func testServerURL(t *testing.T) (*Client, pnn.UncertainSet, string) {
	t.Helper()
	gp := datafile.DefaultGenParams()
	gp.N, gp.K, gp.Seed = 15, 3, 4
	df, err := datafile.Generate("discrete", gp)
	if err != nil {
		t.Fatal(err)
	}
	set, err := df.Set()
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add("fleet", set); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return New(hs.URL, WithHTTPClient(hs.Client())), set, hs.URL
}

// TestClientMatchesIndex round-trips every client method and compares
// against direct pnn.Index answers.
func TestClientMatchesIndex(t *testing.T) {
	c, set := testServer(t)
	idx, err := pnn.New(set)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const x, y = 12.5, 7.25

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Datasets != 1 {
		t.Fatalf("health: %+v, %v", h, err)
	}

	infos, err := c.Datasets(ctx)
	if err != nil || len(infos) != 1 || infos[0].Name != "fleet" || infos[0].N != set.Len() {
		t.Fatalf("datasets: %+v, %v", infos, err)
	}

	nz, err := c.Nonzero(ctx, "fleet", x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNZ, _ := idx.Nonzero(pnn.Pt(x, y))
	if !reflect.DeepEqual(nz.Indices, wantNZ) {
		t.Errorf("nonzero = %v, want %v", nz.Indices, wantNZ)
	}

	pi, err := c.Probabilities(ctx, "fleet", x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPi, _ := idx.Probabilities(pnn.Pt(x, y))
	if !reflect.DeepEqual(pi.Probabilities, wantPi) {
		t.Errorf("probabilities mismatch")
	}

	tk, err := c.TopK(ctx, "fleet", x, y, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTK, _ := idx.TopK(pnn.Pt(x, y), 3)
	if len(tk.Results) != len(wantTK) {
		t.Fatalf("topk lengths: %d vs %d", len(tk.Results), len(wantTK))
	}
	for i := range wantTK {
		if tk.Results[i].Index != wantTK[i].Index || tk.Results[i].P != wantTK[i].Prob {
			t.Errorf("topk[%d] = %+v, want %+v", i, tk.Results[i], wantTK[i])
		}
	}

	th, err := c.Threshold(ctx, "fleet", x, y, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTH, _ := idx.Threshold(pnn.Pt(x, y), 0.25)
	if !reflect.DeepEqual(th.Certain, emptyIfNil(wantTH.Certain)) ||
		!reflect.DeepEqual(th.Possible, emptyIfNil(wantTH.Possible)) {
		t.Errorf("threshold = %+v, want %+v", th, wantTH)
	}

	enn, err := c.ExpectedNN(ctx, "fleet", x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	wi, wd, _ := idx.ExpectedNN(pnn.Pt(x, y))
	if enn.Index != wi || math.Abs(enn.Distance-wd) > 0 {
		t.Errorf("expectednn = %+v, want (%d, %g)", enn, wi, wd)
	}
}

// TestClientParams checks engine parameters reach the server: a spiral
// engine reports its eps back.
func TestClientParams(t *testing.T) {
	c, _ := testServer(t)
	pi, err := c.Probabilities(context.Background(), "fleet", 1, 2,
		&Params{Method: "spiral", Eps: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Eps != 0.125 {
		t.Errorf("eps = %g, want 0.125", pi.Eps)
	}
}

// TestClientErrors checks non-2xx replies become typed APIErrors.
func TestClientErrors(t *testing.T) {
	c, _ := testServer(t)
	_, err := c.Nonzero(context.Background(), "missing", 1, 2, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.StatusCode != 404 || apiErr.Message == "" {
		t.Errorf("apiErr = %+v", apiErr)
	}
	if apiErr.Code != api.CodeUnknownDataset {
		t.Errorf("apiErr.Code = %q, want %q", apiErr.Code, api.CodeUnknownDataset)
	}
	if len(apiErr.TraceID) != 32 {
		t.Errorf("apiErr.TraceID = %q, want a minted 32-hex trace id", apiErr.TraceID)
	}
	if !strings.Contains(apiErr.Error(), apiErr.TraceID) {
		t.Errorf("Error() = %q, want the trace id included", apiErr.Error())
	}

	if _, err := c.TopK(context.Background(), "fleet", 1, 2, -1, nil); err == nil {
		t.Error("negative k: want an error")
	}
}

// TestClientRequestIDThroughRouter: an error answered through the full
// stack (client → router → backend) surfaces the trace ID the router
// minted — the stack's one correlation ID, which replaced the separate
// request ID — so one identifier correlates the client-side failure
// with the log lines on both tiers.
func TestClientRequestIDThroughRouter(t *testing.T) {
	_, _, backendURL := testServerURL(t)
	rt, err := shard.New(shard.Config{Backends: []string{backendURL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	c := New(router.URL)
	_, err = c.Nonzero(context.Background(), "missing", 1, 2, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.Code != api.CodeUnknownDataset {
		t.Errorf("apiErr.Code = %q", apiErr.Code)
	}
	if len(apiErr.TraceID) != 32 {
		t.Errorf("routed apiErr.TraceID = %q, want a minted 32-hex trace id", apiErr.TraceID)
	}
}

// TestClientBatch round-trips a heterogeneous batch and compares the
// decoded items against the single-query methods.
func TestClientBatch(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	const x, y = 12.5, 7.25

	results, err := c.Batch(ctx, []api.BatchItem{
		{Dataset: "fleet", Op: "nonzero", X: x, Y: y},
		{Dataset: "fleet", Op: "topk", X: x, Y: y, K: 3},
		{Dataset: "nope", Op: "nonzero", X: x, Y: y},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}

	var nz api.Nonzero
	if err := results[0].Decode(&nz); err != nil {
		t.Fatal(err)
	}
	wantNZ, err := c.Nonzero(ctx, "fleet", x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nz, *wantNZ) {
		t.Errorf("batch nonzero = %+v, want %+v", nz, *wantNZ)
	}

	var tk api.TopK
	if err := results[1].Decode(&tk); err != nil {
		t.Fatal(err)
	}
	wantTK, err := c.TopK(ctx, "fleet", x, y, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tk, *wantTK) {
		t.Errorf("batch topk = %+v, want %+v", tk, *wantTK)
	}

	if results[2].Error == nil || results[2].Error.Code != api.CodeUnknownDataset {
		t.Errorf("item 2 error = %+v, want code %q", results[2].Error, api.CodeUnknownDataset)
	}
	var scratch api.Nonzero
	if err := results[2].Decode(&scratch); err == nil {
		t.Error("Decode of an errored item: want an error")
	}
}

// TestClientMultiFailover: a NewMulti client skips a dead endpoint,
// sticks with the healthy one, and never fails over on 4xx API errors.
func TestClientMultiFailover(t *testing.T) {
	_, _, liveURL := testServerURL(t)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	c, err := NewMulti([]string{deadURL, liveURL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Nonzero(ctx, "fleet", 1, 2, nil); err != nil {
		t.Fatalf("multi client with one dead endpoint: %v", err)
	}
	// The live endpoint is now preferred: the next request must not
	// touch the dead one (it would fail the request if tried alone and
	// add latency otherwise); observe via preferred index.
	if got := int(c.preferred.Load()); c.bases[got] != liveURL {
		t.Errorf("preferred endpoint = %q, want %q", c.bases[got], liveURL)
	}
	// A 404 is an API answer, not an endpoint failure: it must come
	// back as *APIError rather than triggering rotation onto the dead
	// endpoint's transport error.
	_, err = c.Nonzero(ctx, "missing", 1, 2, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("want 404 *APIError, got %v", err)
	}

	if _, err := NewMulti(nil); err == nil {
		t.Error("NewMulti(nil): want an error")
	}
}

// TestClientRetriesUnavailable pins the read-retry contract: a
// retryable 503 ("unavailable" — engine churn under writes, a store
// failing over) on every endpoint is retried exactly once after a
// backoff, so a flapping server costs latency, not an error. Non-503
// failures and non-"unavailable" 503s must not retry, and mutations
// must never retry even on a retryable 503.
func TestClientRetriesUnavailable(t *testing.T) {
	var calls atomic.Int64
	flap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.Error{Error: "engine swapping", Code: api.CodeUnavailable})
			return
		}
		json.NewEncoder(w).Encode(api.Nonzero{Dataset: "fleet", N: 1, Indices: []int{0}})
	}))
	defer flap.Close()

	c := New(flap.URL, WithHTTPClient(flap.Client()), WithAdminToken("tok"))
	got, err := c.Nonzero(context.Background(), "fleet", 1, 2, nil)
	if err != nil {
		t.Fatalf("read against flapping server: %v (want the retry to absorb one 503)", err)
	}
	if len(got.Indices) != 1 || calls.Load() != 2 {
		t.Fatalf("retry shape wrong: indices %v after %d calls, want 1 index after 2 calls", got.Indices, calls.Load())
	}

	// An expired context suppresses the retry: the first answer stands.
	calls.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Nonzero(ctx, "fleet", 1, 2, nil); err == nil {
		t.Fatal("cancelled read: want an error")
	}

	// A mutation hitting the same flap must surface the 503 untouched:
	// doAdmin never retries (a timed-out-but-applied write could land
	// twice).
	calls.Store(0)
	_, err = c.DeletePoint(context.Background(), "fleet", 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation on flap: %v, want the 503 surfaced", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("mutation retried: %d calls, want 1", calls.Load())
	}
}

// TestClientNoRetryOnPermanent5xx: a 503 without the "unavailable"
// code (or any other 5xx) is not known-retryable; the client must not
// double the load on a struggling server.
func TestClientNoRetryOnPermanent5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(api.Error{Error: "boom", Code: api.CodeInternal})
	}))
	defer srv.Close()
	c := New(srv.URL, WithHTTPClient(srv.Client()))
	if _, err := c.Nonzero(context.Background(), "fleet", 1, 2, nil); err == nil {
		t.Fatal("want an error from a 500-only server")
	}
	if calls.Load() != 1 {
		t.Fatalf("500 retried: %d calls, want 1", calls.Load())
	}
}

func emptyIfNil(s []int) []int {
	if s == nil {
		return []int{}
	}
	return s
}
