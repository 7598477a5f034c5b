package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pnn"
	"pnn/api"
	"pnn/internal/datafile"
)

// testRegistry hosts one generated discrete dataset named "fleet".
func testRegistry(t *testing.T) (*Registry, pnn.UncertainSet) {
	t.Helper()
	gp := datafile.DefaultGenParams()
	gp.N, gp.K, gp.Seed = 20, 3, 2
	df, err := datafile.Generate("discrete", gp)
	if err != nil {
		t.Fatal(err)
	}
	set, err := df.Set()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("fleet", set); err != nil {
		t.Fatal(err)
	}
	return reg, set
}

// getBody is safe to call from spawned goroutines (it never FailNows).
func getBody(t *testing.T, hs *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		t.Errorf("GET %s: %v", path, err)
		return 0, nil, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("GET %s: read body: %v", path, err)
		return 0, nil, nil
	}
	return resp.StatusCode, resp.Header, body
}

// installGate builds the engine a query to path would use, through
// the server's own build path, and wraps it in a gatedEngine with a
// one-core batcher before the entry is published: every request for
// that engine then queues behind a batch the test holds open.
func installGate(t *testing.T, srv *Server, path string, op pnn.Op) (*gatedEngine, *indexEntry) {
	t.Helper()
	p, err := parseParams(httptest.NewRequest(http.MethodGet, path, nil), op)
	if err != nil {
		t.Fatal(err)
	}
	ds := srv.reg.Get(p.dataset)
	var g *gatedEngine
	e, err := ds.entry(p.key, 0, func(e *indexEntry) error {
		if err := srv.buildEngine(context.Background(), e, ds, p.key); err != nil {
			return err
		}
		g = newGatedEngine(e.eng)
		e.eng = g
		e.batcher = NewBatcher(g, srv.metrics.flush)
		e.batcher.cores = 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, e
}

// TestCoalescedBatchByteIdentical is the acceptance end-to-end test: N
// concurrent HTTP queries — mixed across all five endpoints — are
// provably coalesced (one request holds the engine, the other N−1
// queue behind it and run as exactly one QueryBatchOps call), and
// every response body is byte-identical to what the same sequential
// pnn.Index call encodes.
func TestCoalescedBatchByteIdentical(t *testing.T) {
	reg, set := testRegistry(t)
	srv := New(reg, Config{
		CacheSize: -1, // cache off: every request must reach the batcher
	})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	g, entry := installGate(t, srv, "/v1/nonzero?dataset=fleet&x=0&y=0", pnn.OpNonzero)
	defer g.open()

	// The sequential oracle: same set, same engine configuration.
	idx, err := pnn.New(set, pnn.WithNonzeroBackend(pnn.BackendIndex),
		pnn.WithQuantifier(pnn.Exact()), pnn.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}

	type call struct {
		path string
		want any // filled from sequential calls below
	}
	qp := func(x, y float64) api.Point { return api.Point{X: x, Y: y} }
	calls := make([]call, 0, 15)
	for i := 0; i < 3; i++ {
		x, y := float64(5+i*7), float64(3+i*11)
		nz, err := idx.Nonzero(pnn.Pt(x, y))
		if err != nil {
			t.Fatal(err)
		}
		pi, err := idx.Probabilities(pnn.Pt(x, y))
		if err != nil {
			t.Fatal(err)
		}
		tk, err := idx.TopK(pnn.Pt(x, y), 3)
		if err != nil {
			t.Fatal(err)
		}
		th, err := idx.Threshold(pnn.Pt(x, y), 0.2)
		if err != nil {
			t.Fatal(err)
		}
		ei, ed, err := idx.ExpectedNN(pnn.Pt(x, y))
		if err != nil {
			t.Fatal(err)
		}
		tkOut := make([]api.IndexProb, len(tk))
		for j, ip := range tk {
			tkOut[j] = api.IndexProb{Index: ip.Index, P: ip.Prob}
		}
		base := fmt.Sprintf("dataset=fleet&x=%g&y=%g", x, y)
		calls = append(calls,
			call{"/v1/nonzero?" + base, api.Nonzero{Dataset: "fleet", Query: qp(x, y), N: set.Len(), Indices: emptyIfNilInts(nz)}},
			call{"/v1/probabilities?" + base, api.Probabilities{Dataset: "fleet", Query: qp(x, y), Probabilities: emptyIfNilFloats(pi)}},
			call{"/v1/topk?" + base + "&k=3", api.TopK{Dataset: "fleet", Query: qp(x, y), K: 3, Results: tkOut}},
			call{"/v1/threshold?" + base + "&tau=0.2", api.Threshold{Dataset: "fleet", Query: qp(x, y), Tau: 0.2,
				Certain: emptyIfNilInts(th.Certain), Possible: emptyIfNilInts(th.Possible)}},
			call{"/v1/expectednn?" + base, api.ExpectedNN{Dataset: "fleet", Query: qp(x, y), Index: ei, Distance: ed}},
		)
	}
	if len(calls) != 15 {
		t.Fatalf("test bug: %d calls, want 15", len(calls))
	}

	bodies := make([][]byte, len(calls))
	var wg sync.WaitGroup
	fetch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, body := getBody(t, hs, calls[i].path)
			if status != http.StatusOK {
				t.Errorf("%s: status %d: %s", calls[i].path, status, body)
				return
			}
			bodies[i] = body
		}()
	}
	fetch(0)
	if got := len(g.waitEntered(t)); got != 1 {
		t.Fatalf("first batch has %d requests, want 1", got)
	}
	for i := 1; i < len(calls); i++ {
		fetch(i)
	}
	waitDepth(t, entry.batcher, len(calls)-1)
	g.open()
	if got := len(g.waitEntered(t)); got != len(calls)-1 {
		t.Errorf("second batch has %d requests, want %d", got, len(calls)-1)
	}
	wg.Wait()

	for i, c := range calls {
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if string(bodies[i]) != string(want) {
			t.Errorf("%s:\n got  %s want %s", c.path, bodies[i], want)
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap.Batches != 2 {
		t.Errorf("batches = %d, want exactly 2 (coalescing not proven)", snap.Batches)
	}
	if snap.BatchedReqs != uint64(len(calls)) {
		t.Errorf("batched requests = %d, want %d", snap.BatchedReqs, len(calls))
	}
	if snap.IndexBuilds != 1 {
		t.Errorf("index builds = %d, want 1 (one engine per configuration)", snap.IndexBuilds)
	}
}

// TestCacheHitPath repeats one query and checks the second reply is
// served from the cache, byte-identical, with the hit surfaced in the
// header and the counters.
func TestCacheHitPath(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const path = "/v1/probabilities?dataset=fleet&x=12&y=9"
	status1, h1, body1 := getBody(t, hs, path)
	if status1 != http.StatusOK {
		t.Fatalf("first: status %d: %s", status1, body1)
	}
	if got := h1.Get(api.CacheHeader); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	status2, h2, body2 := getBody(t, hs, path)
	if status2 != http.StatusOK {
		t.Fatalf("second: status %d", status2)
	}
	if got := h2.Get(api.CacheHeader); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if string(body1) != string(body2) {
		t.Errorf("cached body differs:\n%s\n%s", body1, body2)
	}
	snap := srv.Metrics().Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	// Equivalent requests written differently (param order, default
	// spelled out) share the cache line.
	status3, h3, _ := getBody(t, hs, "/v1/probabilities?y=9&x=12&dataset=fleet&method=exact&backend=index")
	if status3 != http.StatusOK || h3.Get(api.CacheHeader) != "hit" {
		t.Errorf("normalized request: status %d cache %q, want 200 hit", status3, h3.Get(api.CacheHeader))
	}
}

// TestEndpointsAndErrors walks the non-query endpoints and the error
// statuses.
func TestEndpointsAndErrors(t *testing.T) {
	reg, _ := testRegistry(t)
	sq, err := pnn.NewSquareSet([]pnn.SquarePoint{{Center: pnn.Pt(0, 0), R: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("squares", sq); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	status, _, body := getBody(t, hs, "/healthz")
	var h api.Health
	if status != http.StatusOK || json.Unmarshal(body, &h) != nil || h.Status != "ok" || h.Datasets != 2 {
		t.Errorf("healthz: %d %s", status, body)
	}

	status, _, body = getBody(t, hs, "/v1/datasets")
	var infos []api.DatasetInfo
	if status != http.StatusOK || json.Unmarshal(body, &infos) != nil || len(infos) != 2 {
		t.Fatalf("datasets: %d %s", status, body)
	}
	if infos[0].Name != "fleet" || infos[0].Kind != "discrete" || infos[0].N != 20 {
		t.Errorf("datasets[0] = %+v", infos[0])
	}
	if infos[1].Name != "squares" || infos[1].Kind != "squares" {
		t.Errorf("datasets[1] = %+v", infos[1])
	}

	for path, wantStatus := range map[string]int{
		"/v1/nonzero?dataset=nope&x=1&y=1":            http.StatusNotFound,
		"/v1/nonzero?dataset=fleet&y=1":               http.StatusBadRequest, // missing x
		"/v1/nonzero?dataset=fleet&x=abc&y=1":         http.StatusBadRequest,
		"/v1/nonzero?x=1&y=1":                         http.StatusBadRequest, // missing dataset
		"/v1/topk?dataset=fleet&x=1&y=1&k=0":          http.StatusOK,         // empty ranking
		"/v1/topk?dataset=fleet&x=1&y=1&k=-1":         http.StatusBadRequest,
		"/v1/threshold?dataset=fleet&x=1&y=1":         http.StatusBadRequest, // missing tau
		"/v1/nonzero?dataset=fleet&x=1&y=1&backend=z": http.StatusBadRequest,
		"/v1/nonzero?dataset=fleet&x=1&y=1&method=z":  http.StatusBadRequest,
		"/v1/nonzero?dataset=fleet&x=NaN&y=1":         http.StatusBadRequest,
		// Out-of-range quantifier parameters must be rejected up front:
		// eps = 0 would ask Monte Carlo for infinitely many rounds.
		"/v1/probabilities?dataset=fleet&x=1&y=1&method=mc&eps=0":           http.StatusBadRequest,
		"/v1/probabilities?dataset=fleet&x=1&y=1&method=mc&eps=0.1&delta=0": http.StatusBadRequest,
		"/v1/probabilities?dataset=fleet&x=1&y=1&method=spiral&eps=1.5":     http.StatusBadRequest,
		"/v1/probabilities?dataset=fleet&x=1&y=1&method=mcbudget&rounds=-1": http.StatusBadRequest,
		"/v1/probabilities?dataset=fleet&x=1&y=1&method=mcbudget&rounds=50": http.StatusOK,
		// Squares have no quantifier: engine construction fails with
		// ErrUnsupported, reported as a client error.
		"/v1/probabilities?dataset=squares&x=0&y=0&method=spiral": http.StatusBadRequest,
		// ... but their nonzero surface works.
		"/v1/nonzero?dataset=squares&x=0&y=0": http.StatusOK,
	} {
		status, _, body := getBody(t, hs, path)
		if status != wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", path, status, wantStatus, strings.TrimSpace(string(body)))
		}
		if wantStatus != http.StatusOK {
			var e api.Error
			if json.Unmarshal(body, &e) != nil || e.Error == "" {
				t.Errorf("%s: error body %q lacks an error message", path, body)
			}
		}
	}

	status, _, body = getBody(t, hs, "/metrics")
	if status != http.StatusOK || !strings.Contains(string(body), "pnn_requests_total") {
		t.Errorf("metrics: %d %s", status, body)
	}
	if !strings.Contains(string(body), "pnn_datasets 2") {
		t.Errorf("metrics missing dataset gauge:\n%s", body)
	}
}

// TestDistinctEnginesPerConfig checks that different (backend, method)
// parameters build distinct engines, and that quantifier params
// irrelevant to the method are normalized into one engine.
func TestDistinctEnginesPerConfig(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{CacheSize: -1})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	paths := []string{
		"/v1/probabilities?dataset=fleet&x=1&y=1",
		"/v1/probabilities?dataset=fleet&x=1&y=1&method=spiral&eps=0.05",
		"/v1/probabilities?dataset=fleet&x=1&y=1&method=mc&eps=0.2&delta=0.1",
		"/v1/nonzero?dataset=fleet&x=1&y=1&backend=direct",
		// Same engine as the first: exact ignores eps/delta/seed.
		"/v1/probabilities?dataset=fleet&x=2&y=2&eps=0.5&seed=99",
	}
	for _, p := range paths {
		if status, _, body := getBody(t, hs, p); status != http.StatusOK {
			t.Fatalf("%s: %d %s", p, status, body)
		}
	}
	if got := reg.Get("fleet").Indexes(); got != 4 {
		t.Errorf("distinct engines = %d, want 4", got)
	}
	if builds := srv.Metrics().Snapshot().IndexBuilds; builds != 4 {
		t.Errorf("index builds = %d, want 4", builds)
	}
}

// TestEngineCap checks the per-dataset engine cap: a query loop over
// fresh seeds (each seed is a distinct engine key under mc) must stop
// allocating engines at the cap and answer 429 beyond it, bounding
// memory against adversarial parameter sweeps.
func TestEngineCap(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{CacheSize: -1, MaxEnginesPerDataset: 3})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	got429 := 0
	for seed := 1; seed <= 6; seed++ {
		path := fmt.Sprintf("/v1/probabilities?dataset=fleet&x=1&y=1&method=mcbudget&rounds=20&seed=%d", seed)
		status, _, body := getBody(t, hs, path)
		switch {
		case seed <= 3 && status != http.StatusOK:
			t.Errorf("seed %d: status %d (%s), want 200 under the cap", seed, status, body)
		case seed > 3 && status != http.StatusTooManyRequests:
			t.Errorf("seed %d: status %d, want 429 over the cap", seed, status)
		case seed > 3:
			got429++
		}
	}
	if got429 != 3 {
		t.Errorf("got %d rejections, want 3", got429)
	}
	if n := reg.Get("fleet").Indexes(); n != 3 {
		t.Errorf("engines = %d, want capped at 3", n)
	}
	// Existing engines keep answering at the cap.
	if status, _, _ := getBody(t, hs, "/v1/probabilities?dataset=fleet&x=2&y=2&method=mcbudget&rounds=20&seed=1"); status != http.StatusOK {
		t.Errorf("existing engine rejected at cap: %d", status)
	}
}

// TestEngineCapNotExhaustedByFailedBuilds checks that configurations
// whose engine build fails release their cap slot: cheap failing
// requests must not lock a dataset out of building valid engines.
func TestEngineCapNotExhaustedByFailedBuilds(t *testing.T) {
	reg, _ := testRegistry(t)
	sq, err := pnn.NewSquareSet([]pnn.SquarePoint{{Center: pnn.Pt(0, 0), R: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("sq", sq); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{CacheSize: -1, MaxEnginesPerDataset: 2})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Each seed is a distinct engine key, and every build fails
	// (squares admit no quantifier). These must not consume slots.
	for seed := 1; seed <= 4; seed++ {
		path := fmt.Sprintf("/v1/probabilities?dataset=sq&x=1&y=1&method=mcbudget&rounds=10&seed=%d", seed)
		if status, _, _ := getBody(t, hs, path); status != http.StatusBadRequest {
			t.Fatalf("seed %d: status %d, want 400 (unsupported quantifier)", seed, status)
		}
	}
	if n := reg.Get("sq").Indexes(); n != 0 {
		t.Errorf("failed builds left %d entries occupying the cap", n)
	}
	// Valid configurations still fit under the cap.
	if status, _, body := getBody(t, hs, "/v1/nonzero?dataset=sq&x=0&y=0"); status != http.StatusOK {
		t.Errorf("valid engine after failed builds: status %d (%s)", status, body)
	}
	if status, _, body := getBody(t, hs, "/v1/nonzero?dataset=sq&x=0&y=0&backend=direct"); status != http.StatusOK {
		t.Errorf("second valid engine: status %d (%s)", status, body)
	}
}

// TestRequestTimeout parks a request behind a held engine call with a
// short per-request timeout and expects 503 from the timeout handler.
func TestRequestTimeout(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{RequestTimeout: 50 * time.Millisecond})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	g, _ := installGate(t, srv, "/v1/nonzero?dataset=fleet&x=1&y=1", pnn.OpNonzero)
	defer g.open()

	status, _, _ := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=1&y=1")
	if status != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503 from the timeout handler", status)
	}
}

// TestServerCloseFailsLateQueries checks queries after Close fail
// cleanly rather than hanging.
func TestServerCloseFailsLateQueries(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	if status, _, body := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=1&y=1"); status != http.StatusOK {
		t.Fatalf("pre-close query failed: %d %s", status, body)
	}
	srv.Close()
	// A cached query still answers (the cache outlives the batchers)...
	if status, h, _ := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=1&y=1"); status != http.StatusOK ||
		h.Get(api.CacheHeader) != "hit" {
		t.Errorf("post-close cached query: status %d cache %q, want 200 hit", status, h.Get(api.CacheHeader))
	}
	// ...but an uncached one fails cleanly instead of hanging.
	status, _, _ := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=2&y=1")
	if status != http.StatusInternalServerError {
		t.Errorf("post-close uncached status = %d, want 500", status)
	}
}

// TestConcurrentMixedLoad hammers the full stack — cache, batcher, lazy
// engines — from many goroutines under the race detector.
func TestConcurrentMixedLoad(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{CacheSize: 64})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	endpoints := []string{
		"/v1/nonzero?dataset=fleet&x=%d&y=%d",
		"/v1/probabilities?dataset=fleet&x=%d&y=%d",
		"/v1/topk?dataset=fleet&x=%d&y=%d&k=2",
		"/v1/threshold?dataset=fleet&x=%d&y=%d&tau=0.3",
		"/v1/expectednn?dataset=fleet&x=%d&y=%d",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				path := fmt.Sprintf(endpoints[(g+i)%len(endpoints)], i%5, g%3)
				status, _, body := getBody(t, hs, path)
				if status != http.StatusOK {
					t.Errorf("%s: %d %s", path, status, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := srv.Metrics().Snapshot()
	if snap.CacheHits == 0 {
		t.Error("expected cache hits under repeated mixed load")
	}
	if snap.Batches == 0 {
		t.Error("expected at least one batch")
	}
}

// TestClientContextCancelled checks a cancelled client context is
// reported as an error status, not a hang.
func TestClientContextCancelled(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{RequestTimeout: -1})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	g, _ := installGate(t, srv, "/v1/nonzero?dataset=fleet&x=1&y=1", pnn.OpNonzero)
	defer g.open()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		hs.URL+"/v1/nonzero?dataset=fleet&x=1&y=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Client().Do(req); err == nil {
		t.Fatal("expected an error from the cancelled request")
	}
}
