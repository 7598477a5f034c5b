package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pnn"
	"pnn/api"
	"pnn/internal/datafile"
	"pnn/server"
)

// testSetsNamed builds one replicated dataset fixture per name,
// alternating discrete and disk kinds.
func testSetsNamed(t *testing.T, names []string) map[string]pnn.UncertainSet {
	t.Helper()
	kinds := []string{"discrete", "disks"}
	sets := make(map[string]pnn.UncertainSet)
	for i, name := range names {
		gp := datafile.DefaultGenParams()
		gp.N, gp.K, gp.Seed = 16, 3, int64(10+i)
		df, err := datafile.Generate(kinds[i%len(kinds)], gp)
		if err != nil {
			t.Fatal(err)
		}
		set, err := df.Set()
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = set
	}
	return sets
}

// testSets is the fixed-name fixture for tests that don't care which
// backend owns which dataset.
func testSets(t *testing.T) map[string]pnn.UncertainSet {
	t.Helper()
	return testSetsNamed(t, []string{"ds0", "ds1", "ds2", "ds3"})
}

// pickSpreadNames returns perBackend dataset names owned by each of
// the router's backends, so a batch over them provably scatters. It
// must run after the router exists (ownership depends on the real
// backend URLs); candidate names are scanned deterministically.
func pickSpreadNames(t *testing.T, rt *Router, perBackend int) []string {
	t.Helper()
	need := make(map[string]int, len(rt.backends))
	for _, b := range rt.backends {
		need[b.base] = perBackend
	}
	var names []string
	for i := 0; len(names) < perBackend*len(rt.backends); i++ {
		if i > 10000 {
			t.Fatal("pickSpreadNames: rendezvous never spread over all backends")
		}
		name := fmt.Sprintf("ds%d", i)
		owner := rt.order(name)[0].base
		if need[owner] > 0 {
			need[owner]--
			names = append(names, name)
		}
	}
	return names
}

// handlerSwap lets a test start an httptest server before deciding
// what it serves (needed when dataset names depend on the server URL).
type handlerSwap struct {
	h atomic.Pointer[http.Handler]
}

func (s *handlerSwap) set(h http.Handler) { s.h.Store(&h) }

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := s.h.Load()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

// backendHandler builds the pnnserve handler of one replica.
func backendHandler(t *testing.T, sets map[string]pnn.UncertainSet) http.Handler {
	t.Helper()
	reg := server.NewRegistry()
	for name, set := range sets {
		if err := reg.Add(name, set); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(reg, server.Config{})
	t.Cleanup(srv.Close)
	return srv.Handler()
}

// newBackend starts one pnnserve replica over sets, wrapped in a gate:
// while the gate is false the backend answers 503 on every path,
// simulating an unhealthy-but-listening replica.
func newBackend(t *testing.T, sets map[string]pnn.UncertainSet) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	h := backendHandler(t, sets)
	gate := &atomic.Bool{}
	gate.Store(true)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !gate.Load() {
			http.Error(w, "backend gated down", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs, gate
}

func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// oracleIndex builds the direct pnn.Index matching the server's
// default engine (index backend, exact quantifier, seed 1).
func oracleIndex(t *testing.T, set pnn.UncertainSet) *pnn.Index {
	t.Helper()
	idx, err := pnn.New(set, pnn.WithNonzeroBackend(pnn.BackendIndex),
		pnn.WithQuantifier(pnn.Exact()), pnn.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// oracleBody computes the expected wire body of one batch item by
// querying the direct pnn.Index — the acceptance contract: a batch
// through the router must be byte-identical to direct engine calls.
func oracleBody(t *testing.T, idx *pnn.Index, set pnn.UncertainSet, it api.BatchItem) []byte {
	t.Helper()
	qp := api.Point{X: it.X, Y: it.Y}
	var v any
	switch it.Op {
	case "nonzero":
		ids, err := idx.Nonzero(pnn.Pt(it.X, it.Y))
		if err != nil {
			t.Fatal(err)
		}
		if ids == nil {
			ids = []int{}
		}
		v = api.Nonzero{Dataset: it.Dataset, Query: qp, N: set.Len(), Indices: ids}
	case "probabilities":
		pi, err := idx.Probabilities(pnn.Pt(it.X, it.Y))
		if err != nil {
			t.Fatal(err)
		}
		if pi == nil {
			pi = []float64{}
		}
		v = api.Probabilities{Dataset: it.Dataset, Query: qp, Eps: idx.Eps(), Probabilities: pi}
	case "topk":
		ranked, err := idx.TopK(pnn.Pt(it.X, it.Y), it.K)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]api.IndexProb, len(ranked))
		for i, ip := range ranked {
			out[i] = api.IndexProb{Index: ip.Index, P: ip.Prob}
		}
		v = api.TopK{Dataset: it.Dataset, Query: qp, K: it.K, Results: out}
	case "threshold":
		res, err := idx.Threshold(pnn.Pt(it.X, it.Y), it.Tau)
		if err != nil {
			t.Fatal(err)
		}
		cert, poss := res.Certain, res.Possible
		if cert == nil {
			cert = []int{}
		}
		if poss == nil {
			poss = []int{}
		}
		v = api.Threshold{Dataset: it.Dataset, Query: qp, Tau: it.Tau, Certain: cert, Possible: poss}
	case "expectednn":
		i, d, err := idx.ExpectedNN(pnn.Pt(it.X, it.Y))
		if err != nil {
			t.Fatal(err)
		}
		v = api.ExpectedNN{Dataset: it.Dataset, Query: qp, Index: i, Distance: d}
	default:
		t.Fatalf("unknown op %q", it.Op)
	}
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postBatch(t *testing.T, base string, items []api.BatchItem) (int, api.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(api.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+api.BatchPath, "application/json", bytes.NewReader(body))
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

// mixedBatch covers every op across the given datasets.
func mixedBatch(names []string) []api.BatchItem {
	var items []api.BatchItem
	for i, ds := range names {
		x, y := float64(i)*3-5, float64(i)*2-3
		items = append(items,
			api.BatchItem{Dataset: ds, Op: "nonzero", X: x, Y: y},
			api.BatchItem{Dataset: ds, Op: "probabilities", X: x, Y: y},
			api.BatchItem{Dataset: ds, Op: "topk", X: x, Y: y, K: 3},
			api.BatchItem{Dataset: ds, Op: "threshold", X: x, Y: y, Tau: 0.25},
			api.BatchItem{Dataset: ds, Op: "expectednn", X: x, Y: y},
		)
	}
	return items
}

// TestRendezvousOrder checks determinism and the rendezvous stability
// property: removing one backend never reorders the surviving
// backends relative to each other, so only the removed backend's
// datasets move.
func TestRendezvousOrder(t *testing.T) {
	backends := []string{"http://b1:1", "http://b2:1", "http://b3:1"}
	rt3 := newRouter(t, Config{Backends: backends, ProbeInterval: -1})
	rt2 := newRouter(t, Config{Backends: backends[:2], ProbeInterval: -1})
	for i := 0; i < 50; i++ {
		ds := fmt.Sprintf("dataset-%d", i)
		o3a := rt3.order(ds)
		o3b := rt3.order(ds)
		for j := range o3a {
			if o3a[j].base != o3b[j].base {
				t.Fatalf("order(%q) not deterministic", ds)
			}
		}
		// Restrict the 3-backend order to b1, b2: it must equal the
		// 2-backend router's order.
		var restricted []string
		for _, b := range o3a {
			if b.base == "http://b1:1" || b.base == "http://b2:1" {
				restricted = append(restricted, b.base)
			}
		}
		o2 := rt2.order(ds)
		for j := range o2 {
			if o2[j].base != restricted[j] {
				t.Errorf("order(%q): removing b3 reordered survivors: %v vs %v", ds, restricted, []string{o2[0].base, o2[1].base})
				break
			}
		}
	}
	// Sanity: with 50 datasets, both backends of rt2 should own some.
	owners := map[string]int{}
	for i := 0; i < 50; i++ {
		owners[rt2.order(fmt.Sprintf("dataset-%d", i))[0].base]++
	}
	if len(owners) != 2 {
		t.Errorf("rendezvous assigned all 50 datasets to one backend: %v", owners)
	}
}

// TestE2EScatterGatherFailover is the acceptance end-to-end test: a
// mixed-dataset batch through the router is byte-identical to querying
// each dataset's pnn.Index directly; then one of the two replicas is
// killed mid-test and the same batch still yields the same correct
// answers via single-retry failover.
func TestE2EScatterGatherFailover(t *testing.T) {
	// Start the replicas with late-bound handlers: dataset names are
	// chosen after the router exists so two datasets are provably owned
	// by each backend (ownership hashes the real URLs, which httptest
	// assigns at random ports).
	swap1, swap2 := &handlerSwap{}, &handlerSwap{}
	hs1 := httptest.NewServer(swap1)
	defer hs1.Close()
	hs2 := httptest.NewServer(swap2)
	defer hs2.Close() // safe double-close; the test also kills it mid-run
	rt := newRouter(t, Config{Backends: []string{hs1.URL, hs2.URL}, ProbeInterval: -1})
	names := pickSpreadNames(t, rt, 2)
	sets := testSetsNamed(t, names)
	swap1.set(backendHandler(t, sets))
	swap2.set(backendHandler(t, sets))
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	// The direct oracles.
	oracles := make(map[string]*pnn.Index, len(sets))
	for name, set := range sets {
		oracles[name] = oracleIndex(t, set)
	}
	items := mixedBatch(names)
	want := make([][]byte, len(items))
	for i, it := range items {
		want[i] = oracleBody(t, oracles[it.Dataset], sets[it.Dataset], it)
	}

	check := func(phase string) {
		t.Helper()
		status, bresp := postBatch(t, router.URL, items)
		if status != http.StatusOK {
			t.Fatalf("%s: batch status = %d", phase, status)
		}
		if len(bresp.Results) != len(items) {
			t.Fatalf("%s: got %d results, want %d", phase, len(bresp.Results), len(items))
		}
		for i, res := range bresp.Results {
			if res.Error != nil {
				t.Errorf("%s: item %d (%s/%s) errored: %+v", phase, i, items[i].Dataset, items[i].Op, res.Error)
				continue
			}
			if !bytes.Equal(res.Body, want[i]) {
				t.Errorf("%s: item %d (%s/%s) body mismatch:\nrouter: %s\ndirect: %s",
					phase, i, items[i].Dataset, items[i].Op, res.Body, want[i])
			}
		}
	}

	check("both replicas up")
	if got := rt.Metrics().Snapshot().SubBatches; got < 2 {
		t.Errorf("sub-batches = %d, want >= 2 (batch should scatter across backends)", got)
	}

	// Kill replica 2 mid-test: connections are refused from here on.
	hs2.Close()
	check("one replica killed")
	s := rt.Metrics().Snapshot()
	if s.Failovers == 0 {
		t.Error("failovers = 0, want > 0 after killing a replica")
	}
	if s.MarkDowns == 0 {
		t.Error("mark-downs = 0, want > 0 (request path should mark the dead replica down)")
	}
	// The dead replica is now marked down, so a repeat batch routes
	// around it without new failovers.
	before := rt.Metrics().Snapshot().Failovers
	check("replica marked down")
	if after := rt.Metrics().Snapshot().Failovers; after != before {
		t.Errorf("failovers went %d -> %d on a marked-down fleet; want routing around the dead replica", before, after)
	}

	// Single queries fail over identically: every dataset still answers
	// byte-identically to the oracle through the surviving replica.
	for i, it := range items {
		resp, err := http.Get(fmt.Sprintf("%s/v1/%s?%s", router.URL, it.Op, singleQueryParams(it)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %s/%s -> %d (%s)", it.Dataset, it.Op, resp.StatusCode, body)
		}
		if got := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(got, want[i]) {
			t.Errorf("single %s/%s body mismatch:\nrouter: %s\ndirect: %s", it.Dataset, it.Op, got, want[i])
		}
		if b := resp.Header.Get(api.BackendHeader); b != hs1.URL {
			t.Errorf("single %s/%s answered by %q, want surviving replica %q", it.Dataset, it.Op, b, hs1.URL)
		}
	}
}

func singleQueryParams(it api.BatchItem) string {
	s := fmt.Sprintf("dataset=%s&x=%g&y=%g", it.Dataset, it.X, it.Y)
	if it.Op == "topk" {
		s += fmt.Sprintf("&k=%d", it.K)
	}
	if it.Op == "threshold" {
		s += fmt.Sprintf("&tau=%g", it.Tau)
	}
	return s
}

// TestHealthProbeMarkDownMarkUp: the probe loop marks a gated-down
// backend down (router /healthz degrades) and back up on recovery.
func TestHealthProbeMarkDownMarkUp(t *testing.T) {
	sets := testSets(t)
	hs1, _ := newBackend(t, sets)
	hs2, gate2 := newBackend(t, sets)
	rt := newRouter(t, Config{
		Backends:      []string{hs1.URL, hs2.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
	})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	waitStatus := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(router.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var h api.RouterHealth
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.Status == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("router /healthz never reached status %q", want)
	}

	waitStatus("ok")
	gate2.Store(false)
	waitStatus("degraded")
	s := rt.Metrics().Snapshot()
	if s.MarkDowns == 0 || s.Probes == 0 {
		t.Errorf("snapshot after gating down: %+v, want probes and mark-downs", s)
	}
	gate2.Store(true)
	waitStatus("ok")
	if s := rt.Metrics().Snapshot(); s.MarkUps == 0 {
		t.Errorf("mark-ups = 0 after recovery")
	}
}

// TestNoHealthyBackend: with every replica down, single queries answer
// 503/no_backend and batch items answer per-item no_backend errors.
// Probing is on (with an interval too long to ever fire again) so the
// router fast-fails instead of failing open — fail-open is only for
// probeless routers, which could otherwise never recover.
func TestNoHealthyBackend(t *testing.T) {
	rt := newRouter(t, Config{Backends: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, ProbeInterval: time.Hour, ProbeTimeout: 100 * time.Millisecond})
	for _, b := range rt.backends {
		rt.markDown(b)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	resp, err := http.Get(router.URL + "/v1/nonzero?dataset=ds0&x=1&y=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503 (%s)", resp.StatusCode, body)
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code != api.CodeNoBackend {
		t.Errorf("error = %+v, want code %q", apiErr, api.CodeNoBackend)
	}

	status, bresp := postBatch(t, router.URL, []api.BatchItem{{Dataset: "ds0", Op: "nonzero", X: 1, Y: 2}})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if res := bresp.Results[0]; res.Error == nil || res.Error.Code != api.CodeNoBackend {
		t.Errorf("batch error = %+v, want code %q", bresp.Results[0].Error, api.CodeNoBackend)
	}

	// /healthz reports down with 503.
	resp, err = http.Get(router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.RouterHealth
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Status != "down" || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d %+v, want 503 down", resp.StatusCode, h)
	}
}

// TestRouterMetricsRender: /metrics exposes the per-backend aggregates.
func TestRouterMetricsRender(t *testing.T) {
	sets := testSets(t)
	hs1, _ := newBackend(t, sets)
	rt := newRouter(t, Config{Backends: []string{hs1.URL}, ProbeInterval: -1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	if _, err := http.Get(router.URL + "/v1/nonzero?dataset=ds0&x=1&y=2"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pnn_router_backend_up{backend=",
		"pnn_router_backend_requests_total{backend=",
		"pnn_router_backend_latency_seconds_count{backend=",
		"pnn_router_requests_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRouterProxiesDatasets: /v1/datasets forwards to a healthy
// backend verbatim.
func TestRouterProxiesDatasets(t *testing.T) {
	sets := testSets(t)
	hs1, _ := newBackend(t, sets)
	rt := newRouter(t, Config{Backends: []string{hs1.URL}, ProbeInterval: -1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	direct, err := http.Get(hs1.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	directBody, _ := io.ReadAll(direct.Body)
	direct.Body.Close()
	routed, err := http.Get(router.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	routedBody, _ := io.ReadAll(routed.Body)
	routed.Body.Close()
	if !bytes.Equal(directBody, routedBody) {
		t.Errorf("datasets mismatch:\nrouter: %s\ndirect: %s", routedBody, directBody)
	}
}

// TestClientCancelDoesNotMarkDown: a transport failure caused by the
// caller's own cancellation must not mark a healthy backend down — a
// burst of client disconnects would otherwise pull healthy replicas
// out of rotation until the next probe round.
func TestClientCancelDoesNotMarkDown(t *testing.T) {
	block := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer block.Close()
	rt := newRouter(t, Config{Backends: []string{block.URL}, ProbeInterval: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := rt.attempt(ctx, rt.backends[0], http.MethodGet, "/v1/datasets", nil, ""); err == nil {
		t.Fatal("attempt against a blocking backend with a canceled caller succeeded, want error")
	}
	if !rt.backends[0].up.Load() {
		t.Error("backend marked down by the caller's own cancellation")
	}
	if s := rt.Metrics().Snapshot(); s.MarkDowns != 0 {
		t.Errorf("mark-downs = %d, want 0", s.MarkDowns)
	}

	// A genuine transport failure — connection refused while the caller
	// is still waiting — must keep marking down immediately.
	dead := newRouter(t, Config{Backends: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
	if _, _, err := dead.attempt(context.Background(), dead.backends[0], http.MethodGet, "/v1/datasets", nil, ""); err == nil {
		t.Fatal("attempt against a dead backend succeeded, want error")
	}
	if dead.backends[0].up.Load() {
		t.Error("dead backend not marked down on transport error")
	}
}

// TestFailOpenWithoutProbes: with probing disabled, markUp is only
// reachable through traffic, so a router whose backends are all marked
// down must fail open — try the full hash order anyway — and a
// successful answer must mark its backend back up. Otherwise one
// transient blip on every replica would 503 the router forever.
func TestFailOpenWithoutProbes(t *testing.T) {
	sets := testSets(t)
	hs1, _ := newBackend(t, sets)
	rt := newRouter(t, Config{Backends: []string{hs1.URL}, ProbeInterval: -1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	rt.markDown(rt.backends[0])
	resp, err := http.Get(router.URL + "/v1/nonzero?dataset=ds0&x=1&y=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single query on a marked-down probeless fleet: status = %d (%s), want fail-open 200", resp.StatusCode, body)
	}
	if !rt.backends[0].up.Load() {
		t.Error("successful fail-open answer did not mark the backend back up")
	}

	rt.markDown(rt.backends[0])
	status, bresp := postBatch(t, router.URL, []api.BatchItem{{Dataset: "ds0", Op: "nonzero", X: 1, Y: 2}})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if res := bresp.Results[0]; res.Error != nil {
		t.Errorf("batch item on a marked-down probeless fleet errored: %+v, want fail-open answer", res.Error)
	}
	if !rt.backends[0].up.Load() {
		t.Error("successful fail-open batch did not mark the backend back up")
	}
}

// TestRouterMethodNotAllowed: single-query endpoints are GET-only on
// both tiers; the router answers 405 itself instead of silently
// rewriting the method to GET and dropping the body.
func TestRouterMethodNotAllowed(t *testing.T) {
	sets := testSets(t)
	hs1, _ := newBackend(t, sets)
	rt := newRouter(t, Config{Backends: []string{hs1.URL}, ProbeInterval: -1})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	resp, err := http.Post(router.URL+"/v1/nonzero?dataset=ds0&x=1&y=2", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/nonzero through router: status = %d (%s), want 405", resp.StatusCode, body)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow = %q, want GET", allow)
	}
}
