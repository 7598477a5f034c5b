package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pnn/api"
	"pnn/client"
	"pnn/server"
	"pnn/store"
)

const adminToken = "route-me"

// newDurableBackend starts one pnnserve replica over its own empty
// store directory.
func newDurableBackend(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := server.New(server.NewRegistry(), server.Config{
		Store: st, AdminToken: adminToken,
	})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// TestRouterWriteForwarding is the routed write-path acceptance test:
// writes through the router land on the dataset's rendezvous owner
// (with the auth header forwarded), and a query → insert → same query
// sequence through the router returns the updated answer —
// read-your-writes on the owning replica, stale cache provably
// unreachable through both tiers.
func TestRouterWriteForwarding(t *testing.T) {
	b1 := newDurableBackend(t)
	b2 := newDurableBackend(t)
	rt := newRouter(t, Config{Backends: []string{b1.URL, b2.URL}, ProbeInterval: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	ctx := context.Background()
	cl := client.New(front.URL, client.WithAdminToken(adminToken))

	// Unauthorized writes are rejected by the backend, through the router.
	anon := client.New(front.URL)
	if _, err := anon.CreateDataset(ctx, "fleet", "discrete"); err == nil {
		t.Fatal("tokenless create through the router succeeded")
	}

	if _, err := cl.CreateDataset(ctx, "fleet", "discrete"); err != nil {
		t.Fatal(err)
	}
	ins, err := cl.InsertPoints(ctx, "fleet", api.InsertPoints{
		Discrete: []api.DiscretePointJSON{
			{X: []float64{0}, Y: []float64{0}},
			{X: []float64{50}, Y: []float64{50}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.IDs) != 2 {
		t.Fatalf("insert ack = %+v", ins)
	}

	// The write landed on the rendezvous owner — the same replica reads
	// prefer, so the routed read sees it immediately.
	top1, err := cl.TopK(ctx, "fleet", 0, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(top1.Results) != 1 || top1.Results[0].Index != 0 || top1.Results[0].P != 1 {
		t.Fatalf("routed read-your-write topk = %+v", top1)
	}

	// Acceptance: query → insert → same query over the router answers
	// differently (version-keyed cache, no stale line reachable).
	raw1 := routedBody(t, front, "/v1/topk?dataset=fleet&x=0&y=0&k=1")
	if _, err := cl.InsertPoints(ctx, "fleet", api.InsertPoints{
		Discrete: []api.DiscretePointJSON{{X: []float64{0}, Y: []float64{0}}},
	}); err != nil {
		t.Fatal(err)
	}
	raw2 := routedBody(t, front, "/v1/topk?dataset=fleet&x=0&y=0&k=1")
	if bytes.Equal(raw1, raw2) {
		t.Fatalf("routed answer unchanged after insert: %s", raw2)
	}

	// Exactly one backend holds the dataset: the owner.
	counts := 0
	for _, b := range []*httptest.Server{b1, b2} {
		var infos []api.DatasetInfo
		res, err := b.Client().Get(b.URL + "/v1/datasets")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(res.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		counts += len(infos)
	}
	if counts != 1 {
		t.Fatalf("dataset hosted on %d backends, want exactly the owner", counts)
	}

	// The routed listing is ordering-stable and carries versions
	// (regression for the staleness-detection contract on this tier).
	var infos []api.DatasetInfo
	if err := json.Unmarshal(routedBody(t, front, "/v1/datasets"), &infos); err != nil {
		t.Fatal(err)
	}
	// The listing comes from one healthy replica; only the owner hosts
	// the dataset, so allow either the owner's view or an empty one —
	// but when present, the version must be the insert's.
	for _, in := range infos {
		if in.Name == "fleet" && in.Version == 0 {
			t.Fatalf("routed listing lost the version: %+v", in)
		}
	}

	// Deletes route too.
	if _, err := cl.DeletePoint(ctx, "fleet", ins.IDs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DropDataset(ctx, "fleet"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.TopK(ctx, "fleet", 0, 0, 1, nil); err == nil {
		t.Fatal("query after routed drop succeeded")
	}
}

// TestRouterWriteOwnerDown pins the write-path ownership rule: a write
// whose rendezvous owner is marked down answers 503 no_backend — it is
// never redirected to a surviving replica, whose independent store
// would diverge from the owner's and make the acknowledged write
// vanish the moment the owner recovers and reads prefer it again.
func TestRouterWriteOwnerDown(t *testing.T) {
	b1 := newDurableBackend(t)
	b2 := newDurableBackend(t)
	rt := newRouter(t, Config{Backends: []string{b1.URL, b2.URL}, ProbeInterval: 10 * time.Millisecond})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const name = "orphan"
	owner := rt.order(name)[0]
	other := b1
	if owner.base == b1.URL {
		b1.Close() // kill the owner; Close is idempotent with the cleanup
		other = b2
	} else {
		b2.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for owner.up.Load() {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never marked the dead owner down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodPut, front.URL+"/v1/datasets/"+name,
		strings.NewReader(`{"kind":"discrete"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	res, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var e api.Error
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusServiceUnavailable || e.Code != api.CodeNoBackend {
		t.Fatalf("write with owner down answered %d %+v, want 503 %s",
			res.StatusCode, e, api.CodeNoBackend)
	}

	// The surviving replica never saw the write.
	var infos []api.DatasetInfo
	resp, err := other.Client().Get(other.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("write redirected to the non-owner: %+v", infos)
	}

	// Reads follow the same ownership rule: while the owner is down the
	// surviving non-owner's 404 is not authoritative (the dataset may
	// live only on the owner), so both the single-query path and batch
	// items must answer no_backend, never a hard unknown_dataset.
	rres, err := front.Client().Get(front.URL + "/v1/nonzero?dataset=" + name + "&x=0&y=0")
	if err != nil {
		t.Fatal(err)
	}
	var re api.Error
	if err := json.NewDecoder(rres.Body).Decode(&re); err != nil {
		t.Fatal(err)
	}
	rres.Body.Close()
	if rres.StatusCode != http.StatusServiceUnavailable || re.Code != api.CodeNoBackend {
		t.Fatalf("read with owner down answered %d %+v, want 503 %s", rres.StatusCode, re, api.CodeNoBackend)
	}
	status, bresp := postBatch(t, front.URL, []api.BatchItem{{Dataset: name, Op: "nonzero", X: 0, Y: 0}})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if e := bresp.Results[0].Error; e == nil || e.Code != api.CodeNoBackend {
		t.Fatalf("batch item with owner down = %+v, want code %s", bresp.Results[0].Error, api.CodeNoBackend)
	}
}

// TestRouterWriteFailsOpenToOwner covers the probe-less recovery path:
// with probing disabled a mark-down would otherwise be permanent, so
// the write is attempted on the owner anyway (never a substitute) and
// a success clears the stale mark.
func TestRouterWriteFailsOpenToOwner(t *testing.T) {
	b1 := newDurableBackend(t)
	b2 := newDurableBackend(t)
	rt := newRouter(t, Config{Backends: []string{b1.URL, b2.URL}, ProbeInterval: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const name = "comeback"
	owner := rt.order(name)[0]
	rt.markDown(owner) // stale mark; the backend itself is healthy
	cl := client.New(front.URL, client.WithAdminToken(adminToken))
	if _, err := cl.CreateDataset(context.Background(), name, "discrete"); err != nil {
		t.Fatalf("write with a stale mark and no probes: %v", err)
	}
	if !owner.up.Load() {
		t.Fatal("successful write did not mark the owner back up")
	}
	// The dataset exists exactly on the owner.
	for _, b := range []*httptest.Server{b1, b2} {
		var infos []api.DatasetInfo
		res, err := b.Client().Get(b.URL + "/v1/datasets")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(res.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		has := false
		for _, in := range infos {
			has = has || in.Name == name
		}
		if want := b.URL == owner.base; has != want {
			t.Fatalf("backend %s hosts %q = %v, want %v", b.URL, name, has, want)
		}
	}
}

func routedBody(t *testing.T, front *httptest.Server, path string) []byte {
	t.Helper()
	res, err := front.Client().Get(front.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", path, res.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}
