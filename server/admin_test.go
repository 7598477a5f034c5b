package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"pnn/api"
	"pnn/store"
)

const testToken = "sekrit"

// storeServer builds a server over an empty store dir with the admin
// token configured.
func storeServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	cfg.AdminToken = testToken
	srv := New(NewRegistry(), cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs, st
}

// adminDo sends one authenticated request and returns status + body.
func adminDo(t *testing.T, hs *httptest.Server, method, path string, body any, token string) (int, []byte) {
	t.Helper()
	status, raw, err := adminTry(hs, method, path, body, token)
	if err != nil {
		t.Fatal(err)
	}
	return status, raw
}

// adminTry is adminDo for spawned goroutines: it returns transport
// failures instead of calling FailNow.
func adminTry(hs *httptest.Server, method, path string, body any, token string) (int, []byte, error) {
	var rdr io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rdr = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, hs.URL+path, rdr)
	if err != nil {
		return 0, nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func decodeMutation(t *testing.T, raw []byte) api.Mutation {
	t.Helper()
	var m api.Mutation
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding mutation ack %q: %v", raw, err)
	}
	return m
}

func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	return e.Code
}

func TestAdminAuth(t *testing.T) {
	_, hs, _ := storeServer(t, Config{})

	// No token → 401, wrong token → 403, right token → 200.
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "disks"}, ""); status != http.StatusUnauthorized || errCode(t, raw) != api.CodeUnauthorized {
		t.Fatalf("tokenless mutation: %d %s", status, raw)
	}
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "disks"}, "wrong"); status != http.StatusForbidden || errCode(t, raw) != api.CodeUnauthorized {
		t.Fatalf("wrong-token mutation: %d %s", status, raw)
	}
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "disks"}, testToken); status != http.StatusOK {
		t.Fatalf("authorized mutation: %d %s", status, raw)
	}
	// Queries never need the token.
	if status, _, _ := getBody(t, hs, "/v1/datasets"); status != http.StatusOK {
		t.Fatalf("unauthenticated listing blocked: %d", status)
	}
}

func TestAdminDisabledWithoutStoreOrToken(t *testing.T) {
	// No store: mutations are read_only regardless of auth.
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "disks"}, "x"); status != http.StatusConflict || errCode(t, raw) != api.CodeReadOnly {
		t.Fatalf("storeless mutation: %d %s", status, raw)
	}

	// Store but no token: mutations are disabled, not open.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv2 := New(NewRegistry(), Config{Store: st})
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	defer srv2.Close()
	if status, raw := adminDo(t, hs2, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "disks"}, ""); status != http.StatusForbidden || errCode(t, raw) != api.CodeUnauthorized {
		t.Fatalf("tokenless-config mutation: %d %s", status, raw)
	}
}

// TestMutationLifecycle drives the whole write path over HTTP: create,
// insert, query, insert again (the same query must change: cache
// provably invalidated), delete a point, snapshot, drop, recreate.
// Every refresh sees exactly its own mutation, so none falls back.
func TestMutationLifecycle(t *testing.T) {
	srv, hs, _ := storeServer(t, Config{})

	// Create.
	status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/fleet", api.CreateDataset{Kind: "discrete"}, testToken)
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	m := decodeMutation(t, raw)
	if m.N != 0 || m.Version == 0 {
		t.Fatalf("create ack = %+v", m)
	}
	// Idempotent re-create with the same kind.
	if status, _ := adminDo(t, hs, http.MethodPut, "/v1/datasets/fleet", api.CreateDataset{Kind: "discrete"}, testToken); status != http.StatusOK {
		t.Fatalf("idempotent create: %d", status)
	}
	// Conflicting kind.
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/fleet", api.CreateDataset{Kind: "disks"}, testToken); status != http.StatusConflict || errCode(t, raw) != api.CodeExists {
		t.Fatalf("conflicting create: %d %s", status, raw)
	}

	// Query against the empty dataset: 409 empty_dataset.
	if status, _, body := getBody(t, hs, "/v1/nonzero?dataset=fleet&x=0&y=0"); status != http.StatusConflict || errCode(t, body) != api.CodeEmptyDataset {
		t.Fatalf("empty-dataset query: %d %s", status, body)
	}

	// Insert two points far apart; the near one wins TopK.
	status, raw = adminDo(t, hs, http.MethodPost, "/v1/datasets/fleet/points", api.InsertPoints{
		Discrete: []api.DiscretePointJSON{
			{X: []float64{0}, Y: []float64{0}},
			{X: []float64{100}, Y: []float64{100}},
		},
	}, testToken)
	if status != http.StatusOK {
		t.Fatalf("insert: %d %s", status, raw)
	}
	m2 := decodeMutation(t, raw)
	if len(m2.IDs) != 2 || m2.N != 2 || m2.Version <= m.Version {
		t.Fatalf("insert ack = %+v (create version %d)", m2, m.Version)
	}

	q := "/v1/topk?dataset=fleet&x=0&y=0&k=1"
	statusQ, _, body1 := getBody(t, hs, q)
	if statusQ != http.StatusOK {
		t.Fatalf("query: %d %s", statusQ, body1)
	}
	// Same query again: must be a cache hit with identical bytes.
	_, h2, body2 := getBody(t, hs, q)
	if h2.Get(api.CacheHeader) != "hit" || !bytes.Equal(body1, body2) {
		t.Fatalf("repeat query: cache %q, bytes equal %v", h2.Get(api.CacheHeader), bytes.Equal(body1, body2))
	}

	// Insert a point tying the current winner at distance 0: the same
	// query must now answer differently (the win probability halves) —
	// the version bump re-keys the cache, so the stale line is
	// unreachable.
	status, raw = adminDo(t, hs, http.MethodPost, "/v1/datasets/fleet/points", api.InsertPoints{
		Discrete: []api.DiscretePointJSON{{X: []float64{0}, Y: []float64{0}}},
	}, testToken)
	if status != http.StatusOK {
		t.Fatalf("second insert: %d %s", status, raw)
	}
	status3, h3, body3 := getBody(t, hs, q)
	if status3 != http.StatusOK {
		t.Fatalf("post-insert query: %d %s", status3, body3)
	}
	if h3.Get(api.CacheHeader) != "miss" {
		t.Fatalf("post-insert query served from cache (%q) — stale entry survived the write", h3.Get(api.CacheHeader))
	}
	if bytes.Equal(body1, body3) {
		t.Fatalf("post-insert answer unchanged: %s", body3)
	}
	var top api.TopK
	if err := json.Unmarshal(body3, &top); err != nil {
		t.Fatal(err)
	}
	// The exact tie at distance 0 means no point is the strict nearest
	// anymore: the previous certain winner (p = 1) must be gone.
	if len(top.Results) > 0 && top.Results[0].P >= 1 {
		t.Fatalf("post-insert topk = %+v, want the certain winner dethroned", top)
	}

	// /v1/datasets reports the bumped version and point count.
	_, _, listing := getBody(t, hs, "/v1/datasets")
	var infos []api.DatasetInfo
	if err := json.Unmarshal(listing, &infos); err != nil {
		t.Fatal(err)
	}
	m3 := decodeMutation(t, raw)
	if len(infos) != 1 || infos[0].N != 3 || infos[0].Version != m3.Version {
		t.Fatalf("listing = %+v, want n=3 version=%d", infos, m3.Version)
	}

	// Delete the new point: the old answer comes back (bytes equal).
	if status, raw := adminDo(t, hs, http.MethodDelete, fmt.Sprintf("/v1/datasets/fleet/points/%d", m3.IDs[0]), nil, testToken); status != http.StatusOK {
		t.Fatalf("delete point: %d %s", status, raw)
	}
	status4, _, body4 := getBody(t, hs, q)
	if status4 != http.StatusOK || !bytes.Equal(body1, body4) {
		t.Fatalf("post-delete query: %d\n%s\nwant\n%s", status4, body4, body1)
	}
	// Deleting it again: 404 unknown_point.
	if status, raw := adminDo(t, hs, http.MethodDelete, fmt.Sprintf("/v1/datasets/fleet/points/%d", m3.IDs[0]), nil, testToken); status != http.StatusNotFound || errCode(t, raw) != api.CodeUnknownPoint {
		t.Fatalf("double delete: %d %s", status, raw)
	}

	// Snapshot compacts without changing answers.
	if status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/fleet/snapshot", nil, testToken); status != http.StatusOK {
		t.Fatalf("snapshot: %d %s", status, raw)
	}
	if _, _, body5 := getBody(t, hs, q); !bytes.Equal(body1, body5) {
		t.Fatalf("post-snapshot answer changed: %s", body5)
	}

	// Drop: the dataset vanishes from queries and the listing.
	if status, raw := adminDo(t, hs, http.MethodDelete, "/v1/datasets/fleet", nil, testToken); status != http.StatusOK {
		t.Fatalf("drop: %d %s", status, raw)
	}
	if status, _, body := getBody(t, hs, q); status != http.StatusNotFound || errCode(t, body) != api.CodeUnknownDataset {
		t.Fatalf("post-drop query: %d %s", status, body)
	}
	// Kind mismatch on insert is a 400 bad_param.
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/fleet", api.CreateDataset{Kind: "disks"}, testToken); status != http.StatusOK {
		t.Fatalf("recreate: %d %s", status, raw)
	}
	if status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/fleet/points", api.InsertPoints{
		Discrete: []api.DiscretePointJSON{{X: []float64{0}, Y: []float64{0}}},
	}, testToken); status != http.StatusBadRequest || errCode(t, raw) != api.CodeBadParam {
		t.Fatalf("kind-mismatch insert: %d %s", status, raw)
	}
	// A drop is a removal, not an op-tail gap, and the recreate is a
	// first load: no fallback reason may have fired.
	for reason, n := range srv.metrics.deltaFallbacks.Values() {
		if n != 0 {
			t.Errorf("pnn_delta_fallback_total{reason=%q} = %d, want 0", reason, n)
		}
	}
}

// TestInsertRejectsUnknownDensity pins the density check at the write
// path's door: a misspelt density answers 400 bad_param and logs
// nothing, instead of being stored and served as uniform, while the
// documented spellings still insert.
func TestInsertRejectsUnknownDensity(t *testing.T) {
	_, hs, st := storeServer(t, Config{})
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/d", api.CreateDataset{Kind: "disks"}, testToken); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	insert := func(density string) (int, []byte) {
		return adminDo(t, hs, http.MethodPost, "/v1/datasets/d/points", api.InsertPoints{
			Disks: []api.DiskPointJSON{{X: 1, Y: 1, R: 1, Density: density, Sigma: 0.3}},
		}, testToken)
	}
	before, err := st.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	if status, raw := insert("gausian"); status != http.StatusBadRequest || errCode(t, raw) != api.CodeBadParam {
		t.Fatalf("misspelt density: %d %s, want 400 %s", status, raw, api.CodeBadParam)
	}
	if after, err := st.Dataset("d"); err != nil || after != before {
		t.Fatalf("rejected insert moved the dataset: %+v (%v), was %+v", after, err, before)
	}
	for i, density := range []string{"", "uniform", "gaussian"} {
		status, raw := insert(density)
		if status != http.StatusOK {
			t.Fatalf("density %q: %d %s", density, status, raw)
		}
		if m := decodeMutation(t, raw); m.N != i+1 {
			t.Fatalf("density %q: ack %+v, want n=%d", density, m, i+1)
		}
	}
}

// TestDatasetListingStable pins the /v1/datasets contract: entries
// sorted by name regardless of creation order, per-dataset version and
// point count present — the fields clients and routers use to detect
// staleness cheaply.
func TestDatasetListingStable(t *testing.T) {
	_, hs, _ := storeServer(t, Config{})
	// Create in non-sorted order.
	var versions []uint64
	for _, name := range []string{"zeta", "alpha", "mid"} {
		status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/"+name, api.CreateDataset{Kind: "disks"}, testToken)
		if status != http.StatusOK {
			t.Fatalf("create %s: %d %s", name, status, raw)
		}
		versions = append(versions, decodeMutation(t, raw).Version)
	}
	if status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/mid/points", api.InsertPoints{
		Disks: []api.DiskPointJSON{{X: 1, Y: 2, R: 3}},
	}, testToken); status != http.StatusOK {
		t.Fatalf("insert: %d %s", status, raw)
	}

	_, _, listing1 := getBody(t, hs, "/v1/datasets")
	var infos []api.DatasetInfo
	if err := json.Unmarshal(listing1, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Name != "alpha" || infos[1].Name != "mid" || infos[2].Name != "zeta" {
		t.Fatalf("listing not name-sorted: %+v", infos)
	}
	if infos[0].Version != versions[1] || infos[2].Version != versions[0] {
		t.Fatalf("listing versions wrong: %+v (created at %v)", infos, versions)
	}
	if infos[1].N != 1 || infos[1].Version <= versions[2] {
		t.Fatalf("mutated dataset not reflected: %+v", infos[1])
	}
	// Byte-stable across repeats when nothing changed.
	_, _, listing2 := getBody(t, hs, "/v1/datasets")
	if !bytes.Equal(listing1, listing2) {
		t.Fatalf("listing unstable:\n%s\n%s", listing1, listing2)
	}
}

// TestMutationDurability proves acknowledged writes survive a reopen of
// the same store dir (the in-process analogue of the kill-and-restart
// smoke test).
func TestMutationDurability(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(NewRegistry(), Config{Store: st, AdminToken: testToken})
	hs := httptest.NewServer(srv.Handler())

	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "disks"}, testToken); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/a/points", api.InsertPoints{
		Disks: []api.DiskPointJSON{{X: 1, Y: 2, R: 0.5}, {X: 9, Y: 9, R: 1}},
	}, testToken)
	if status != http.StatusOK {
		t.Fatalf("insert: %d %s", status, raw)
	}
	q := "/v1/nonzero?dataset=a&x=1&y=2"
	_, _, before := getBody(t, hs, q)

	// "Crash": no graceful anything, just abandon and reopen the dir.
	hs.Close()
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := New(NewRegistry(), Config{Store: st2, AdminToken: testToken})
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	defer srv2.Close()

	status2, _, after := getBody(t, hs2, q)
	if status2 != http.StatusOK || !bytes.Equal(before, after) {
		t.Fatalf("post-restart query: %d\n%s\nwant\n%s", status2, after, before)
	}
}

// TestMutateWhileQuerying hammers queries concurrently with mutations:
// no query may fail, and the engines must keep answering while every
// write folds into them in place.
func TestMutateWhileQuerying(t *testing.T) {
	_, hs, _ := storeServer(t, Config{CacheSize: 128})

	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/live", api.CreateDataset{Kind: "discrete"}, testToken); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	if status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/live/points", api.InsertPoints{
		Discrete: []api.DiscretePointJSON{{X: []float64{0}, Y: []float64{0}}},
	}, testToken); status != http.StatusOK {
		t.Fatalf("seed insert: %d %s", status, raw)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/v1/topk?dataset=live&x=%d&y=%d&k=2", i%7, g)
				status, _, body := getBody(t, hs, path)
				if status != http.StatusOK {
					t.Errorf("query during mutations: %d %s", status, body)
					return
				}
				i++
			}
		}(g)
	}
	for i := 0; i < 30; i++ {
		status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/live/points", api.InsertPoints{
			Discrete: []api.DiscretePointJSON{{X: []float64{float64(i)}, Y: []float64{1}}},
		}, testToken)
		if status != http.StatusOK {
			t.Fatalf("insert %d: %d %s", i, status, raw)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRefreshDropRace hammers one dataset name with concurrent
// create/insert/drop cycles through the real handlers. Refreshes are
// serialized per name, so whatever interleaving the mutations take,
// the quiesced registry must agree with the store — before the
// per-name refresh lock, a slow refresh from an older insert could
// read the dataset, lose the race to a drop's Remove, and then
// register a ghost entry for a dataset the store no longer holds.
func TestRefreshDropRace(t *testing.T) {
	srv, hs, st := storeServer(t, Config{})
	const name = "ghost"
	var applied atomic.Int64 // mutations the server actually acknowledged
	do := func(method, path string, body any) error {
		status, _, err := adminTry(hs, method, path, body, testToken)
		if status == http.StatusOK {
			applied.Add(1)
		}
		return err // non-200s (lost races: insert into a dropped dataset, …) are expected
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := do(http.MethodPut, "/v1/datasets/"+name, api.CreateDataset{Kind: "discrete"}); err != nil {
					errs <- err
					return
				}
				if err := do(http.MethodPost, "/v1/datasets/"+name+"/points", api.InsertPoints{
					Discrete: []api.DiscretePointJSON{{X: []float64{1}, Y: []float64{2}}},
				}); err != nil {
					errs <- err
					return
				}
				if err := do(http.MethodDelete, "/v1/datasets/"+name, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Guard against a vacuous pass: if the admin surface broke outright
	// (every request 4xx), the consistency check below would trivially
	// compare empty against empty without ever exercising a refresh.
	if applied.Load() == 0 {
		t.Fatal("no mutation was acknowledged; the hammer exercised nothing")
	}

	// Quiesced (every handler returned, so every refresh ran): the
	// registry and the store must agree on the dataset's existence and,
	// when present, its version.
	di, err := st.Dataset(name)
	inStore := err == nil
	reg := srv.reg.Get(name)
	if inStore != (reg != nil) {
		t.Fatalf("registry/store diverged: store has %q = %v, registry has it = %v",
			name, inStore, reg != nil)
	}
	if inStore && reg.Version() != di.Version {
		t.Fatalf("registry version %d, store version %d", reg.Version(), di.Version)
	}
	// The per-name lock table drains once refreshes quiesce (entries
	// are refcounted, not leaked per ever-seen name).
	srv.refreshMu.Lock()
	leaked := len(srv.refreshLocks)
	srv.refreshMu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d refresh lock entries leaked after quiescence", leaked)
	}
}

// TestDeadStoreAnswersUnavailable pins the wire identity of a dead
// store: a mutation against a closed (or disk-poisoned) store answers
// 503 with the stable code "unavailable" — retryable infrastructure
// trouble, not "internal" (a bug) and not 400 (the client's fault).
func TestDeadStoreAnswersUnavailable(t *testing.T) {
	_, hs, st := storeServer(t, Config{})
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "disks"}, testToken); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	st.Close() // the store dies under the server
	status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/a/points", api.InsertPoints{
		Disks: []api.DiskPointJSON{{X: 1, Y: 2, R: 0.5}},
	}, testToken)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("insert on dead store: status %d %s, want 503", status, raw)
	}
	if code := errCode(t, raw); code != api.CodeUnavailable {
		t.Fatalf("insert on dead store: code %q, want %q", code, api.CodeUnavailable)
	}
}
