package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"pnn/api"
	"pnn/internal/datafile"
	"pnn/store"
)

// TestDeltaPathMatchesStaticRebuild is the write-path equivalence
// property: a durable server, whose engines absorb each mutation in
// place, must answer every query bitwise identically to a fresh
// read-only server built over the store's state after that mutation.
// A seeded random interleaving of inserts and deletes runs over HTTP;
// after each mutation every facade op is compared at several query
// points, across set kinds, quantifier methods, and NN≠0 backends —
// backend=diagram covers the engine whose NN≠0 answers come from its
// live view. At the end the test verifies the comparison was not
// vacuous: the durable server built one engine and folded every write
// into it.
func TestDeltaPathMatchesStaticRebuild(t *testing.T) {
	cases := []struct {
		name string
		kind string
		qs   string // extra query parameters selecting the engine
	}{
		{"discrete-exact", "discrete", ""},
		{"discrete-spiral", "discrete", "&method=spiral&eps=0.1"},
		{"discrete-direct", "discrete", "&backend=direct"},
		{"disks-exact", "disks", ""},
		{"disks-mc", "disks", "&method=mc&eps=0.2&delta=0.2"},
		{"discrete-diagram", "discrete", "&backend=diagram"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deltaEquivalence(t, tc.kind, tc.qs)
		})
	}
}

// readOnlyTwin serves the durable server's current store state for
// name as a fresh read-only dataset — the static-rebuild oracle.
func readOnlyTwin(t *testing.T, srv *Server, name string) *Server {
	t.Helper()
	_, set, err := srv.cfg.Store.View(name)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(name, set); err != nil {
		t.Fatal(err)
	}
	ref := New(reg, Config{})
	t.Cleanup(ref.Close)
	return ref
}

// serveGet answers one GET in process.
func serveGet(srv *Server, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

func deltaEquivalence(t *testing.T, kind, qs string) {
	const name = "prop"
	srv, hs, _ := storeServer(t, Config{})
	mutate := func(method, path string, body any) api.Mutation {
		t.Helper()
		status, raw := adminDo(t, hs, method, path, body, testToken)
		if status != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, status, raw)
		}
		return decodeMutation(t, raw)
	}
	mutate(http.MethodPut, "/v1/datasets/"+name, api.CreateDataset{Kind: kind})

	rng := rand.New(rand.NewSource(7))
	insert := func(n int) api.InsertPoints {
		var req api.InsertPoints
		for i := 0; i < n; i++ {
			if kind == "disks" {
				req.Disks = append(req.Disks, api.DiskPointJSON{
					X: rng.Float64() * 10, Y: rng.Float64() * 10, R: rng.Float64() * 2,
				})
				continue
			}
			locs := 1 + rng.Intn(2)
			var p api.DiscretePointJSON
			for l := 0; l < locs; l++ {
				p.X = append(p.X, rng.Float64()*10)
				p.Y = append(p.Y, rng.Float64()*10)
			}
			req.Discrete = append(req.Discrete, p)
		}
		return req
	}

	// Query points chosen so some land inside the cloud and some at its
	// edge; k and tau exercise ranking and cutoff paths.
	probes := []string{"x=2&y=3", "x=9.5&y=0.5"}
	compare := func(step string) {
		t.Helper()
		ref := readOnlyTwin(t, srv, name)
		for _, op := range api.Ops {
			for _, pt := range probes {
				path := fmt.Sprintf("/v1/%s?dataset=%s&%s%s", op, name, pt, qs)
				switch op {
				case "topk":
					path += "&k=3"
				case "threshold":
					path += "&tau=0.2"
				}
				ds, _, dbody := getBody(t, hs, path)
				rs, rbody := serveGet(ref, path)
				if ds != rs {
					t.Fatalf("%s: GET %s: durable %d, read-only %d", step, path, ds, rs)
				}
				if ds != http.StatusOK {
					t.Fatalf("%s: GET %s: %d %s", step, path, ds, dbody)
				}
				if !bytes.Equal(dbody, rbody) {
					t.Fatalf("%s: GET %s diverged:\ndurable   %s\nread-only %s", step, path, dbody, rbody)
				}
			}
		}
	}

	// Seed enough points that deletes cannot empty the dataset.
	ids := mutate(http.MethodPost, "/v1/datasets/"+name+"/points", insert(4)).IDs
	compare("seed")

	const steps = 24
	for step := 0; step < steps; step++ {
		if rng.Float64() < 0.35 && len(ids) > 2 {
			i := rng.Intn(len(ids))
			mutate(http.MethodDelete, fmt.Sprintf("/v1/datasets/%s/points/%d", name, ids[i]), nil)
			ids = append(ids[:i], ids[i+1:]...)
		} else {
			ack := mutate(http.MethodPost, "/v1/datasets/"+name+"/points", insert(1+rng.Intn(3)))
			ids = append(ids, ack.IDs...)
		}
		compare(fmt.Sprintf("step %d", step))
	}

	// Not vacuous: the dynamic engine was built once and absorbed every
	// later write in place.
	builds := srv.Metrics().Snapshot().IndexBuilds
	if ins := engineInserts(t, srv, name); builds != 1 || ins == 0 {
		t.Fatalf("durable server built %d engines and its live engine holds %d inserts, want 1 build absorbing every write", builds, ins)
	}
}

// engineInserts sums delta-applied inserts across a dataset's live
// engines.
func engineInserts(t *testing.T, srv *Server, name string) uint64 {
	t.Helper()
	d := srv.reg.Get(name)
	if d == nil {
		t.Fatalf("dataset %q missing from registry", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var total uint64
	for _, e := range d.entries {
		if e.built {
			total += e.eng.Cost().Inserts
		}
	}
	return total
}

// TestWriteDuringBuild commits an insert between an engine build's
// store read and its publish. The insert's refresh skips an unpublished
// build, and publish folds the insert in itself, so the build is kept:
// the next query neither builds again nor misses the write. The diagram
// engine takes the same path as the index one.
func TestWriteDuringBuild(t *testing.T) {
	for _, backend := range []string{"index", "diagram"} {
		t.Run(backend, func(t *testing.T) {
			srv, hs, _ := storeServer(t, Config{})
			const name = "b"
			if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/"+name, api.CreateDataset{Kind: "discrete"}, testToken); status != http.StatusOK {
				t.Fatalf("create: %d %s", status, raw)
			}
			if status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/"+name+"/points", api.InsertPoints{
				Discrete: []api.DiscretePointJSON{
					{X: []float64{3}, Y: []float64{4}},
					{X: []float64{5, 6}, Y: []float64{1, 2}},
					{X: []float64{-4}, Y: []float64{2}},
				},
			}, testToken); status != http.StatusOK {
				t.Fatalf("insert: %d %s", status, raw)
			}

			// Drive the lazy build the query below would trigger, with the
			// write landing after its store read. The key is the one the
			// query normalizes to.
			ds := srv.reg.Get(name)
			key := IndexKey{Backend: backend, Method: "exact", Seed: 1}
			before := srv.Metrics().Snapshot().IndexBuilds
			e, err := ds.entry(key, 0, func(e *indexEntry) error {
				if err := srv.buildEngine(context.Background(), e, ds, key); err != nil {
					return err
				}
				if status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/"+name+"/points", api.InsertPoints{
					Discrete: []api.DiscretePointJSON{{X: []float64{0}, Y: []float64{0}}},
				}, testToken); status != http.StatusOK {
					return fmt.Errorf("insert during build: %d %s", status, raw)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := e.eng.Len(); n != 4 {
				t.Fatalf("driven build serves %d points, want 4", n)
			}

			q := "/v1/topk?dataset=" + name + "&x=0&y=0&k=3&backend=" + backend
			status, _, body := getBody(t, hs, q)
			if status != http.StatusOK {
				t.Fatalf("query: %d %s", status, body)
			}
			// The driven build is the only one: the next query reuses it.
			if builds := srv.Metrics().Snapshot().IndexBuilds - before; builds != 1 {
				t.Fatalf("index builds rose by %d, want 1", builds)
			}
			if _, want := serveGet(readOnlyTwin(t, srv, name), q); !bytes.Equal(body, want) {
				t.Fatalf("query after the write:\ndurable   %s\nread-only %s", body, want)
			}
		})
	}
}

// TestBuildFindsDatasetChanged pins the answer a query gets when its
// lazy build, or the build's publish, finds the dataset changed by
// mutations whose refresh has not run yet. Dropped, or recreated under
// another kind, reads as unknown_dataset — the query answers as if it
// had arrived after the drop. Recreated under the same kind during the
// build leaves a gap the op tail cannot bridge, which reads as the
// retryable unavailable.
func TestBuildFindsDatasetChanged(t *testing.T) {
	ctx := context.Background()
	pt := store.Point{Discrete: &datafile.DiscreteJSON{X: []float64{1}, Y: []float64{2}}}
	disk := store.Point{Disk: &datafile.DiskJSON{X: 1, Y: 2, R: 0.5}}
	must := func(_ store.Mutation, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	recreate := func(st *store.Store, kind string, p store.Point) {
		must(st.DropDataset(ctx, "d"))
		must(st.CreateDataset(ctx, "d", kind))
		must(st.InsertPoints(ctx, "d", []store.Point{p}))
	}
	// bump commits an insert and runs its refresh, so the dataset's
	// version moves past the running build's read.
	bump := func(srv *Server, st *store.Store) {
		must(st.InsertPoints(ctx, "d", []store.Point{pt}))
		if err := srv.refreshDataset(ctx, "d"); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, backend, code string
		before, during      func(*Server, *store.Store)
	}{
		{"dropped", "index", api.CodeUnknownDataset,
			func(_ *Server, st *store.Store) { must(st.DropDataset(ctx, "d")) }, nil},
		{"rekinded", "index", api.CodeUnknownDataset,
			func(_ *Server, st *store.Store) { recreate(st, "disks", disk) }, nil},
		{"dropped-during", "index", api.CodeUnknownDataset,
			nil, func(srv *Server, st *store.Store) { bump(srv, st); must(st.DropDataset(ctx, "d")) }},
		{"recreated-during", "index", api.CodeUnavailable,
			nil, func(srv *Server, st *store.Store) { bump(srv, st); recreate(st, "discrete", pt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, hs, st := storeServer(t, Config{})
			if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/d", api.CreateDataset{Kind: "discrete"}, testToken); status != http.StatusOK {
				t.Fatalf("create: %d %s", status, raw)
			}
			if status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/d/points", api.InsertPoints{
				Discrete: []api.DiscretePointJSON{{X: []float64{1}, Y: []float64{2}}},
			}, testToken); status != http.StatusOK {
				t.Fatalf("insert: %d %s", status, raw)
			}
			ds := srv.reg.Get("d")
			key := IndexKey{Backend: tc.backend, Method: "exact", Seed: 1}
			if tc.before != nil {
				tc.before(srv, st)
			}
			_, err := ds.entry(key, 0, func(e *indexEntry) error {
				if err := srv.buildEngine(ctx, e, ds, key); err != nil {
					return err
				}
				if tc.during != nil {
					tc.during(srv, st)
				}
				return nil
			})
			if err == nil {
				t.Fatal("build succeeded over a changed dataset")
			}
			if got := failure(err); got.code != tc.code {
				t.Fatalf("answer %d %s (%v), want code %s", got.status, got.code, err, tc.code)
			}
		})
	}
}
