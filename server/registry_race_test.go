package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"pnn"
	"pnn/api"
	"pnn/internal/datafile"
	"pnn/store"
)

// TestRegistryConcurrentMutations hammers Add/put/Remove/Get/Names/
// Stats from many goroutines — run under -race (the CI race job covers
// ./server/...). Before the registry grew its RWMutex, Add was
// startup-only and any in-flight Get raced the first mutation.
func TestRegistryConcurrentMutations(t *testing.T) {
	set, err := pnn.NewDiscreteSet([]pnn.DiscretePoint{
		{Locations: []pnn.Point{pnn.Pt(1, 2)}},
		{Locations: []pnn.Point{pnn.Pt(3, 4)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry()
	const names = 8
	name := func(i int) string { return fmt.Sprintf("ds%d", i%names) }

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // writers: add/put/remove the same few names
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch i % 3 {
				case 0:
					_ = reg.Add(name(i+g), set) // duplicate errors expected
				case 1:
					reg.put(st, store.DatasetInfo{Name: name(i + g), Kind: "discrete", N: 2, Version: uint64(i + 2)})
				default:
					reg.Remove(name(i + g))
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // readers: Get/Names/Stats/Len concurrently
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if d := reg.Get(name(i + g)); d != nil {
					if n, v := d.Stats(); n != 2 || v == 0 {
						t.Errorf("torn stats: n %d version %d", n, v)
					}
					_ = d.Indexes()
					_ = d.QueueDepth()
				}
				if i%50 == 0 {
					ns := reg.Names()
					for j := 1; j < len(ns); j++ {
						if ns[j-1] >= ns[j] {
							t.Errorf("Names() unsorted: %v", ns)
						}
					}
					_ = reg.Len()
				}
			}
		}(g)
	}
	wg.Wait()

	// Deltas must stay monotone: a stale one never moves a dataset
	// backwards.
	reg.put(st, store.DatasetInfo{Name: "m", Kind: "discrete", N: 2, Version: 5})
	d := reg.Get("m")
	d.applyDelta(store.DatasetInfo{Name: "m", Kind: "discrete", N: 1, Version: 3}, nil)
	if n, v := d.Stats(); n != 2 || v != 5 {
		t.Fatalf("stale delta applied: n %d version %d", n, v)
	}
	d.applyDelta(store.DatasetInfo{Name: "m", Kind: "discrete", N: 3, Version: 7}, nil)
	if n, v := d.Stats(); n != 3 || v != 7 {
		t.Fatalf("fresh delta ignored: n %d version %d", n, v)
	}
}

// TestRefreshKindChange pins what a refresh does when the name was
// dropped and recreated behind its back: the registry's Dataset is
// replaced whole — no engine of the old incarnation survives — and the
// refresh counts the kind change or the op-tail gap it saw.
func TestRefreshKindChange(t *testing.T) {
	srv, hs, st := storeServer(t, Config{})
	ctx := context.Background()
	if status, raw := adminDo(t, hs, http.MethodPut, "/v1/datasets/d", api.CreateDataset{Kind: "discrete"}, testToken); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	if status, raw := adminDo(t, hs, http.MethodPost, "/v1/datasets/d/points", api.InsertPoints{
		Discrete: []api.DiscretePointJSON{{X: []float64{1}, Y: []float64{2}}},
	}, testToken); status != http.StatusOK {
		t.Fatalf("insert: %d %s", status, raw)
	}
	if status, _, body := getBody(t, hs, "/v1/nonzero?dataset=d&x=1&y=2"); status != http.StatusOK {
		t.Fatalf("warm query: %d %s", status, body)
	}

	// recreate drops d and creates it again with one point, straight on
	// the store, then runs the refresh that sees both at once.
	recreate := func(kind string, pt store.Point) {
		t.Helper()
		old := srv.reg.Get("d")
		if old == nil || old.Indexes() == 0 {
			t.Fatal("no live engine to retire")
		}
		if _, err := st.DropDataset(ctx, "d"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.CreateDataset(ctx, "d", kind); err != nil {
			t.Fatal(err)
		}
		m, err := st.InsertPoints(ctx, "d", []store.Point{pt})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.refreshDataset(ctx, "d"); err != nil {
			t.Fatal(err)
		}
		d := srv.reg.Get("d")
		if d == old || d.Kind != kind || d.Version() != m.Version || d.Indexes() != 0 {
			t.Fatalf("recreate as %s not replaced whole: same=%v kind %q version %d (store %d) engines %d",
				kind, d == old, d.Kind, d.Version(), m.Version, d.Indexes())
		}
		// The new incarnation answers its own data.
		if status, _, body := getBody(t, hs, "/v1/nonzero?dataset=d&x=1&y=2"); status != http.StatusOK {
			t.Fatalf("query after recreate: %d %s", status, body)
		}
	}
	disk := store.Point{Disk: &datafile.DiskJSON{X: 1, Y: 2, R: 0.5}}
	recreate("disks", disk)
	if got := srv.metrics.deltaFallbacks.Values(); got["kind_change"] != 1 || got["tail_gap"] != 0 {
		t.Fatalf("fallbacks after a kind change = %v, want kind_change 1", got)
	}
	recreate("disks", disk)
	if got := srv.metrics.deltaFallbacks.Values(); got["kind_change"] != 1 || got["tail_gap"] != 1 {
		t.Fatalf("fallbacks after a same-kind recreate = %v, want tail_gap 1", got)
	}
}

// TestRefreshKindChangeConcurrent hammers one name with concurrent
// create/insert/query/drop cycles through the real handlers, the
// creates alternating between two kinds. A query whose lazy build finds
// its dataset dropped or recreated under it answers like a query after
// the drop — never 500 — and once the mutations quiesce the registry
// agrees with the store on the dataset's existence, kind, and version.
func TestRefreshKindChangeConcurrent(t *testing.T) {
	srv, hs, st := storeServer(t, Config{})
	const name = "flip"
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			create := api.CreateDataset{Kind: "discrete"}
			ins := api.InsertPoints{Discrete: []api.DiscretePointJSON{{X: []float64{1}, Y: []float64{2}}}}
			if g%2 == 1 {
				create = api.CreateDataset{Kind: "disks"}
				ins = api.InsertPoints{Disks: []api.DiskPointJSON{{X: 1, Y: 2, R: 0.5}}}
			}
			for i := 0; i < 20; i++ {
				// Lost races (insert into a dropped or re-kinded dataset, …)
				// are expected; only the query outcome is checked.
				for _, m := range []struct {
					method, path string
					body         any
				}{
					{http.MethodPut, "/v1/datasets/" + name, create},
					{http.MethodPost, "/v1/datasets/" + name + "/points", ins},
					{http.MethodGet, fmt.Sprintf("/v1/topk?dataset=%s&x=1&y=%d&k=1", name, i), nil},
					{http.MethodDelete, "/v1/datasets/" + name, nil},
				} {
					status, raw, err := adminTry(hs, m.method, m.path, m.body, testToken)
					if err != nil {
						t.Error(err)
						return
					}
					if m.method != http.MethodGet || status == http.StatusOK {
						continue
					}
					var e api.Error
					json.Unmarshal(raw, &e)
					switch e.Code {
					case api.CodeUnknownDataset, api.CodeEmptyDataset, api.CodeUnavailable:
					default:
						t.Errorf("query racing a recreate: %d %s", status, raw)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	info, err := st.Dataset(name)
	inStore := err == nil
	d := srv.reg.Get(name)
	if inStore != (d != nil) {
		t.Fatalf("registry/store diverged: store has %q = %v, registry has it = %v", name, inStore, d != nil)
	}
	if inStore && (d.Kind != info.Kind || d.Version() != info.Version) {
		t.Fatalf("registry %s@%d, store %s@%d", d.Kind, d.Version(), info.Kind, info.Version)
	}
}
