package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"pnn"
	"pnn/api"
	"pnn/server/engine"
)

// TestSequentialHistoryWorkCounts drives a seeded sequential history
// through a durable discrete dataset — inserts, deletes, and reads of
// every op under two engine keys, the second first read only after
// deletes, and some reads repeated at once — and asserts the server's
// deterministic work counters exactly, each computed from the history:
//
//   - one engine build per engine key read;
//   - one single-request batch per cache miss (requests never overlap);
//   - a cache hit for every read repeated at an unchanged version;
//   - one delta apply per write;
//   - one WAL fsync per acknowledged mutation;
//   - per live engine, the inserts, deletes and Bentley–Saxe rebuilt
//     members of a pnn.DynamicIndex fed the same points and ops.
//
// Equalities, not latency bounds: a regression such as "every read
// rebuilds an engine" or "every write flushes twice" fails here
// instead of hiding in wall-clock noise.
func TestSequentialHistoryWorkCounts(t *testing.T) {
	const name = "work"
	srv, hs, _ := storeServer(t, Config{})
	var mutations, writes uint64
	mutate := func(method, path string, body any) api.Mutation {
		t.Helper()
		status, raw := adminDo(t, hs, method, path, body, testToken)
		if status != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, status, raw)
		}
		mutations++
		return decodeMutation(t, raw)
	}
	mutate(http.MethodPut, "/v1/datasets/"+name, api.CreateDataset{Kind: "discrete"})

	// live mirrors the dataset in insertion order. Each engine key read
	// so far has a reference DynamicIndex: built from the points live at
	// the engine's build, in that order, then fed every later write.
	type livePoint struct {
		id uint64
		p  pnn.DiscretePoint
	}
	type reference struct {
		dyn              *pnn.DynamicIndex
		ids              map[uint64]pnn.PointID
		inserts, deletes uint64
	}
	var live []livePoint
	refs := map[string]*reference{} // by engine key method
	insertRef := func(r *reference, lp livePoint) {
		pid, err := r.dyn.InsertDiscrete(lp.p)
		if err != nil {
			t.Fatal(err)
		}
		r.ids[lp.id] = pid
		r.inserts++
	}

	rng := rand.New(rand.NewSource(11))
	readAt := map[string]bool{} // paths already answered at this version
	var hits, misses uint64
	insert := func(n int) {
		var req api.InsertPoints
		var pts []pnn.DiscretePoint
		for i := 0; i < n; i++ {
			var jp api.DiscretePointJSON
			var p pnn.DiscretePoint
			for l := 1 + rng.Intn(3); l > 0; l-- {
				x, y := rng.Float64()*10, rng.Float64()*10
				jp.X, jp.Y = append(jp.X, x), append(jp.Y, y)
				p.Locations = append(p.Locations, pnn.Pt(x, y))
			}
			req.Discrete = append(req.Discrete, jp)
			pts = append(pts, p)
		}
		ack := mutate(http.MethodPost, "/v1/datasets/"+name+"/points", req)
		writes++
		clear(readAt)
		for i, id := range ack.IDs {
			lp := livePoint{id, pts[i]}
			live = append(live, lp)
			for _, r := range refs {
				insertRef(r, lp)
			}
		}
	}
	remove := func(i int) {
		id := live[i].id
		mutate(http.MethodDelete, fmt.Sprintf("/v1/datasets/%s/points/%d", name, id), nil)
		writes++
		clear(readAt)
		live = append(live[:i], live[i+1:]...)
		for _, r := range refs {
			if err := r.dyn.Delete(r.ids[id]); err != nil {
				t.Fatal(err)
			}
			r.deletes++
		}
	}
	probes := []string{"x=2&y=3", "x=7.5&y=6", "x=9.5&y=0.5"}
	get := func(path string) {
		if status, _, body := getBody(t, hs, path); status != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, status, body)
		}
		if readAt[path] {
			hits++
		} else {
			misses++
			readAt[path] = true
		}
	}
	read := func(method, qs string) {
		op := api.Ops[rng.Intn(len(api.Ops))]
		path := fmt.Sprintf("/v1/%s?dataset=%s&%s%s", op, name, probes[rng.Intn(len(probes))], qs)
		switch op {
		case "topk":
			path += "&k=2"
		case "threshold":
			path += "&tau=0.2"
		}
		get(path)
		if rng.Float64() < 0.3 {
			get(path)
		}
		if refs[method] == nil {
			dyn, err := pnn.NewDynamic()
			if err != nil {
				t.Fatal(err)
			}
			r := &reference{dyn: dyn, ids: map[uint64]pnn.PointID{}}
			for _, lp := range live {
				insertRef(r, lp)
			}
			refs[method] = r
		}
	}

	// Enough seed points that deletes never empty the dataset.
	insert(6)
	for step := 0; step < 120; step++ {
		switch u := rng.Float64(); {
		case u < 0.1 && len(live) > 3:
			remove(rng.Intn(len(live)))
		case u < 0.2:
			insert(1 + rng.Intn(3))
		case step >= 40 && u < 0.5:
			read("spiral", "&method=spiral&eps=0.1")
		default:
			read("exact", "")
		}
	}
	if hits == 0 || misses == 0 || writes < 10 || len(refs) != 2 {
		t.Fatalf("vacuous history: %d hits, %d misses, %d writes, %d engine keys", hits, misses, writes, len(refs))
	}

	snap := srv.Metrics().Snapshot()
	if snap.IndexBuilds != uint64(len(refs)) {
		t.Errorf("IndexBuilds = %d, want %d (one per engine key)", snap.IndexBuilds, len(refs))
	}
	if snap.CacheHits != hits || snap.CacheMisses != misses {
		t.Errorf("cache hits/misses = %d/%d, want %d/%d", snap.CacheHits, snap.CacheMisses, hits, misses)
	}
	if snap.Batches != misses || snap.BatchedReqs != misses {
		t.Errorf("batches/batched requests = %d/%d, want %d/%d (one single-request batch per miss)",
			snap.Batches, snap.BatchedReqs, misses, misses)
	}
	obsSnap := srv.metrics.reg.Snapshot()
	if n := obsSnap.Counters["pnn_delta_applied_total"][""]; n != writes {
		t.Errorf("pnn_delta_applied_total = %d, want %d (one per write)", n, writes)
	}
	if n := obsSnap.Histograms["pnn_store_wal_fsync_seconds"][""].Count; n != mutations {
		t.Errorf("WAL fsyncs = %d, want %d (one per acknowledged mutation)", n, mutations)
	}

	d := srv.reg.Get(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	for key, e := range d.entries {
		r := refs[key.Method]
		if r == nil || !e.built {
			t.Errorf("engine %v: unexpected or unpublished", key)
			continue
		}
		want := engine.Cost{Inserts: r.inserts, Deletes: r.deletes, RebuiltMembers: r.dyn.Stats().RebuiltMembers}
		if got := e.eng.Cost(); got != want {
			t.Errorf("engine %v: cost %+v, want %+v (a DynamicIndex fed the same ops)", key, got, want)
		}
	}
}
