package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pnn"
	"pnn/api"
)

// stageCounts reads, for each stage, the pnn_stage_duration_seconds
// count and the number of spans of that name across every trace kept
// at /debug/traces.
func stageCounts(t *testing.T, srv *Server, hs *httptest.Server, stages ...string) (hist, spans map[string]uint64) {
	t.Helper()
	hist, spans = map[string]uint64{}, map[string]uint64{}
	for _, st := range stages {
		hist[st] = srv.metrics.stages.With(st).Count()
	}
	for _, tr := range fetchTraces(t, hs) {
		for _, sp := range tr.Spans {
			if _, ok := hist[sp.Name]; ok {
				spans[sp.Name]++
			}
		}
	}
	return hist, spans
}

// TestStageCountsMatchSpans is the one-clock oracle: every stage the
// answer path records feeds its histogram and its span from the same
// call, so with every trace kept, each stage's histogram count equals
// its span count. A sequential run pins the counts themselves (one
// cache probe per read, one build, and one queue, execute and encode
// per miss); a gated run pins them under batching, where execute
// counts requests, not batches.
func TestStageCountsMatchSpans(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		reg, _ := testRegistry(t)
		srv := New(reg, Config{TraceSampleRate: 1, TraceBuffer: 1024})
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		for i := 0; i < 40; i++ {
			path := fmt.Sprintf("/v1/topk?dataset=fleet&x=%d&y=%d&k=2", i%25, (i%25)/5)
			if status, _, body := getBody(t, hs, path); status != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, status, body)
			}
		}
		want := map[string]uint64{"cache": 40, "build": 1, "queue": 25, "execute": 25, "encode": 25}
		hist, spans := stageCounts(t, srv, hs, "cache", "build", "queue", "execute", "encode")
		for st, n := range want {
			if hist[st] != n || spans[st] != n {
				t.Errorf("stage %s: histogram %d, spans %d, want %d each", st, hist[st], spans[st], n)
			}
		}
	})

	t.Run("batched", func(t *testing.T) {
		reg, _ := testRegistry(t)
		srv := New(reg, Config{CacheSize: -1, TraceSampleRate: 1, TraceBuffer: 1024})
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		g, entry := installGate(t, srv, "/v1/nonzero?dataset=fleet&x=0&y=0", pnn.OpNonzero)
		defer g.open()

		var wg sync.WaitGroup
		fetch := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				path := fmt.Sprintf("/v1/nonzero?dataset=fleet&x=%d&y=1", i)
				if status, _, body := getBody(t, hs, path); status != http.StatusOK {
					t.Errorf("GET %s: %d %s", path, status, body)
				}
			}()
		}
		fetch(0)
		if got := len(g.waitEntered(t)); got != 1 {
			t.Fatalf("first batch has %d requests, want 1", got)
		}
		for i := 1; i < 5; i++ {
			fetch(i)
		}
		waitDepth(t, entry.batcher, 4)
		g.open()
		if got := len(g.waitEntered(t)); got != 4 {
			t.Fatalf("second batch has %d requests, want 4", got)
		}
		wg.Wait()

		if snap := srv.Metrics().Snapshot(); snap.Batches != 2 || snap.BatchedReqs != 5 {
			t.Fatalf("batches/batched requests = %d/%d, want 2/5", snap.Batches, snap.BatchedReqs)
		}
		// installGate builds the engine outside any request, so the build
		// stage has a histogram entry and no span here; every other stage
		// runs inside the five requests.
		hist, spans := stageCounts(t, srv, hs, "cache", "queue", "execute", "encode")
		for _, st := range []string{"cache", "queue", "execute", "encode"} {
			if hist[st] != 5 || spans[st] != 5 {
				t.Errorf("stage %s: histogram %d, spans %d, want 5 each", st, hist[st], spans[st])
			}
		}
		if n := srv.metrics.queueWait.With("fleet").Count(); n != 5 {
			t.Errorf("pnn_queue_wait_seconds{dataset=fleet} count = %d, want 5", n)
		}
	})
}

// TestConcurrentWorkCounts drives 8 concurrent clients of 50 distinct
// reads each, every trace kept. The batch count depends on timing, but
// every miss goes through the batcher exactly once, so the batched
// requests, cache misses and execute observations all agree, the mean
// batch size lies in [1, maxBatch], and each stage's histogram count
// still equals its span count.
func TestConcurrentWorkCounts(t *testing.T) {
	const clients, reads = 8, 50
	reg, _ := testRegistry(t)
	srv := New(reg, Config{TraceSampleRate: 1, TraceBuffer: 1024})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				op := api.Ops[(c+i)%len(api.Ops)]
				path := fmt.Sprintf("/v1/%s?dataset=fleet&x=%d&y=%d&k=2&tau=0.2", op, i, c)
				if status, _, body := getBody(t, hs, path); status != http.StatusOK {
					t.Errorf("GET %s: %d %s", path, status, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	snap := srv.Metrics().Snapshot()
	execute := srv.metrics.stages.With("execute").Count()
	if snap.CacheMisses != clients*reads || snap.BatchedReqs != snap.CacheMisses || execute != snap.CacheMisses {
		t.Errorf("batched requests %d, cache misses %d, execute count %d: want %d each",
			snap.BatchedReqs, snap.CacheMisses, execute, clients*reads)
	}
	if snap.Batches == 0 || snap.BatchedReqs < snap.Batches || snap.BatchedReqs > maxBatch*snap.Batches {
		t.Errorf("%d requests in %d batches: mean batch size outside [1, %d]", snap.BatchedReqs, snap.Batches, maxBatch)
	}
	hist, spans := stageCounts(t, srv, hs, "cache", "build", "queue", "execute", "encode")
	for st, n := range hist {
		if spans[st] != n {
			t.Errorf("stage %s: histogram %d, spans %d", st, n, spans[st])
		}
	}
	if hist["build"] != 1 || hist["cache"] != clients*reads {
		t.Errorf("build/cache counts = %d/%d, want 1/%d", hist["build"], hist["cache"], clients*reads)
	}
}
