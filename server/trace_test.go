package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pnn/api"
	"pnn/internal/obs"
)

// tracedDo sends one request with a caller-supplied traceparent (and
// optional admin token), returning status, headers, and body.
func tracedDo(t *testing.T, hs *httptest.Server, method, path, traceparent string, body any, token string) (int, http.Header, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, hs.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set(api.TraceParentHeader, traceparent)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// fetchTraces decodes /debug/traces.
func fetchTraces(t *testing.T, hs *httptest.Server) []obs.TraceData {
	t.Helper()
	status, _, body := getBody(t, hs, "/debug/traces")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces: %d", status)
	}
	var page struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("decoding /debug/traces: %v\n%s", err, body)
	}
	return page.Traces
}

// findTrace returns the kept trace with the given ID, or fails.
func findTrace(t *testing.T, traces []obs.TraceData, traceID string) obs.TraceData {
	t.Helper()
	for _, tr := range traces {
		if tr.TraceID == traceID {
			return tr
		}
	}
	t.Fatalf("trace %s not in /debug/traces (%d traces kept)", traceID, len(traces))
	return obs.TraceData{}
}

// spanNamed returns the first span with the given name, or fails.
func spanNamed(t *testing.T, tr obs.TraceData, name string) obs.SpanData {
	t.Helper()
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp
		}
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	t.Fatalf("trace %s has no span %q (spans: %v)", tr.TraceID, name, names)
	return obs.SpanData{}
}

// TestTracedWriteEndToEnd is the write-path acceptance test for span
// tracing: one traced insert surfaces at /debug/traces as a single
// trace whose spans cover the whole write path — the store call, the
// WAL append, the fsync wait, and the delta apply — with parent/child
// nesting matching the call structure.
func TestTracedWriteEndToEnd(t *testing.T) {
	_, hs, _ := storeServer(t, Config{TraceSampleRate: 1})

	if status, _, raw := tracedDo(t, hs, http.MethodPut, api.DatasetPath("a"), "", api.CreateDataset{Kind: "disks"}, testToken); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	// First insert loads the dataset into the registry (nothing to delta
	// against yet); the second one exercises the delta-apply path.
	ins := api.InsertPoints{Disks: []api.DiskPointJSON{{X: 1, Y: 2, R: 0.5}}}
	if status, _, raw := tracedDo(t, hs, http.MethodPost, api.PointsPath("a"), "", ins, testToken); status != http.StatusOK {
		t.Fatalf("insert 1: %d %s", status, raw)
	}
	// A prior query materializes a live engine so the second insert's
	// refresh has an engine to delta into.
	if status, _, raw := tracedDo(t, hs, http.MethodGet, "/v1/nonzero?dataset=a&x=1&y=2", "", nil, ""); status != http.StatusOK {
		t.Fatalf("warm query: %d %s", status, raw)
	}

	const parent = "00-aaaabbbbccccddddeeeeffff00001111-1234567890abcdef-01"
	status, h, raw := tracedDo(t, hs, http.MethodPost, api.PointsPath("a"), parent, ins, testToken)
	if status != http.StatusOK {
		t.Fatalf("insert 2: %d %s", status, raw)
	}
	echoed := h.Get(api.TraceParentHeader)
	traceID, _, ok := obs.ParseTraceParent(echoed)
	if !ok || traceID != "aaaabbbbccccddddeeeeffff00001111" {
		t.Fatalf("traceparent echo = %q, want the supplied trace ID", echoed)
	}

	tr := findTrace(t, fetchTraces(t, hs), traceID)
	root := spanNamed(t, tr, "admin")
	storeIns := spanNamed(t, tr, "store.insert")
	walAppend := spanNamed(t, tr, "wal.append")
	fsyncWait := spanNamed(t, tr, "fsync.wait")
	deltaApply := spanNamed(t, tr, "delta.apply")

	// Nesting: the handler's store.insert span is a child of the edge
	// root; the store's WAL spans are children of store.insert; the
	// delta apply hangs off the root (it runs after the store call).
	if root.ParentID != "1234567890abcdef" {
		t.Errorf("root parent = %q, want the upstream span ID", root.ParentID)
	}
	if storeIns.ParentID != root.SpanID {
		t.Errorf("store.insert parent = %q, want root %q", storeIns.ParentID, root.SpanID)
	}
	if walAppend.ParentID != storeIns.SpanID {
		t.Errorf("wal.append parent = %q, want store.insert %q", walAppend.ParentID, storeIns.SpanID)
	}
	if fsyncWait.ParentID != storeIns.SpanID {
		t.Errorf("fsync.wait parent = %q, want store.insert %q", fsyncWait.ParentID, storeIns.SpanID)
	}
	if deltaApply.ParentID != root.SpanID {
		t.Errorf("delta.apply parent = %q, want root %q", deltaApply.ParentID, root.SpanID)
	}
	if deltaApply.Attrs["dataset"] != "a" {
		t.Errorf("delta.apply attrs = %v, want dataset=a", deltaApply.Attrs)
	}

	// Both inserts delta-applied (the dataset was registered at create
	// time, so even the first insert has a generation to delta into) and
	// no fallback path fired.
	snap := fetchObsSnapshot(t, hs)
	if n := snap.Counters["pnn_delta_applied_total"][""]; n != 2 {
		t.Errorf("pnn_delta_applied_total = %v, want 2 (counters: %v)", n, snap.Counters)
	}
	for reason, n := range snap.Counters["pnn_delta_fallback_total"] {
		if n != 0 {
			t.Errorf("pnn_delta_fallback_total{reason=%q} = %v, want 0", reason, n)
		}
	}
}

func fetchObsSnapshot(t *testing.T, hs *httptest.Server) obs.Snapshot {
	t.Helper()
	status, _, body := getBody(t, hs, "/debug/obs")
	if status != http.StatusOK {
		t.Fatalf("/debug/obs: %d", status)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding /debug/obs: %v\n%s", err, body)
	}
	return snap
}

// TestTraceErrorBody: error responses carry the trace ID so a failure
// report can be matched to its kept trace.
func TestTraceErrorBody(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{TraceSampleRate: 1})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const parent = "00-00112233445566778899aabbccddeeff-aaaaaaaaaaaaaaaa-01"
	status, _, raw := tracedDo(t, hs, http.MethodGet, "/v1/nonzero?dataset=ghost&x=1&y=2", parent, nil, "")
	if status != http.StatusNotFound {
		t.Fatalf("ghost query: %d %s", status, raw)
	}
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.TraceID != "00112233445566778899aabbccddeeff" {
		t.Errorf("error body trace_id = %q, want the supplied trace ID", e.TraceID)
	}
}

// TestQueueDepthGauge: the batcher queue-depth gauge exists per hosted
// dataset and reads zero at rest (requests drain before the scrape).
func TestQueueDepthGauge(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	getBody(t, hs, "/v1/nonzero?dataset=fleet&x=1&y=2")
	status, _, body := getBody(t, hs, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	want := fmt.Sprintf("pnn_queue_depth{dataset=%q} 0", "fleet")
	if !bytes.Contains(body, []byte(want)) {
		t.Errorf("/metrics missing %q:\n%s", want, body)
	}
}

// TestDebugTraces: /debug/traces serves every kept trace newest first,
// only the named trace with ?id= (none for an ID the ring does not
// hold), and an empty list when tracing is disabled (TraceBuffer < 0).
func TestDebugTraces(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := New(reg, Config{TraceSampleRate: 1})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		_, h, _ := getBody(t, hs, fmt.Sprintf("/v1/nonzero?dataset=fleet&x=%d&y=2", i))
		id, _, ok := obs.ParseTraceParent(h.Get(api.TraceParentHeader))
		if !ok {
			t.Fatalf("request %d: no valid traceparent", i)
		}
		ids = append(ids, id)
	}
	all := fetchTraces(t, hs)
	if len(all) != 3 || all[0].TraceID != ids[2] || all[1].TraceID != ids[1] || all[2].TraceID != ids[0] {
		t.Fatalf("/debug/traces = %d traces, want the 3 requests newest first", len(all))
	}

	byID := func(id string) []obs.TraceData {
		t.Helper()
		status, _, body := getBody(t, hs, "/debug/traces?id="+id)
		var page struct {
			Traces []obs.TraceData `json:"traces"`
		}
		if err := json.Unmarshal(body, &page); status != http.StatusOK || err != nil || page.Traces == nil {
			t.Fatalf("?id=%s: %d %v\n%s", id, status, err, body)
		}
		return page.Traces
	}
	if one := byID(ids[1]); len(one) != 1 || one[0].TraceID != ids[1] {
		t.Fatalf("?id=%s served %d traces, want exactly that one", ids[1], len(one))
	} else {
		spanNamed(t, one[0], "execute")
	}
	if none := byID(obs.NewTraceID()); len(none) != 0 {
		t.Fatalf("?id= of an unknown trace served %d traces, want none", len(none))
	}

	off := New(reg, Config{TraceBuffer: -1})
	defer off.Close()
	hsOff := httptest.NewServer(off.Handler())
	defer hsOff.Close()
	getBody(t, hsOff, "/v1/nonzero?dataset=fleet&x=1&y=2")
	status, h, body := getBody(t, hsOff, "/debug/traces")
	if status != http.StatusOK || h.Get("Content-Type") != "application/json" || string(body) != "{\"traces\":[]}\n" {
		t.Errorf("disabled tracing: %d %q %q, want 200 application/json {\"traces\":[]}", status, h.Get("Content-Type"), body)
	}
}
