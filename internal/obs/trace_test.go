package obs

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	id, span := NewTraceID(), NewSpanID()
	v := FormatTraceParent(id, span, true)
	gotID, sampled, ok := ParseTraceParent(v)
	if !ok || gotID != id || !sampled {
		t.Fatalf("ParseTraceParent(%q) = %q, %v, %v", v, gotID, sampled, ok)
	}
	gotID, sampled, ok = ParseTraceParent(FormatTraceParent(id, span, false))
	if !ok || gotID != id || sampled {
		t.Fatalf("unsampled round trip = %q, %v, %v", gotID, sampled, ok)
	}
}

func TestTraceParentRejectsMalformed(t *testing.T) {
	id, span := NewTraceID(), NewSpanID()
	for _, v := range []string{
		"",
		"garbage",
		FormatTraceParent(id, span, true) + "x", // too long
		"01-" + id + "-" + span + "-01",         // wrong version
		FormatTraceParent(strings.Repeat("0", 32), span, true), // all-zero trace id
		FormatTraceParent(id, strings.Repeat("0", 16), true),   // all-zero span id
		FormatTraceParent(strings.ToUpper(id), span, true),     // uppercase hex
		"00-" + id[:31] + "g-" + span + "-01",                  // non-hex
	} {
		if _, _, ok := ParseTraceParent(v); ok {
			t.Errorf("ParseTraceParent(%q) accepted malformed input", v)
		}
	}
}

func TestTracerNotRecordingIsFree(t *testing.T) {
	tr := NewTracerSeeded(0, 0, 8, 1) // rate 0, no slow capture: never records
	ctx, root := StartTrace(context.Background(), tr, "req", "")
	if root != nil {
		t.Fatal("rate-0 tracer returned a recording root span")
	}
	if TraceID(ctx) == "" {
		t.Fatal("trace ID must propagate even when not recording")
	}
	h := NewHistogram("stage_seconds", DurationBuckets)
	start := time.Now()
	end := start.Add(time.Millisecond)
	dataset := "fleet"
	allocs := testing.AllocsPerRun(100, func() {
		c2, s := StartSpan(ctx, "stage")
		s.SetAttr("k", "v")
		s.End()
		if c2 != ctx {
			t.Fatal("StartSpan derived a context while not recording")
		}
		if ls := LeafSpan(ctx, "leaf"); ls != nil {
			t.Fatal("LeafSpan recorded while not recording")
		}
		if d := Stage(ctx, "stage", h, start, end, "dataset", dataset); d != time.Millisecond {
			t.Fatalf("Stage returned %v, want 1ms", d)
		}
	})
	if allocs != 0 {
		t.Fatalf("not-recording StartSpan path allocates %v/op, want 0", allocs)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := NewTracerSeeded(1, 0, 8, 1) // always sample
	ctx, root := StartTrace(context.Background(), tr, "req", "")
	if root == nil {
		t.Fatal("rate-1 tracer did not record")
	}
	ctx2, child := StartSpan(ctx, "stage")
	child.SetAttr("dataset", "fleet")
	grand := LeafSpan(ctx2, "leaf")
	grand.End()
	child.End()
	root.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.TraceID != TraceID(ctx) {
		t.Fatalf("trace ID %q != ctx trace ID %q", td.TraceID, TraceID(ctx))
	}
	byName := map[string]SpanData{}
	for _, sd := range td.Spans {
		byName[sd.Name] = sd
	}
	if len(byName) != 3 {
		t.Fatalf("got spans %v, want req/stage/leaf", byName)
	}
	if byName["req"].ParentID != "" {
		t.Fatal("root span has a parent")
	}
	if byName["stage"].ParentID != byName["req"].SpanID {
		t.Fatal("stage span is not a child of the root")
	}
	if byName["leaf"].ParentID != byName["stage"].SpanID {
		t.Fatal("leaf span is not a child of stage")
	}
	if byName["stage"].Attrs["dataset"] != "fleet" {
		t.Fatalf("stage attrs = %v", byName["stage"].Attrs)
	}
}

// TestStage: one Stage call observes its interval in the histogram
// whether or not the trace records, and adds a child span over exactly
// that interval, with its attributes, only when it does.
func TestStage(t *testing.T) {
	h := NewHistogram("stage_seconds", DurationBuckets)
	now := time.Now()
	Stage(context.Background(), "outside", h, now, now)
	if h.Count() != 1 {
		t.Fatalf("count = %d after a Stage outside any trace, want 1", h.Count())
	}

	tr := NewTracerSeeded(1, 0, 8, 1)
	ctx, root := StartTrace(context.Background(), tr, "req", "")
	start := time.Now()
	end := start.Add(3 * time.Millisecond)
	if d := Stage(ctx, "execute", h, start, end, "dataset", "fleet", "backend", "index"); d != 3*time.Millisecond {
		t.Fatalf("Stage returned %v, want 3ms", d)
	}
	root.End()
	if h.Count() != 2 || h.Sum() != 0.003 {
		t.Fatalf("histogram count/sum = %d/%g, want 2/0.003", h.Count(), h.Sum())
	}
	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	var stage, rootSpan SpanData
	for _, sp := range traces[0].Spans {
		switch sp.Name {
		case "execute":
			stage = sp
		case "req":
			rootSpan = sp
		}
	}
	if stage.SpanID == "" || stage.ParentID != rootSpan.SpanID {
		t.Fatalf("stage span %+v is not a child of the root %+v", stage, rootSpan)
	}
	if stage.DurationNs != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("stage span lasts %dns, want the histogram's 3ms", stage.DurationNs)
	}
	if stage.Attrs["dataset"] != "fleet" || stage.Attrs["backend"] != "index" || len(stage.Attrs) != 2 {
		t.Errorf("stage attrs = %v", stage.Attrs)
	}
}

func TestTracerJoinsUpstreamTrace(t *testing.T) {
	tr := NewTracerSeeded(0, 0, 8, 1) // local coin never fires
	up := FormatTraceParent("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7", true)
	ctx, root := StartTrace(context.Background(), tr, "req", up)
	if root == nil {
		t.Fatal("upstream sampled flag did not force recording")
	}
	if TraceID(ctx) != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID %q not echoed from upstream", TraceID(ctx))
	}
	if !strings.HasSuffix(TraceParent(ctx), "-01") {
		t.Fatalf("forwarded traceparent %q lost the sampled flag", TraceParent(ctx))
	}
	root.End()
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("kept %d traces, want 1", n)
	}
}

func TestTracerSlowCapture(t *testing.T) {
	tr := NewTracerSeeded(0, time.Nanosecond, 8, 1) // everything is "slow"
	_, root := StartTrace(context.Background(), tr, "req", "")
	if root == nil {
		t.Fatal("armed slow-capture did not record in flight")
	}
	root.End()
	traces := tr.Snapshot()
	if len(traces) != 1 || !traces[0].Slow {
		t.Fatalf("slow trace not kept: %+v", traces)
	}

	// A fast trace under a high threshold records in flight but is
	// dropped at the root End.
	tr = NewTracerSeeded(0, time.Hour, 8, 1)
	_, root = StartTrace(context.Background(), tr, "req", "")
	if root == nil {
		t.Fatal("armed slow-capture did not record in flight")
	}
	root.End()
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("fast trace kept %d traces, want 0", n)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracerSeeded(1, 0, 3, 1)
	for i := 0; i < 5; i++ {
		ctx, root := StartTrace(context.Background(), tr, fmt.Sprintf("req-%d", i), "")
		_ = ctx
		root.End()
	}
	traces := tr.Snapshot()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(traces))
	}
	// Newest first: req-4, req-3, req-2 survived; req-0/req-1 evicted.
	for i, want := range []string{"req-4", "req-3", "req-2"} {
		if got := traces[i].Spans[0].Name; got != want {
			t.Fatalf("traces[%d] root = %q, want %q", i, got, want)
		}
	}
}

func TestTracerSamplingDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		tr := NewTracerSeeded(0.5, 0, 64, seed)
		kept := make([]bool, 20)
		for i := range kept {
			_, root := StartTrace(context.Background(), tr, "req", "")
			kept[i] = root != nil
			root.End()
		}
		return kept
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at trace %d: %v vs %v", i, a, b)
		}
	}
	var sampled int
	for _, k := range a {
		if k {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(a) {
		t.Fatalf("rate-0.5 seeded coin kept %d/%d — not sampling", sampled, len(a))
	}
	tr := NewTracerSeeded(0.5, 0, 64, 7)
	for range a {
		_, root := StartTrace(context.Background(), tr, "req", "")
		root.End()
	}
	if got := len(tr.Snapshot()); got != sampled {
		t.Fatalf("ring kept %d traces, want %d (only sampled ones)", got, sampled)
	}
}

func TestNilSpanAndNilTracer(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.End() // must not panic
	var tr *Tracer
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot not nil")
	}
	ctx, root := StartTrace(context.Background(), nil, "req", "")
	if root != nil {
		t.Fatal("nil tracer returned a recording span")
	}
	if TraceID(ctx) == "" || TraceParent(ctx) == "" {
		t.Fatal("nil tracer must still mint and propagate IDs")
	}
	if TraceID(context.Background()) != "" || TraceParent(context.Background()) != "" {
		t.Fatal("bare context reports a trace")
	}
}
