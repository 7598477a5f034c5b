package obs

import (
	"strings"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("got %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d: got %g want %g", i, b[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic on bad ExpBuckets args")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram("test_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %g, want 106", got)
	}
	// Bucket occupancy: le=1 holds {0.5, 1}, le=2 holds {1.5},
	// le=4 holds {3}, +Inf holds {100}.
	wantCounts := []uint64{2, 1, 1, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d: got %d want %d", i, got, want)
		}
	}
}

func TestHistogramCollectCumulative(t *testing.T) {
	h := NewHistogram("test_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var b strings.Builder
	h.Collect(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{le="1"} 1` + "\n",
		`test_seconds_bucket{le="2"} 2` + "\n",
		`test_seconds_bucket{le="+Inf"} 3` + "\n",
		"test_seconds_sum 11\n",
		"test_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if err := CheckExposition(out); err != nil {
		t.Fatalf("CheckExposition: %v", err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("q", ExpBuckets(1, 2, 10))
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i + 1)) // 1..100
	}
	p50 := h.Quantile(0.5)
	if p50 < 32 || p50 > 64 {
		t.Fatalf("p50 = %g, want within (32, 64]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 64 || p99 > 128 {
		t.Fatalf("p99 = %g, want within (64, 128]", p99)
	}
	// Values beyond the last bound clamp to it.
	h2 := NewHistogram("q2", []float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile = %g, want clamp to 1", got)
	}
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec("vec_seconds", "endpoint", []float64{1, 2})
	v.With("topk").Observe(0.5)
	v.With("nonzero").Observe(1.5)
	v.With("topk").Observe(3)
	var b strings.Builder
	v.Collect(&b)
	out := b.String()
	if strings.Count(out, "# TYPE vec_seconds histogram") != 1 {
		t.Fatalf("want exactly one TYPE line in:\n%s", out)
	}
	// Sorted label order: nonzero before topk.
	if strings.Index(out, `endpoint="nonzero"`) > strings.Index(out, `endpoint="topk"`) {
		t.Fatalf("labels not sorted:\n%s", out)
	}
	for _, want := range []string{
		`vec_seconds_bucket{endpoint="topk",le="+Inf"} 2`,
		`vec_seconds_count{endpoint="nonzero"} 1`,
		`vec_seconds_sum{endpoint="topk"} 3.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if err := CheckExposition(out); err != nil {
		t.Fatalf("CheckExposition: %v", err)
	}
	stats := v.StatsByLabel()
	if stats["topk"].Count != 2 || stats["nonzero"].Count != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestObserveAllocFree(t *testing.T) {
	h := NewHistogram("alloc_seconds", DurationBuckets)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.001) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", allocs)
	}
	v := NewHistogramVec("alloc_vec_seconds", "endpoint", DurationBuckets)
	v.With("topk") // intern before measuring the hot path
	if allocs := testing.AllocsPerRun(1000, func() { v.With("topk").Observe(0.001) }); allocs != 0 {
		t.Fatalf("HistogramVec With+Observe allocates %v/op", allocs)
	}
	c := NewCounterVec("alloc_total", "code")
	c.Inc("internal")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc("internal") }); allocs != 0 {
		t.Fatalf("CounterVec.Inc allocates %v/op", allocs)
	}
}

func TestCounterVec(t *testing.T) {
	v := NewCounterVec("errs_total", "code")
	v.Inc("internal")
	v.Add("bad_request", 2)
	v.Inc("internal")
	if got := v.Value("internal"); got != 2 {
		t.Fatalf("internal = %d", got)
	}
	if got := v.Value("missing"); got != 0 {
		t.Fatalf("missing = %d", got)
	}
	if got := v.Total(); got != 4 {
		t.Fatalf("total = %d", got)
	}
	var b strings.Builder
	v.Collect(&b)
	out := b.String()
	if !strings.Contains(out, `errs_total{code="bad_request"} 2`) ||
		!strings.Contains(out, `errs_total{code="internal"} 2`) {
		t.Fatalf("render:\n%s", out)
	}
	if err := CheckExposition(out); err != nil {
		t.Fatalf("CheckExposition: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("zz_total")
	c.Add(3)
	r.NewGaugeFunc("aa_gauge", func() float64 { return 7 })
	h := r.NewHistogram("mm_seconds", []float64{1})
	h.Observe(0.5)
	out := r.Render()
	// Families render sorted by name.
	if strings.Index(out, "aa_gauge") > strings.Index(out, "mm_seconds") ||
		strings.Index(out, "mm_seconds") > strings.Index(out, "zz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	if err := CheckExposition(out); err != nil {
		t.Fatalf("CheckExposition: %v", err)
	}

	snap := r.Snapshot()
	if snap.Counters["zz_total"][""] != 3 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}
	if snap.Gauges["aa_gauge"][""] != 7 {
		t.Fatalf("snapshot gauges = %+v", snap.Gauges)
	}
	if snap.Histograms["mm_seconds"][""].Count != 1 {
		t.Fatalf("snapshot histograms = %+v", snap.Histograms)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate family name")
		}
	}()
	r.NewCounter("zz_total")
}
