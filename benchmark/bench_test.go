package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"pnn/api"
	"pnn/internal/datafile"
	"pnn/internal/loadgen"
	"pnn/store"
)

// A stall must show up in the latency of every request due while it
// lasts, including those still waiting for a connection, while the
// generator itself keeps to its schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stallFrom, stallTo = 200 * time.Millisecond, 400 * time.Millisecond
	var start time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if now := time.Since(start); now >= stallFrom && now < stallTo {
			time.Sleep(stallTo - now)
		}
		w.Write([]byte("{}\n"))
	}))
	defer ts.Close()
	spec, err := workloads[0].spec(1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := newSequence(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := newSender(ts.URL, seq, 1)
	defer d.close()
	start = time.Now()
	recs := d.openLoop(context.Background(), 300, time.Second, 1)

	var lag []float64
	stalled := 0
	for _, r := range recs {
		if r.failed {
			t.Fatalf("request %d failed", r.seq)
		}
		lag = append(lag, ms(r.sent-r.due))
		// Requests due inside the stall cannot finish before it ends.
		if r.due >= stallFrom+10*time.Millisecond && r.due < stallTo-10*time.Millisecond {
			stalled++
			if want := stallTo - r.due - 5*time.Millisecond; r.latency() < want {
				t.Errorf("request due at %v took %v, want at least %v", r.due, r.latency(), want)
			}
		}
	}
	if stalled < 20 {
		t.Fatalf("only %d requests fell inside the stall", stalled)
	}
	if p95 := quantile(lag, 0.95); p95 > 5 {
		t.Errorf("generator lag p95 = %.2f ms, want under 5 ms", p95)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	if _, err := percentile(append(xs, 999), 0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("median of 19 samples was reported")
	}
	if v, err := percentile(xs[:21], 0.5); err != nil || v != 10 {
		t.Errorf("median of 0..20 = %v, %v; want 10", v, err)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which judges the spread of repeated runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func smallDataset(t *testing.T, n int) *datafile.File {
	t.Helper()
	p := datafile.DefaultGenParams()
	p.N = n
	df, err := datafile.Generate("discrete", p)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

// The read oracle compares bytes, so a single flipped mantissa bit in
// one probability is a mismatch.
func TestOracleCatchesFlippedBit(t *testing.T) {
	set, err := smallDataset(t, 200).Set()
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(set)
	if err != nil {
		t.Fatal(err)
	}
	req := loadgen.Request{Op: "probabilities", Dataset: datasetName, X: 50, Y: 50}
	want, err := o.body(req)
	if err != nil {
		t.Fatal(err)
	}
	var resp api.Probabilities
	if err := json.Unmarshal(want, &resp); err != nil {
		t.Fatal(err)
	}
	flipped := false
	for i, p := range resp.Probabilities {
		if p > 0 {
			resp.Probabilities[i] = math.Float64frombits(math.Float64bits(p) ^ 1)
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no positive probability to flip")
	}
	bad, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*record{
		{seq: 0, req: req, body: want},
		{seq: 10, req: req, body: append(bad, '\n')},
	}
	got, err := o.check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.HasPrefix(got[0], "request 10 ") {
		t.Errorf("mismatches = %q, want exactly the flipped request", got)
	}
}

// The store oracle rebuilds the live id set from acked writes alone, so
// an acked insert the store does not hold is reported.
func TestStoreOracleCatchesMissingInsert(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	st, err := importStore(dir, smallDataset(t, n))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := st.InsertPoints(ctx, datasetName, []store.Point{{Discrete: &datafile.DiscreteJSON{X: []float64{1}, Y: []float64{2}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeletePoint(ctx, datasetName, 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	acked := m.IDs
	if got, err := checkStore(dir, n, acked, []uint64{5}, nil); err != nil || len(got) != 0 {
		t.Fatalf("consistent history: mismatches %q, err %v", got, err)
	}
	lost := acked[0] + 1
	got, err := checkStore(dir, n, append(acked, lost), []uint64{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.Contains(got[0], "lost point") {
		t.Errorf("mismatches = %q, want one lost point", got)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the command
// runs and prints, and stay inside the limits its readers enforce.
func TestManifestMatchesCommand(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, command runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, command %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, command prints %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s %d: manifest %s (%s), command %s (%s)", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: malformed name or unit %q %q", kind, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: bound must be in (0, 0.25] exactly for end-to-end metrics", g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDefs, true)
	check("per_layer", m.PerLayer, perLayerDefs, false)
	var setup float64
	for _, e := range m.EndToEnd {
		if e.Name == "setup_s" && e.Better == "lower" {
			setup = *e.Bound
		}
	}
	for _, e := range m.EndToEnd {
		if *e.Bound > setup {
			t.Errorf("%s bound %g exceeds setup_s bound %g", e.Name, *e.Bound, setup)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds < 3 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

// endToEnd must produce exactly the declared metrics.
func TestEndToEndFillsDeclaredMetrics(t *testing.T) {
	var open []*record
	for i := 0; i <= 200; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		open = append(open, &record{class: classQuantify, due: d, done: d + time.Duration(i)*time.Millisecond})
		open = append(open, &record{class: classWrite, due: d, done: d + time.Second})
	}
	v, err := endToEnd([]float64{0.3, 0.2, 0.4}, open)
	if err != nil {
		t.Fatal(err)
	}
	res := &result{Metrics: make(map[string]metric)}
	if err := res.fill(endToEndDefs, v); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 0.3, "read_p50_ms": 100, "read_p90_ms": 180}
	for name, w := range want {
		if got := res.Metrics[name].Value; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v (writes must not count as reads)", name, got, w)
		}
	}
	v["extra"] = 1
	if err := (&result{Metrics: make(map[string]metric)}).fill(endToEndDefs, v); err == nil {
		t.Error("fill accepted an undeclared metric")
	}
}
