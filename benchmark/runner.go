package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pnn/api"
	"pnn/internal/datafile"
	"pnn/internal/loadgen"
)

// setups is how many times a run launches and warms its topology;
// setup_s is their median. Only the last topology is measured.
const setups = 5

// probeCount is the number of fixed queries a durable run answers
// before its server stops.
const probeCount = 64

type runConfig struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	bin     string
	out     string // results.json and trace.json go here
}

// runWorkload performs one run and returns its summary.
func runWorkload(ctx context.Context, cfg runConfig, log io.Writer) (*result, error) {
	w := cfg.w
	if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Dir(cfg.out), "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	df, err := dataset(cfg.seed)
	if err != nil {
		return nil, err
	}
	set, err := df.Set()
	if err != nil {
		return nil, err
	}
	dataPath := filepath.Join(work, "data.json")
	if err := writeDataFile(dataPath, df); err != nil {
		return nil, err
	}
	spec, err := w.spec(cfg.seed)
	if err != nil {
		return nil, err
	}

	n := setups
	if cfg.trace {
		n = 1
	}
	topo, snd, setupSec, err := setUp(ctx, cfg, work, dataPath, spec, n)
	if err != nil {
		return nil, err
	}
	defer func() {
		snd.close()
		if topo != nil {
			topo.stop()
		}
	}()

	// Phase 3: the open loop.
	var before, after map[string]float64
	if cfg.trace {
		if before, err = scrapeAll(ctx, topo.backends); err != nil {
			return nil, err
		}
	}
	open := snd.openLoop(ctx, w.rate, time.Duration(cfg.seconds)*time.Second, cfg.seed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if after, err = scrapeAll(ctx, topo.backends); err != nil {
			return nil, err
		}
	}
	rss, err := topo.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Phase 4: verify.
	var bad []string
	if w.durable {
		probes := snd.sendAll(ctx, probeCalls(cfg.seed))
		if f := failures(probes); f != "" {
			return nil, fmt.Errorf("probes: %s", f)
		}
		err := topo.stop()
		topo = nil
		if err != nil {
			return nil, err
		}
		bad, err = checkStore(filepath.Join(work, fmt.Sprintf("store-%d", n-1)), datasetN, snd.inserted, snd.deleted, probes)
		if err != nil {
			return nil, err
		}
	} else if bad, err = checkReads(ctx, set, snd, open, w.routed); err != nil {
		return nil, err
	}
	for _, b := range bad {
		fmt.Fprintf(log, "mismatch: %s\n", b)
	}

	res := &result{Correct: len(bad) == 0, Metrics: make(map[string]metric)}
	for _, r := range open {
		res.Attempted++
		if r.failed {
			res.Failed++
		}
	}
	var values map[string]float64
	if cfg.trace {
		values, err = layerMetrics(ctx, cfg, work, open, before, after, rss, df, set, spec)
		if err == nil {
			err = res.fill(perLayerDefs, values)
		}
	} else {
		values, err = endToEnd(setupSec, open)
		if err == nil {
			err = res.fill(endToEndDefs, values)
		}
	}
	if err != nil {
		return nil, err
	}
	detail := map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"mismatches": bad, "metrics": res.Metrics, "setup_runs_s": setupSec, "server_peak_rss_mb": rss,
		"open_loop": classStats(open),
	}
	if err := writeJSON(filepath.Join(cfg.out, "results.json"), detail); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp runs phases 1-2 n times: launch the topology, wait until
// healthy, send one request per op so every lazy engine is built. All
// but the last topology are torn down; that one is returned with its
// sender (its cache already filled when the workload pre-warms) and
// the duration of every set-up.
func setUp(ctx context.Context, cfg runConfig, work, dataPath string, spec loadgen.Spec, n int) (*topology, *sender, []float64, error) {
	warm, err := warmCalls(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	var (
		topo     *topology
		snd      *sender
		setupSec []float64
	)
	fail := func(err error) (*topology, *sender, []float64, error) {
		if snd != nil {
			snd.close()
		}
		if topo != nil {
			topo.stop()
		}
		return nil, nil, nil, err
	}
	for i := 0; i < n; i++ {
		if topo != nil {
			snd.close()
			err := topo.stop()
			topo, snd = nil, nil
			if err != nil {
				return fail(err)
			}
		}
		storeDir := ""
		if cfg.w.durable {
			storeDir = filepath.Join(work, fmt.Sprintf("store-%d", i))
		}
		begin := time.Now()
		if topo, err = startTopology(ctx, cfg.bin, work, cfg.w, dataPath, storeDir); err != nil {
			return fail(err)
		}
		seq, err := newSequence(spec)
		if err != nil {
			return fail(err)
		}
		snd = newSender(topo.url, seq, cfg.seed)
		// One at a time: a write that lands while an engine is still
		// building retires that build, and the timed phase would pay for
		// the rebuild.
		for _, c := range warm {
			if bad := failures(snd.sendAll(ctx, []call{c})); bad != "" {
				return fail(fmt.Errorf("warm-up: %s", bad))
			}
		}
		setupSec = append(setupSec, time.Since(begin).Seconds())
	}
	if cfg.w.prewarm {
		calls, err := distinctReads(spec, 20000)
		if err != nil {
			return fail(err)
		}
		if bad := failures(snd.sendAll(ctx, calls)); bad != "" {
			return fail(fmt.Errorf("cache pre-warm: %s", bad))
		}
	}
	return topo, snd, setupSec, nil
}

func writeDataFile(path string, df *datafile.File) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := datafile.Write(f, df); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// warmCalls is the first request of each op in the workload's own
// sequence (every op of a mix shows up within its first 10,000).
func warmCalls(spec loadgen.Spec) ([]call, error) {
	gen, err := loadgen.NewGen(spec)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var calls []call
	for i := 0; i < 10000; i++ {
		if r := gen.Next(); !seen[r.Op] {
			seen[r.Op] = true
			calls = append(calls, call{seq: -1, req: r})
		}
	}
	return calls, nil
}

// distinctReads lists every distinct read among the sequence's first n
// requests, for filling the result cache.
func distinctReads(spec loadgen.Spec, n int) ([]call, error) {
	gen, err := loadgen.NewGen(spec)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var calls []call
	for i := 0; i < n; i++ {
		r := gen.Next()
		if classOf(r.Op) == classWrite || seen[queryPath(r)] {
			continue
		}
		seen[queryPath(r)] = true
		calls = append(calls, call{seq: -1, req: r})
	}
	return calls, nil
}

// probeCalls are the fixed queries a durable run checks its final state
// with: seeded points, cycling through the five read ops. Every one is
// sampled.
func probeCalls(seed int64) []call {
	calls := make([]call, probeCount)
	r := rand.New(rand.NewSource(seed + 101))
	for i := range calls {
		calls[i] = call{seq: i * sampleEvery, req: loadgen.Request{
			Op: api.Ops[i%len(api.Ops)], Dataset: datasetName,
			X: r.Float64() * extent, Y: r.Float64() * extent, K: topK, Tau: tau,
		}}
	}
	return calls
}

// failures summarizes failed records, "" when none failed.
func failures(recs []*record) string {
	n, first := 0, ""
	for _, r := range recs {
		if r.failed {
			if n == 0 {
				first = fmt.Sprintf("%s (status %d)", r.req.Op, r.status)
			}
			n++
		}
	}
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("%d of %d requests failed, first %s", n, len(recs), first)
}

// scrapeAll sums every counter of the Prometheus pages of the given
// servers by metric name (labels summed away).
func scrapeAll(ctx context.Context, urls []string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if strings.HasSuffix(name[:i], "_bucket") {
					continue
				}
				name = name[:i]
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// classStats summarizes successful requests per class, for results.json.
func classStats(recs []*record) map[string]any {
	byClass := latenciesByClass(recs)
	out := make(map[string]any)
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := byClass[c]
		s := map[string]any{"count": len(xs), "mean_ms": mean(xs)}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if v, err := percentile(xs, q); err == nil {
				s[fmt.Sprintf("p%g_ms", q*100)] = v
			}
		}
		out[c] = s
	}
	return out
}

// latenciesByClass groups successful requests' latencies (ms) by class,
// plus "read" for both read classes together.
func latenciesByClass(recs []*record) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range recs {
		if r.failed {
			continue
		}
		ms := float64(r.latency()) / 1e6
		out[r.class] = append(out[r.class], ms)
		if r.class != classWrite {
			out["read"] = append(out["read"], ms)
		}
	}
	return out
}
