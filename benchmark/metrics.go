package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pnn"
	"pnn/internal/datafile"
	"pnn/internal/loadgen"
)

// metricDef names one reported metric and its unit. The two tables
// below are the only place metric names are spelled: runs report
// exactly these, in this order, and BENCHMARK.json must list the same.
type metricDef struct{ name, unit string }

// endToEndDefs are what a user of the serving stack sees.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
}

// perLayerDefs are reported by a traced run, each named after the
// module whose calls it times or counts.
var perLayerDefs = []metricDef{
	{"gen.sched_lag_ms_p95", "ms"},
	{"gen.conn_wait_ms_p95", "ms"},
	{"shard.self_us_p50", "us"},
	{"server.hit_us_p50", "us"},
	{"server.miss_self_us_p50", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.batch_mean_size", "count"},
	{"server.engine_builds", "count"},
	{"server.delta_fallbacks", "count"},
	{"server.peak_rss_mb", "MB"},
	{"engine.build_ms", "ms"},
	{"engine.locate_us_p50", "us"},
	{"engine.quantify_us_p50", "us"},
	{"engine.view_rebuild_us_mean", "us"},
	{"engine.apply_us_p50", "us"},
	{"engine.rebuilt_members", "count"},
	{"store.write_us_p50", "us"},
	{"store.fsyncs_per_write", "ratio"},
}

// fill adds one value per def to res, in table order, and fails if
// values lacks a def or holds a name no def declares.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		r.order = append(r.order, d.name)
	}
	if len(values) != len(defs) {
		return fmt.Errorf("measured %d metrics, declared %d", len(values), len(defs))
	}
	return nil
}

// percentiles takes percentiles, remembering the first refusal.
type percentiles struct{ err error }

func (p *percentiles) at(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}

// endToEnd computes the end-to-end metrics of an untraced run: the
// median set-up time and the open loop's read latency.
func endToEnd(setupSec []float64, open []*record) (map[string]float64, error) {
	var p percentiles
	reads := latenciesByClass(open)["read"]
	v := map[string]float64{
		"setup_s":     median(setupSec),
		"read_p50_ms": p.at(reads, 0.5),
		"read_p90_ms": p.at(reads, 0.9),
	}
	return v, p.err
}

// liveLayers computes the per-layer metrics a traced run observes from
// outside: the generator's own lateness, cache headers, the servers'
// counter deltas over the open loop, and peak memory. It also returns
// the open loop's requests as spans.
func liveLayers(open []*record, before, after map[string]float64, rssMB float64) (map[string]float64, []span, error) {
	var p percentiles
	var lag, wait []float64
	reads, hits, writes := 0, 0, 0
	live := &spanLog{}
	at := func(d time.Duration) time.Time { return live.t0.Add(d) }
	for _, r := range open {
		lag = append(lag, ms(r.sent-r.due))
		wait = append(wait, ms(r.conn-r.sent))
		switch {
		case r.class == classWrite && !r.failed:
			writes++
		case r.class != classWrite:
			reads++
			if r.cache == "hit" {
				hits++
			}
		}
		live.add("request", r.seq, "", at(r.due), at(r.done), map[string]string{
			"op": r.req.Op, "status": fmt.Sprint(r.status), "cache": r.cache, "backend": r.backend})
		live.add("gen.sched", r.seq, "request", at(r.due), at(r.sent), nil)
		live.add("gen.conn_wait", r.seq, "request", at(r.sent), at(r.conn), nil)
		live.add("http", r.seq, "request", at(r.conn), at(r.done), nil)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	v := map[string]float64{
		"gen.sched_lag_ms_p95":   p.at(lag, 0.95),
		"gen.conn_wait_ms_p95":   p.at(wait, 0.95),
		"server.cache_hit_ratio": ratio(float64(hits), float64(reads)),
		"server.batch_mean_size": ratio(delta("pnn_batched_requests_total"), delta("pnn_batches_total")),
		"server.engine_builds":   delta("pnn_index_builds_total"),
		"server.delta_fallbacks": delta("pnn_delta_fallback_total"),
		"server.peak_rss_mb":     rssMB,
		"store.fsyncs_per_write": ratio(delta("pnn_store_wal_fsync_seconds_count"), float64(writes)),
	}
	return v, live.spans, p.err
}

// replayLayers runs the in-process replay and computes its metrics.
func replayLayers(ctx context.Context, cfg runConfig, work string, df *datafile.File, set pnn.UncertainSet, spec loadgen.Spec) (map[string]float64, []span, error) {
	var log spanLog
	rp, err := replay(ctx, work, cfg.w, cfg.seed, df, set, spec, &log)
	if err != nil {
		return nil, nil, err
	}
	var p percentiles
	v := map[string]float64{
		"shard.self_us_p50":           p.at(rp.shardSelf, 0.5),
		"server.hit_us_p50":           p.at(rp.serverHit, 0.5),
		"server.miss_self_us_p50":     p.at(rp.serverMissSelf, 0.5),
		"engine.build_ms":             rp.buildMS,
		"engine.locate_us_p50":        p.at(rp.engLocate, 0.5),
		"engine.quantify_us_p50":      p.at(rp.engQuantify, 0.5),
		"engine.view_rebuild_us_mean": mean(rp.viewExtra),
		"engine.apply_us_p50":         p.at(rp.apply, 0.5),
		"engine.rebuilt_members":      float64(rp.rebuiltMembers),
		"store.write_us_p50":          p.at(rp.storeWrite, 0.5),
	}
	return v, log.spans, p.err
}

// layerMetrics computes every per-layer metric of a traced run and
// writes all spans, live and replayed, to trace.json.
func layerMetrics(ctx context.Context, cfg runConfig, work string, open []*record, before, after map[string]float64, rssMB float64,
	df *datafile.File, set pnn.UncertainSet, spec loadgen.Spec) (map[string]float64, error) {
	v, live, err := liveLayers(open, before, after, rssMB)
	if err != nil {
		return nil, err
	}
	rv, replayed, err := replayLayers(ctx, cfg, work, df, set, spec)
	if err != nil {
		return nil, err
	}
	for k, x := range rv {
		v[k] = x
	}
	err = writeJSON(filepath.Join(cfg.out, "trace.json"), map[string][]span{"live": live, "replay": replayed})
	return v, err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
