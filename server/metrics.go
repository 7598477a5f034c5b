package server

import (
	"pnn/internal/obs"
)

// Metrics holds the server's instruments, rendered at /metrics in the
// Prometheus text exposition format through the shared obs registry
// (stdlib only — no client library).
type Metrics struct {
	reg *obs.Registry

	requests    *obs.CounterVec // pnn_requests_total{endpoint=}
	errors      *obs.CounterVec // pnn_errors_total{code=}
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	batches     *obs.Counter
	batchedReqs *obs.Counter
	indexBuilds *obs.Counter
	// deltaApplied counts refreshes that folded ops into live engines in
	// place; deltaFallbacks the refreshes that found the name dropped
	// and recreated behind their back and replaced the dataset whole, by
	// what gave it away ("tail_gap": the op tail no longer reaches the
	// registry's version; "kind_change": the kind differs).
	deltaApplied   *obs.Counter    // pnn_delta_applied_total
	deltaFallbacks *obs.CounterVec // pnn_delta_fallback_total{reason=}

	// reqLatency is the per-endpoint end-to-end latency; dsLatency the
	// same by dataset (only datasets the registry resolves, so the
	// label cardinality is bounded by hosted datasets, not client
	// input); stages decomposes the answer core (cache probe, batcher
	// queue wait, engine build, engine execute, JSON encode), fed by
	// obs.Stage together with the stage spans — execute once per
	// request, the engine time of the batch that answered it;
	// batchSizes the sizes of the batches the batchers ran.
	reqLatency *obs.HistogramVec // pnn_request_duration_seconds{endpoint=}
	dsLatency  *obs.HistogramVec // pnn_dataset_duration_seconds{dataset=}
	stages     *obs.HistogramVec // pnn_stage_duration_seconds{stage=}
	batchSizes *obs.Histogram    // pnn_batch_size
	// Contention telemetry: queueWait decomposes batcher queueing per
	// dataset (the aggregate lives in stages{stage="queue"}), lockWait
	// the time mutations block on the per-dataset refresh lock, and
	// deltaApply the in-place delta fold. Labels are dataset names the
	// registry resolves, so cardinality stays bounded by hosted
	// datasets.
	queueWait  *obs.HistogramVec // pnn_queue_wait_seconds{dataset=}
	lockWait   *obs.HistogramVec // pnn_lock_wait_seconds{dataset=}
	deltaApply *obs.Histogram    // pnn_delta_apply_duration_seconds
}

func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg:            reg,
		requests:       reg.NewCounterVec("pnn_requests_total", "endpoint"),
		errors:         reg.NewCounterVec("pnn_errors_total", "code"),
		cacheHits:      reg.NewCounter("pnn_cache_hits_total"),
		cacheMisses:    reg.NewCounter("pnn_cache_misses_total"),
		batches:        reg.NewCounter("pnn_batches_total"),
		batchedReqs:    reg.NewCounter("pnn_batched_requests_total"),
		indexBuilds:    reg.NewCounter("pnn_index_builds_total"),
		deltaApplied:   reg.NewCounter("pnn_delta_applied_total"),
		deltaFallbacks: reg.NewCounterVec("pnn_delta_fallback_total", "reason"),
		reqLatency:     reg.NewHistogramVec("pnn_request_duration_seconds", "endpoint", obs.DurationBuckets),
		dsLatency:      reg.NewHistogramVec("pnn_dataset_duration_seconds", "dataset", obs.DurationBuckets),
		stages:         reg.NewHistogramVec("pnn_stage_duration_seconds", "stage", obs.DurationBuckets),
		batchSizes:     reg.NewHistogram("pnn_batch_size", obs.SizeBuckets),
		queueWait:      reg.NewHistogramVec("pnn_queue_wait_seconds", "dataset", obs.DurationBuckets),
		lockWait:       reg.NewHistogramVec("pnn_lock_wait_seconds", "dataset", obs.DurationBuckets),
		deltaApply:     reg.NewHistogram("pnn_delta_apply_duration_seconds", obs.DurationBuckets),
	}
}

// Registry exposes the underlying obs registry, so embedding servers
// can mount extra collectors onto the same /metrics page.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

func (m *Metrics) flush(size int) {
	m.batches.Inc()
	m.batchedReqs.Add(uint64(size))
	m.batchSizes.Observe(float64(size))
}

// Snapshot is a point-in-time copy of the counters, for tests and
// introspection.
type Snapshot struct {
	// CacheHits and CacheMisses count result-cache probes.
	CacheHits, CacheMisses uint64
	// Batches counts the batches the batchers ran (one engine call
	// each); BatchedReqs the requests they carried.
	Batches, BatchedReqs uint64
	// IndexBuilds counts lazily built engines; Errors the failed
	// requests (non-2xx responses and failed batch items), across all
	// codes.
	IndexBuilds, Errors uint64
	// Requests counts requests per endpoint name.
	Requests map[string]uint64
	// ErrorsByCode counts failures per stable api code.
	ErrorsByCode map[string]uint64
}

// Snapshot copies every counter.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		CacheHits:    m.cacheHits.Value(),
		CacheMisses:  m.cacheMisses.Value(),
		Batches:      m.batches.Value(),
		BatchedReqs:  m.batchedReqs.Value(),
		IndexBuilds:  m.indexBuilds.Value(),
		Errors:       m.errors.Total(),
		Requests:     m.requests.Values(),
		ErrorsByCode: m.errors.Values(),
	}
}

// render writes the full exposition page in deterministic order.
func (m *Metrics) render() string { return m.reg.Render() }
