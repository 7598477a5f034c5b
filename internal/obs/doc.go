// Package obs is the shared observability toolkit of the serving
// stack: stdlib-only metric instruments (counters, gauges, and
// log-bucketed cumulative histograms) rendered in the Prometheus text
// exposition format, a registry that keeps one /metrics page
// well-formed, and W3C-style span tracing whose trace ID is the one
// correlation ID across tiers. Stage records a finished request stage
// in its histogram and, when the trace is recorded, as a span over the
// same two clock reads, so metrics and traces decompose latency into
// the same stages.
//
// Every tier registers its instruments into one Registry: pnnserve
// mounts its own families plus the store's (WAL, snapshot, replay),
// pnnrouter mounts the routing families. Render produces the full
// exposition page; Snapshot derives human-oriented statistics
// (p50/p99/p999 per label) for /debug/obs and load harnesses.
//
// Instruments are safe for concurrent use and their hot paths are
// allocation-free: Histogram.Observe is a bucket search plus atomic
// adds (the micro-obs-observe bench row gates this), so instrumenting
// a query hot path costs nanoseconds, not allocations.
package obs
