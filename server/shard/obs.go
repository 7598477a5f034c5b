package shard

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"pnn/api"
	"pnn/internal/obs"
)

// apiEndpoint reports whether an endpoint label is client API traffic —
// what the scalar pnn_router_requests_total counts. Health checks,
// scrapes, and debug reads are machinery, not routed load.
func apiEndpoint(endpoint string) bool {
	switch endpoint {
	case "healthz", "metrics", "debug":
		return false
	}
	return true
}

// statusWriter captures the response status for the request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument is the router's edge middleware: it joins the
// distributed trace from the client's traceparent header or starts
// one, echoes the traceparent on the response before any handler
// writes, counts and times the request per endpoint, and emits one
// structured log line per request — Debug normally, Warn at or beyond
// the slow-query threshold. The trace is forwarded to every backend
// the request touches (see attempt), so its trace ID — the only
// correlation ID — names one client request across the whole fleet's
// logs, error bodies and traces.
func (rt *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := api.Endpoint(r.URL.Path)
		ctx, root := obs.StartTrace(r.Context(), rt.tracer, endpoint, r.Header.Get(api.TraceParentHeader))
		w.Header().Set(api.TraceParentHeader, obs.TraceParent(ctx))
		root.SetAttr("dataset", r.URL.Query().Get("dataset"))
		r = r.WithContext(ctx)

		if apiEndpoint(endpoint) {
			rt.metrics.requests.Inc()
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		d := time.Since(start)
		rt.metrics.reqLatency.With(endpoint).ObserveDuration(d)
		root.SetAttr("status", strconv.Itoa(sw.status))
		root.End()

		level := slog.LevelDebug
		msg := "request"
		if rt.cfg.SlowQueryThreshold > 0 && d >= rt.cfg.SlowQueryThreshold {
			level = slog.LevelWarn
			msg = "slow request"
		}
		rt.logger.Log(ctx, level, msg,
			"trace_id", obs.TraceID(ctx),
			"endpoint", endpoint,
			"dataset", r.URL.Query().Get("dataset"),
			"status", sw.status,
			"duration", d,
		)
	})
}

// handleDebugObs serves GET /debug/obs: the registry's derived
// statistics (p50/p99/p999 per histogram label) as JSON, plus a
// runtime-health block (goroutines, heap, GC pauses).
func (rt *Router) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	snap := rt.metrics.reg.Snapshot()
	rs := obs.ReadRuntimeStats()
	snap.Runtime = &rs
	rt.writeJSON(w, http.StatusOK, snap)
}
