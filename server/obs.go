package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"pnn/api"
	"pnn/internal/obs"
)

// statusWriter captures the response status for logging and error
// accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument is the server's edge middleware: it joins the
// distributed trace from the traceparent header (a fronting router's
// or a client's) or starts one, echoes the traceparent on the response
// before any handler writes, counts and times the request per
// endpoint, and emits one structured log line per request — Debug
// normally, Warn at or beyond the slow-query threshold. The trace ID
// is the only correlation ID: the response header, the log line, and
// error bodies all carry it.
//
// It wraps OUTSIDE the timeout handler on purpose: http.TimeoutHandler
// discards headers its inner handler set once the deadline fires, so
// the traceparent must land on the real ResponseWriter first — a
// timed-out response still correlates with its log lines and its
// trace.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := api.Endpoint(r.URL.Path)
		ctx, root := obs.StartTrace(r.Context(), s.tracer, endpoint, r.Header.Get(api.TraceParentHeader))
		w.Header().Set(api.TraceParentHeader, obs.TraceParent(ctx))
		root.SetAttr("dataset", r.URL.Query().Get("dataset"))
		r = r.WithContext(ctx)

		s.metrics.requests.Inc(endpoint)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		d := time.Since(start)
		s.metrics.reqLatency.With(endpoint).ObserveDuration(d)
		root.SetAttr("status", strconv.Itoa(sw.status))
		root.End()

		level := slog.LevelDebug
		msg := "request"
		if s.cfg.SlowQueryThreshold > 0 && d >= s.cfg.SlowQueryThreshold {
			level = slog.LevelWarn
			msg = "slow request"
		}
		s.logger.Log(ctx, level, msg,
			"trace_id", obs.TraceID(ctx),
			"endpoint", endpoint,
			"dataset", r.URL.Query().Get("dataset"),
			"status", sw.status,
			"duration", d,
		)
	})
}

// handleDebugObs serves GET /debug/obs: the registry's derived
// statistics (p50/p99/p999 per histogram label) as JSON, for humans
// and load harnesses that want latency numbers without a Prometheus
// stack, plus a runtime-health block (goroutines, heap, GC pauses).
func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.reg.Snapshot()
	rs := obs.ReadRuntimeStats()
	snap.Runtime = &rs
	s.writeJSON(w, http.StatusOK, snap, "")
}
