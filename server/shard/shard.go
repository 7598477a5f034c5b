// Package shard implements pnnrouter: a stateless shard-aware routing
// tier in front of N replicated pnnserve backends.
//
// Datasets are assigned to backends with rendezvous (highest-random-
// weight) hashing over a static backend list: every router instance
// computes the same per-dataset preference order with no coordination,
// and removing one backend only moves the datasets that backend owned.
// When backends are replicas (each hosts every dataset), the hash
// order doubles as the failover order — a request that fails on the
// owning backend is retried exactly once on the next replica. With
// durable stores (pnnserve -store), datasets created through the
// router live only on their rendezvous owner: mutations are forwarded
// there (never retried elsewhere — stores are independent), reads
// prefer the same owner (read-your-writes), a failover replica's 404
// is answered as 503 no_backend rather than taken as authoritative,
// and GET /v1/datasets merges every healthy backend's listing.
//
// The router proxies the pnn/api wire types unchanged, so pnn/client
// works against a router exactly as against a single pnnserve. Single
// queries are forwarded verbatim; POST /v1/batch bodies are
// scatter-gathered — split by owning backend, fanned out concurrently
// with per-backend timeouts, and reassembled in request order.
//
// Replica health is tracked by periodic /healthz probes (mark-down
// after consecutive probe failures, mark-up on the first recovery);
// the request path additionally marks a backend down on transport
// errors so failover does not wait for the next probe. /metrics aggregates per-backend request, error, and
// latency counters.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"pnn/api"
	"pnn/internal/obs"
)

// Config tunes the router. Backends is required; every other field has
// a usable zero value (see the field docs for defaults).
type Config struct {
	// Backends are the base URLs of the replicated pnnserve instances,
	// e.g. {"http://10.0.0.1:8080", "http://10.0.0.2:8080"}. The list
	// is static for the life of the router; all routers fronting the
	// same fleet must be given the same list (order does not matter —
	// rendezvous hashing is order-independent).
	Backends []string
	// ProbeInterval is the /healthz probe period; 0 means the default
	// (2s), < 0 disables probing. Without probes the request path still
	// marks backends down (steering), but a fully marked-down
	// candidate set fails open — the full hash order is tried anyway,
	// and a successful answer marks its backend back up — so a
	// transient outage can never remove every replica permanently.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe; 0 means the default (1s).
	ProbeTimeout time.Duration
	// RequestTimeout bounds each per-backend attempt (so a request that
	// fails over spends at most twice this); 0 means the default (15s),
	// < 0 disables.
	RequestTimeout time.Duration
	// Client is the HTTP client used for proxying and probing; nil
	// means http.DefaultClient.
	Client *http.Client
	// Logger receives one structured log line per routed request
	// (trace ID, endpoint, dataset, status, duration) at
	// Debug — promoted to Warn at or beyond SlowQueryThreshold — plus
	// backend mark-down/mark-up transitions. Nil discards.
	Logger *slog.Logger
	// SlowQueryThreshold promotes the per-request log line to Warn once
	// the request takes at least this long; 0 means the default (1s),
	// < 0 disables slow-query promotion. The tracer reuses it as the
	// tail-capture threshold: every trace at least this slow is kept at
	// /debug/traces regardless of TraceSampleRate. Capture has a price:
	// a request is known to be slow only at its end, so while the
	// threshold is armed every routed request records its root and
	// stage spans (on a backend, a cache hit measured 73 allocs, 6,073 B
	// and ~22.4 µs armed against 63 allocs, 4,937 B and ~17.5 µs without
	// capture; see server.Config). < 0 turns off both the promotion and
	// the capture; TraceBuffer < 0 turns off recording altogether.
	SlowQueryThreshold time.Duration
	// TraceSampleRate is the fraction of routed requests whose spans are
	// recorded and kept at /debug/traces (0 keeps only slow traces).
	// The sampling decision is forwarded to backends in the traceparent
	// header, so a sampled routed request is traced end to end.
	TraceSampleRate float64
	// TraceBuffer is the capacity of the /debug/traces ring; 0 means
	// the default (obs.DefaultTraceBuffer), < 0 disables tracing (trace
	// IDs still mint and propagate for log and error correlation, and
	// /debug/traces serves an empty list).
	TraceBuffer int
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	switch {
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	case c.RequestTimeout == 0:
		c.RequestTimeout = 15 * time.Second
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	switch {
	case c.SlowQueryThreshold < 0:
		c.SlowQueryThreshold = 0
	case c.SlowQueryThreshold == 0:
		c.SlowQueryThreshold = time.Second
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = obs.DefaultTraceBuffer
	}
	return c
}

// Router routes requests across the backend fleet. Construct with New,
// mount Handler, and Close to stop health probing.
type Router struct {
	cfg      Config
	probing  bool // whether the probe loop runs (it alone can mark up absent traffic)
	backends []*backend
	metrics  *Metrics
	logger   *slog.Logger
	tracer   *obs.Tracer
	handler  http.Handler
	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a router over cfg.Backends and starts health probing.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: no backends configured")
	}
	rt := &Router{cfg: cfg, logger: cfg.Logger, stopc: make(chan struct{})}
	if rt.logger == nil {
		rt.logger = slog.New(slog.DiscardHandler)
	}
	seen := make(map[string]bool)
	for _, raw := range cfg.Backends {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			return nil, fmt.Errorf("shard: empty backend URL")
		}
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			base = "http://" + base
		}
		if seen[base] {
			return nil, fmt.Errorf("shard: duplicate backend %s", base)
		}
		seen[base] = true
		b := &backend{base: base}
		b.up.Store(true) // optimistic until the first probe says otherwise
		rt.backends = append(rt.backends, b)
	}
	sort.Slice(rt.backends, func(i, j int) bool { return rt.backends[i].base < rt.backends[j].base })
	rt.metrics = newMetrics(rt.backends)
	obs.RegisterRuntimeGauges(rt.metrics.reg)
	if cfg.TraceBuffer > 0 {
		rt.tracer = obs.NewTracer(cfg.TraceSampleRate, cfg.SlowQueryThreshold, cfg.TraceBuffer)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", rt.handleHealth)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/debug/obs", rt.handleDebugObs)
	mux.Handle("/debug/traces", rt.tracer)
	mux.HandleFunc("/v1/datasets", rt.handleDatasets)
	for _, op := range api.Ops {
		mux.HandleFunc(api.QueryPath(op), rt.handleQuery)
	}
	mux.HandleFunc(api.BatchPath, rt.handleBatch)
	mux.HandleFunc("PUT /v1/datasets/{name}", rt.handleWrite)
	mux.HandleFunc("DELETE /v1/datasets/{name}", rt.handleWrite)
	mux.HandleFunc("POST /v1/datasets/{name}/points", rt.handleWrite)
	mux.HandleFunc("DELETE /v1/datasets/{name}/points/{id}", rt.handleWrite)
	mux.HandleFunc("POST /v1/datasets/{name}/snapshot", rt.handleWrite)
	rt.handler = rt.instrument(mux)

	if cfg.ProbeInterval > 0 {
		rt.probing = true
		rt.wg.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

// Handler returns the root handler (health, metrics, and /v1 API).
func (rt *Router) Handler() http.Handler { return rt.handler }

// Metrics exposes the router's counters (for tests and embedding).
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Close stops health probing. In-flight proxied requests are not
// interrupted.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stopc) })
	rt.wg.Wait()
}

// Backends returns the canonical backend base URLs in sorted order.
func (rt *Router) Backends() []string {
	out := make([]string, len(rt.backends))
	for i, b := range rt.backends {
		out[i] = b.base
	}
	return out
}

// order returns the backends in rendezvous preference order for a
// dataset: each backend is scored by a hash of (backend, dataset) and
// ranked by descending score. The highest-scoring backend owns the
// dataset; the rest are its failover order. Every router computes the
// same order with no shared state, and removing a backend leaves the
// relative order of the others unchanged — only the removed backend's
// datasets move.
func (rt *Router) order(dataset string) []*backend {
	type scored struct {
		b     *backend
		score uint64
	}
	ranked := make([]scored, len(rt.backends))
	for i, b := range rt.backends {
		h := fnv.New64a()
		io.WriteString(h, b.base)
		h.Write([]byte{0})
		io.WriteString(h, dataset)
		ranked[i] = scored{b, mix64(h.Sum64())}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].b.base < ranked[j].b.base
	})
	out := make([]*backend, len(ranked))
	for i, s := range ranked {
		out[i] = s.b
	}
	return out
}

// mix64 is the murmur3 fmix64 finalizer. FNV-1a alone is unusable for
// rendezvous scores: bytes near the end of the input (the dataset
// name) only perturb the low-order bits of the sum, so comparing raw
// sums is decided by the backend prefix and one backend wins every
// dataset. The finalizer avalanches every input bit across the word,
// making the per-dataset winner effectively uniform.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// upInOrder filters an order to the backends currently marked up.
func upInOrder(order []*backend) []*backend {
	out := make([]*backend, 0, len(order))
	for _, b := range order {
		if b.up.Load() {
			out = append(out, b)
		}
	}
	return out
}

// prefsFor narrows an order to the healthy backends — failing open to
// the full order when every candidate is marked down and no probe loop
// runs. Without probes a mark-down is otherwise permanent (markUp is
// only reached by traffic), so a transient blip on every replica would
// 503 the router forever; trying the full order lets a successful
// answer mark its backend back up.
func (rt *Router) prefsFor(order []*backend) []*backend {
	prefs := upInOrder(order)
	if len(prefs) == 0 && !rt.probing {
		return order
	}
	return prefs
}

// attemptResult is one proxied backend response: the verbatim status,
// body, and the headers worth forwarding.
type attemptResult struct {
	status      int
	body        []byte
	contentType string
	cacheStatus string
}

// attempt proxies one request to one backend, recording metrics and
// marking the backend down on transport errors. retryable reports
// whether a failure may be retried on the next replica: transport
// errors and 5xx statuses are retryable (the replica is unhealthy),
// 4xx are not (the request itself is at fault and every replica would
// answer the same). auth, when non-empty, is forwarded as the
// Authorization header (the router never holds tokens of its own).
func (rt *Router) attempt(ctx context.Context, b *backend, method, pathAndQuery string, body []byte, auth string) (res attemptResult, retryable bool, err error) {
	caller := ctx // distinguishes a client abandoning us from a backend timing out
	if rt.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.RequestTimeout)
		defer cancel()
	}
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+pathAndQuery, rdr)
	if err != nil {
		return res, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	// Forward the traceparent — minted at the proxy span, so the
	// backend joins the router's trace (inheriting its sampling
	// decision), its span tree nests under this very attempt, and its
	// log lines and error bodies carry the router's trace ID
	// (scatter-gathered sub-batches included — they share the
	// envelope's ctx).
	span := obs.LeafSpan(ctx, "proxy")
	span.SetAttr("backend", b.base)
	defer span.End()
	if tp := obs.TraceParentAt(ctx, span); tp != "" {
		req.Header.Set(api.TraceParentHeader, tp)
	}
	start := time.Now()
	rt.metrics.backendRequests.Inc(b.base)
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.metrics.backendErrors.Inc(b.base)
		// Don't wait for the next probe: the replica is unreachable
		// right now, so steer subsequent requests away immediately.
		// Unless the failure is the caller's own cancellation — a
		// client that hung up is not evidence against the backend.
		if caller.Err() == nil {
			rt.markDown(b)
		}
		return res, true, fmt.Errorf("backend %s: %w", b.base, err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	rt.metrics.backendLatency.With(b.base).ObserveDuration(time.Since(start))
	if err != nil {
		rt.metrics.backendErrors.Inc(b.base)
		if caller.Err() == nil {
			rt.markDown(b)
		}
		return res, true, fmt.Errorf("backend %s: reading response: %w", b.base, err)
	}
	if resp.StatusCode >= 500 {
		rt.metrics.backendErrors.Inc(b.base)
		return res, true, fmt.Errorf("backend %s: status %d", b.base, resp.StatusCode)
	}
	// A definitive answer proves the backend is reachable; mark it back
	// up (a no-op when already up). This is the recovery path when
	// probing is disabled — see prefsFor.
	rt.markUp(b)
	return attemptResult{
		status:      resp.StatusCode,
		body:        buf,
		contentType: resp.Header.Get("Content-Type"),
		cacheStatus: resp.Header.Get(api.CacheHeader),
	}, false, nil
}

// proxyOrdered tries the request on each backend of prefs in turn —
// at most two attempts (owner plus one failover) — and returns the
// first verbatim answer plus the attempt index it came from (0 = the
// preferred backend, usually the dataset's owner).
func (rt *Router) proxyOrdered(ctx context.Context, prefs []*backend, method, pathAndQuery string, body []byte) (attemptResult, *backend, int, error) {
	const maxAttempts = 2
	var lastErr error
	for i, b := range prefs {
		if i >= maxAttempts {
			break
		}
		if i > 0 {
			rt.metrics.failovers.Inc()
		}
		res, retryable, err := rt.attempt(ctx, b, method, pathAndQuery, body, "")
		if err == nil {
			return res, b, i, nil
		}
		lastErr = err
		if !retryable || ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no healthy backend")
	}
	return attemptResult{}, nil, 0, lastErr
}

// handleQuery routes one single-query endpoint: rendezvous-order the
// replicas by the dataset parameter, forward verbatim, fail over once.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		rt.writeError(w, r, http.StatusMethodNotAllowed, api.CodeBadRequest,
			fmt.Errorf("%s requires GET", r.URL.Path))
		return
	}
	dataset := r.URL.Query().Get("dataset")
	order := rt.order(dataset)
	prefs := rt.prefsFor(order)
	if len(prefs) == 0 {
		rt.writeError(w, r, http.StatusServiceUnavailable, api.CodeNoBackend,
			fmt.Errorf("no healthy backend for dataset %q", dataset))
		return
	}
	pathAndQuery := r.URL.Path
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	res, b, _, err := rt.proxyOrdered(r.Context(), prefs, r.Method, pathAndQuery, nil)
	if err != nil {
		rt.writeError(w, r, http.StatusBadGateway, api.CodeBackendError, err)
		return
	}
	if b != order[0] && isUnknownDataset(res) {
		// A non-owner's 404 is not authoritative: with durable stores a
		// dataset may live only on its true rendezvous owner, so claiming
		// unknown_dataset here would turn an owner outage into a hard
		// "does not exist". The check is against the head of the
		// unfiltered order — whether the non-owner answered as a failover
		// (attempt 1) or as prefs[0] because the owner was already marked
		// down, the situation is the same. Answer 503 and let the client
		// retry once the owner is back.
		rt.writeError(w, r, http.StatusServiceUnavailable, api.CodeNoBackend,
			fmt.Errorf("dataset %q unknown to a non-owner replica and its owner is unavailable", dataset))
		return
	}
	rt.writeProxied(w, res, b)
}

// isUnknownDataset reports whether a proxied answer is a 404 carrying
// the unknown_dataset code.
func isUnknownDataset(res attemptResult) bool {
	if res.status != http.StatusNotFound {
		return false
	}
	var e api.Error
	return json.Unmarshal(res.body, &e) == nil && e.Code == api.CodeUnknownDataset
}

// handleWrite forwards one mutation to the dataset's rendezvous owner
// — the same replica the dataset's reads prefer, so a client that
// writes through the router reads its own writes on the very next
// query. The owner is the head of the unfiltered rendezvous order,
// never a health-filtered substitute: writes are never redirected to
// (or retried on) another replica, because replicas own independent
// stores and a mutation landing elsewhere would diverge the fleet and
// vanish the moment the owner recovers and reads prefer it again. A
// marked-down owner answers 503 no_backend (the probe loop will mark
// it back up); without probes the router fails open to the owner
// itself — the attempt is the only way it can be marked up again — and
// a still-dead owner answers 502. The Authorization header is
// forwarded verbatim (the backends, not the router, hold the admin
// token).
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	dataset := r.PathValue("name")
	owner := rt.order(dataset)[0]
	if !owner.up.Load() && rt.probing {
		rt.writeError(w, r, http.StatusServiceUnavailable, api.CodeNoBackend,
			fmt.Errorf("owner %s of dataset %q is unavailable; writes are not redirected", owner.base, dataset))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxMutationBytes))
	if err != nil {
		rt.writeError(w, r, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("reading mutation body: %w", err))
		return
	}
	if len(body) == 0 {
		body = nil
	}
	res, _, err := rt.attempt(r.Context(), owner, r.Method, r.URL.Path, body, r.Header.Get("Authorization"))
	if err != nil {
		rt.writeError(w, r, http.StatusBadGateway, api.CodeBackendError, err)
		return
	}
	rt.writeProxied(w, res, owner)
}

// handleDatasets merges the dataset listings of every healthy backend.
// A single replica's view is no longer complete: with durable stores a
// dataset lives only on its rendezvous owner, so the routed listing
// fans out and merges by name — replicated datasets (same name on
// every backend) collapse to the entry with the highest version, and
// single-owner datasets appear exactly once. The merged listing stays
// name-sorted and carries the per-dataset versions, preserving the
// staleness-detection contract of the single-node endpoint.
func (rt *Router) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		rt.writeError(w, r, http.StatusMethodNotAllowed, api.CodeBadRequest,
			fmt.Errorf("%s requires GET", r.URL.Path))
		return
	}
	prefs := rt.prefsFor(rt.backends)
	if len(prefs) == 0 {
		rt.writeError(w, r, http.StatusServiceUnavailable, api.CodeNoBackend,
			fmt.Errorf("no healthy backend"))
		return
	}
	type reply struct {
		infos []api.DatasetInfo
		err   error
	}
	replies := make([]reply, len(prefs))
	var wg sync.WaitGroup
	for i, b := range prefs {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			res, _, err := rt.attempt(r.Context(), b, http.MethodGet, "/v1/datasets", nil, "")
			if err != nil {
				replies[i].err = err
				return
			}
			if res.status != http.StatusOK {
				replies[i].err = fmt.Errorf("backend %s: status %d", b.base, res.status)
				return
			}
			replies[i].err = json.Unmarshal(res.body, &replies[i].infos)
		}(i, b)
	}
	wg.Wait()
	merged := make(map[string]api.DatasetInfo)
	answered := false
	var lastErr error
	for _, rep := range replies {
		if rep.err != nil {
			lastErr = rep.err
			continue
		}
		answered = true
		for _, in := range rep.infos {
			if cur, ok := merged[in.Name]; !ok || in.Version > cur.Version {
				merged[in.Name] = in
			}
		}
	}
	if !answered {
		rt.writeError(w, r, http.StatusBadGateway, api.CodeBackendError, lastErr)
		return
	}
	out := make([]api.DatasetInfo, 0, len(merged))
	for _, in := range merged {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	rt.writeJSON(w, http.StatusOK, out)
}

// handleHealth reports the router's own health: "ok" when every
// backend is up, "degraded" when some are, 503 "down" when none are.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	up := len(upInOrder(rt.backends))
	h := api.RouterHealth{
		Status:        "ok",
		BackendsUp:    up,
		BackendsTotal: len(rt.backends),
	}
	status := http.StatusOK
	switch {
	case up == 0:
		h.Status = "down"
		status = http.StatusServiceUnavailable
	case up < len(rt.backends):
		h.Status = "degraded"
	}
	rt.writeJSON(w, status, h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, rt.metrics.render())
}

func (rt *Router) writeProxied(w http.ResponseWriter, res attemptResult, b *backend) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.cacheStatus != "" {
		w.Header().Set(api.CacheHeader, res.cacheStatus)
	}
	w.Header().Set(api.BackendHeader, b.base)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		rt.writeError(w, nil, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// writeError answers one router-originated error, counted by wire code
// and stamped with the trace ID from r's context, also in the
// deprecated RequestID alias (r may be nil on paths with no request in
// hand).
func (rt *Router) writeError(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	rt.metrics.errors.Inc(code)
	var traceID string
	if r != nil {
		traceID = obs.TraceID(r.Context())
	}
	body, _ := json.Marshal(api.Error{Error: err.Error(), Code: code, RequestID: traceID, TraceID: traceID})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
