package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pnn"
	"pnn/api"
	"pnn/internal/obs"
	"pnn/server/engine"
	"pnn/store"
)

// Config tunes the serving behavior. The zero value is usable:
// DefaultConfig documents the defaults applied to zero fields. Request
// batching takes no configuration (see Batcher).
type Config struct {
	// CacheSize is the LRU result-cache capacity in entries; < 0
	// disables caching, 0 means the default (4096).
	CacheSize int
	// RequestTimeout bounds each request end to end (queueing in the
	// batcher included); 0 means the default (30s), < 0 disables.
	RequestTimeout time.Duration
	// MaxEnginesPerDataset caps how many distinct (backend, quantifier)
	// engines one dataset may accumulate — engine keys include
	// client-chosen parameters, so the cap bounds memory against a
	// query loop over fresh seeds. Requests beyond the cap fail with
	// 429; 0 means the default (32), < 0 removes the cap.
	MaxEnginesPerDataset int
	// Store, when non-nil, makes the server's datasets durable and
	// mutable: the mutation endpoints (PUT/DELETE /v1/datasets/{name},
	// POST .../points, DELETE .../points/{id}, POST .../snapshot) write
	// through it, and its datasets are loaded into the registry at New.
	// Durable datasets are served by delta-applied pnn.DynamicIndex
	// engines under every backend: a write folds into live engines in
	// place, costing amortized O(log n) instead of a full rebuild per
	// engine. Under backend=diagram the engine answers NN≠0 from its
	// live view, which the first query after a write rebuilds. Without
	// a store the mutation endpoints answer 409 read_only.
	Store *store.Store
	// AdminToken guards the mutation endpoints: requests must carry
	// "Authorization: Bearer <AdminToken>". Empty means the mutation
	// endpoints are disabled (403) even with a store — the admin
	// surface is authenticated by design, never open by omission.
	AdminToken string
	// Logger receives one structured log line per request (trace ID,
	// endpoint, dataset, status, duration) at Debug — promoted to Warn
	// at or beyond SlowQueryThreshold. Nil discards.
	Logger *slog.Logger
	// SlowQueryThreshold promotes the per-request log line to Warn once
	// the request takes at least this long; 0 means the default (1s),
	// < 0 disables slow-query promotion. The tracer reuses it as the
	// tail-capture threshold: every trace at least this slow is kept in
	// the /debug/traces ring regardless of TraceSampleRate. Capture has
	// a price: a request is known to be slow only at its end, so while
	// the threshold is armed every request records its root and stage
	// spans. A cache hit measured 73 allocs, 6,073 B and ~22.4 µs armed
	// against 63 allocs, 4,937 B and ~17.5 µs without capture (an
	// in-process loop of hits on a 20-point set, 2-core host). < 0 turns
	// off both the promotion and the capture; TraceBuffer < 0 turns off
	// recording altogether.
	SlowQueryThreshold time.Duration
	// TraceSampleRate is the fraction of requests whose spans are
	// recorded and kept in the /debug/traces ring (0 keeps only slow
	// traces; 1 keeps everything). Sampled traces forward their decision
	// downstream via the traceparent header, so one decision covers the
	// whole request tree.
	TraceSampleRate float64
	// TraceBuffer is the capacity of the in-memory trace ring served at
	// /debug/traces; 0 means the default (obs.DefaultTraceBuffer),
	// < 0 disables tracing entirely (trace IDs still mint and propagate
	// for log and error correlation, and /debug/traces serves an empty
	// list).
	TraceBuffer int
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		CacheSize:            4096,
		RequestTimeout:       30 * time.Second,
		MaxEnginesPerDataset: 32,
		SlowQueryThreshold:   time.Second,
		TraceBuffer:          obs.DefaultTraceBuffer,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	switch {
	case c.CacheSize < 0:
		c.CacheSize = 0
	case c.CacheSize == 0:
		c.CacheSize = d.CacheSize
	}
	switch {
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	case c.RequestTimeout == 0:
		c.RequestTimeout = d.RequestTimeout
	}
	switch {
	case c.MaxEnginesPerDataset < 0:
		c.MaxEnginesPerDataset = 0
	case c.MaxEnginesPerDataset == 0:
		c.MaxEnginesPerDataset = d.MaxEnginesPerDataset
	}
	switch {
	case c.SlowQueryThreshold < 0:
		c.SlowQueryThreshold = 0
	case c.SlowQueryThreshold == 0:
		c.SlowQueryThreshold = d.SlowQueryThreshold
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = d.TraceBuffer
	}
	return c
}

// Server answers the pnn query surface over HTTP/JSON for every dataset
// in its registry. Construct with New, mount Handler, and Close on
// shutdown to answer every queued request.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *resultCache
	metrics *Metrics
	logger  *slog.Logger
	tracer  *obs.Tracer
	handler http.Handler
	// refreshLocks serializes refreshDataset per dataset name: the
	// read-store-then-update-registry sequence is not atomic, so
	// without it a slow refresh from an older mutation could register
	// the dataset after a concurrent drop's Remove and resurrect a
	// ghost. Entries are refcounted and reclaimed when idle (see
	// lockRefresh).
	refreshMu    sync.Mutex
	refreshLocks map[string]*refreshLock
	// closed stops new engine builds once Close has drained the
	// batchers: late uncached queries fail instead of building.
	closed atomic.Bool
}

// New builds a server over reg. Static datasets must be registered
// before New; when cfg.Store is set its datasets are registered here
// and stay mutable through the admin endpoints. Their engines are
// built from the store on each configuration's first query, so New
// itself never fails or reads a point.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		cache:        newResultCache(cfg.CacheSize),
		metrics:      newMetrics(),
		logger:       cfg.Logger,
		refreshLocks: make(map[string]*refreshLock),
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	if cfg.TraceBuffer > 0 {
		s.tracer = obs.NewTracer(cfg.TraceSampleRate, cfg.SlowQueryThreshold, cfg.TraceBuffer)
	}
	s.metrics.reg.NewGaugeFunc("pnn_datasets", func() float64 { return float64(reg.Len()) })
	obs.RegisterRuntimeGauges(s.metrics.reg)
	// Queue depth is read live from the batchers at scrape time: a
	// sustained non-zero depth under a flat execute histogram is the
	// signature of batcher backpressure, visible without a trace.
	s.metrics.reg.NewLabeledGaugeFunc("pnn_queue_depth", "dataset", func() map[string]float64 {
		out := make(map[string]float64)
		for _, name := range reg.Names() {
			if d := reg.Get(name); d != nil {
				out[name] = float64(d.QueueDepth())
			}
		}
		return out
	})
	if cfg.Store != nil {
		s.metrics.reg.Register(cfg.Store.Collectors()...)
		for _, info := range cfg.Store.Infos() {
			reg.put(cfg.Store, info)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/obs", s.handleDebugObs)
	mux.Handle("/debug/traces", s.tracer)
	mux.HandleFunc("/v1/datasets", s.handleDatasets)
	for _, name := range api.Ops {
		op, err := opFromString(name)
		if err != nil {
			panic("server: api.Ops out of sync with opFromString: " + name)
		}
		mux.HandleFunc(api.QueryPath(name), s.handleQuery(op))
	}
	mux.HandleFunc(api.BatchPath, s.handleBatch)
	mux.HandleFunc("PUT /v1/datasets/{name}", s.admin(s.handleCreateDataset))
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.admin(s.handleDropDataset))
	mux.HandleFunc("POST /v1/datasets/{name}/points", s.admin(s.handleInsertPoints))
	mux.HandleFunc("DELETE /v1/datasets/{name}/points/{id}", s.admin(s.handleDeletePoint))
	mux.HandleFunc("POST /v1/datasets/{name}/snapshot", s.admin(s.handleSnapshot))
	inner := http.Handler(mux)
	if cfg.RequestTimeout > 0 {
		// TimeoutHandler also puts the deadline on the request context,
		// so a request stuck queueing in the batcher is abandoned too.
		// /v1/batch is exempt: its timeout budget is per item under an
		// aggregate cap (see handleBatch/answerItem), so one slow item
		// fails alone with CodeTimeout while its batchmates still
		// answer, instead of the whole batch collapsing into
		// TimeoutHandler's plaintext 503.
		timed := http.TimeoutHandler(mux, cfg.RequestTimeout, "request timed out\n")
		inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == api.BatchPath {
				mux.ServeHTTP(w, r)
				return
			}
			timed.ServeHTTP(w, r)
		})
	}
	// The instrument middleware sits outside the timeout wrapper, so the
	// traceparent lands on the real ResponseWriter (TimeoutHandler drops
	// inner headers on timeout) and timed-out requests are still counted
	// and logged with their true duration.
	s.handler = s.instrument(inner)
	return s
}

// Handler returns the root handler (health, metrics, and /v1 API).
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the counters (for tests and embedding servers).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close gracefully closes every batcher: queued requests are
// answered, then further queries fail. Call after the HTTP listener
// has stopped accepting. The store, if any, stays open (its owner
// closes it).
func (s *Server) Close() {
	s.closed.Store(true)
	for _, name := range s.reg.Names() {
		if d := s.reg.Get(name); d != nil {
			d.closeBatchers()
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, api.Health{Status: "ok", Datasets: s.reg.Len()}, "")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.metrics.render())
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		s.writeError(w, r, http.StatusMethodNotAllowed, api.CodeBadRequest,
			fmt.Errorf("%s requires GET", r.URL.Path))
		return
	}
	// The listing is ordering-stable (sorted by name) and carries each
	// dataset's monotone version, so clients and routers can detect
	// staleness from two consecutive listings alone.
	infos := make([]api.DatasetInfo, 0, s.reg.Len())
	for _, name := range s.reg.Names() {
		d := s.reg.Get(name)
		if d == nil {
			continue // removed between Names and Get
		}
		n, version := d.Stats()
		infos = append(infos, api.DatasetInfo{
			Name: d.Name, Kind: d.Kind, N: n, Version: version, Indexes: d.Indexes(),
		})
	}
	s.writeJSON(w, http.StatusOK, infos, "")
}

// handleQuery serves one facade method: parse, then the shared answer
// core (cache probe → lazy index build → batcher → encode).
func (s *Server) handleQuery(op pnn.Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			s.writeError(w, r, http.StatusMethodNotAllowed, api.CodeBadRequest,
				fmt.Errorf("%s requires GET", r.URL.Path))
			return
		}
		p, err := parseParams(r, op)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, api.CodeBadParam, err)
			return
		}
		body, cacheStatus, qerr := s.answer(r.Context(), op, p)
		if qerr != nil {
			s.writeError(w, r, qerr.status, qerr.code, qerr.err)
			return
		}
		s.writeRaw(w, body, cacheStatus)
	}
}

// queryError is a request failure with its transport mapping: the HTTP
// status for single-query responses and the stable api code both paths
// report.
type queryError struct {
	status int
	code   string
	err    error
}

// answer resolves one validated query end to end: result-cache probe,
// lazy engine build, batcher, encode, cache fill. It is the shared
// core of the single-query handlers and the /v1/batch items, so
// both return byte-identical bodies and identical error codes. The
// returned body has no trailing newline (writeRaw appends one).
//
// Mutations race with queries by design: the cache key carries the
// dataset version read with the point count, so a stale cache line can
// never answer a post-write query. The engine a query picks is never
// older than that version — writes fold into it in place, or retire it
// for the next query while this one finishes on it — so an answer may
// reflect a write committed after the query began, but never loses one.
func (s *Server) answer(ctx context.Context, op pnn.Op, p params) (body []byte, cacheStatus string, qerr *queryError) {
	start := time.Now()
	ds := s.reg.Get(p.dataset)
	if ds == nil {
		return nil, "", &queryError{http.StatusNotFound, api.CodeUnknownDataset,
			fmt.Errorf("unknown dataset %q", p.dataset)}
	}
	// Per-dataset latency is observed only for names the registry
	// resolves, so the label cardinality is bounded by hosted datasets,
	// never by client-chosen strings.
	defer func() { s.metrics.dsLatency.With(p.dataset).ObserveDuration(time.Since(start)) }()
	n, version := ds.Stats()
	if n == 0 {
		return nil, "", &queryError{http.StatusConflict, api.CodeEmptyDataset,
			fmt.Errorf("dataset %q has no points yet", p.dataset)}
	}
	cacheKey := p.cacheKey(op, version)
	probe := time.Now()
	body, ok := s.cache.Get(cacheKey)
	if ok {
		obs.Stage(ctx, "cache", s.metrics.stages.With("cache"), probe, time.Now(), "cache", "hit")
		s.metrics.cacheHits.Inc()
		return body, "hit", nil
	}
	obs.Stage(ctx, "cache", s.metrics.stages.With("cache"), probe, time.Now(), "cache", "miss")
	s.metrics.cacheMisses.Inc()
	if s.closed.Load() {
		// The cache may outlive Close and keep answering hits, but
		// no new engine is ever built for a closed server.
		return nil, "", &queryError{http.StatusInternalServerError, api.CodeInternal, ErrBatcherClosed}
	}
	entry, err := ds.entry(p.key, s.cfg.MaxEnginesPerDataset, func(e *indexEntry) error {
		return s.buildEngine(ctx, e, ds, p.key)
	})
	if err != nil {
		return nil, "", failure(err)
	}
	// Queue wait runs from Submit to the start of the batch's engine
	// call; execute is that call, shared by every batchmate — the same
	// interval in each one's trace and histogram, which is the truth:
	// they all waited on it.
	queued := time.Now()
	res, ran, err := entry.batcher.Submit(ctx, p.request(op))
	if err != nil {
		return nil, "", failure(err)
	}
	wait := obs.Stage(ctx, "queue", s.metrics.stages.With("queue"), queued, ran.Start)
	s.metrics.queueWait.With(ds.Name).ObserveDuration(wait)
	obs.Stage(ctx, "execute", s.metrics.stages.With("execute"), ran.Start, ran.End)
	if res.Err != nil {
		return nil, "", failure(res.Err)
	}
	enc := time.Now()
	body, err = encode(p.response(op, ds, entry.eng, res))
	obs.Stage(ctx, "encode", s.metrics.stages.With("encode"), enc, time.Now())
	if err != nil {
		return nil, "", &queryError{http.StatusInternalServerError, api.CodeInternal, err}
	}
	s.cache.Put(cacheKey, body)
	return body, "miss", nil
}

// failure maps an engine build, batcher, or per-request error onto its
// transport status and stable api code.
func failure(err error) *queryError {
	switch {
	case errors.Is(err, ErrTooManyEngines):
		return &queryError{http.StatusTooManyRequests, api.CodeTooManyEngines, err}
	case errors.Is(err, store.ErrUnknownDataset):
		return &queryError{http.StatusNotFound, api.CodeUnknownDataset, err}
	case errors.Is(err, errBuildOutpaced):
		return &queryError{http.StatusServiceUnavailable, api.CodeUnavailable, err}
	case errors.Is(err, pnn.ErrUnsupported):
		return &queryError{http.StatusBadRequest, api.CodeUnsupported, err}
	case errors.Is(err, context.DeadlineExceeded):
		return &queryError{http.StatusGatewayTimeout, api.CodeTimeout, err}
	case errors.Is(err, context.Canceled):
		// The client went away mid-request; 499 (nginx's "client
		// closed request") keeps these out of server-timeout
		// dashboards. Nobody reads the response body.
		return &queryError{499, api.CodeCanceled, err}
	default:
		return &queryError{http.StatusInternalServerError, api.CodeInternal, err}
	}
}

// buildEngine constructs one entry's engine and batcher. A durable
// dataset builds a delta-applicable dynamic engine from its own store
// read and records the version it read in e.applied, from which
// publish catches the engine up. A read that finds the dataset dropped
// or recreated under another kind fails the build with
// store.ErrUnknownDataset. A read-only dataset builds statically from
// its immutable set.
func (s *Server) buildEngine(ctx context.Context, e *indexEntry, ds *Dataset, key IndexKey) error {
	opts, err := key.Options()
	if err != nil {
		return err
	}
	s.metrics.indexBuilds.Inc()
	// The build runs under the entry's once, so only the first request
	// for this engine pays it — and only that request's trace carries
	// the build stage.
	start := time.Now()
	defer func() {
		obs.Stage(ctx, "build", s.metrics.stages.With("build"), start, time.Now(),
			"dataset", ds.Name, "backend", key.Backend)
	}()
	if ds.st != nil {
		info, ids, pts, err := ds.st.PointsView(ds.Name)
		if err = ds.sameIncarnation(info, err); err != nil {
			return err
		}
		eng, err := engine.BuildDynamic(ids, pts, opts)
		if err != nil {
			return err
		}
		e.eng, e.applied = eng, info.Version
	} else {
		ix, err := pnn.New(ds.set, opts...)
		if err != nil {
			return err
		}
		e.eng = engine.NewStatic(ix)
	}
	e.batcher = NewBatcher(e.eng, s.metrics.flush)
	return nil
}

// params is one parsed query request.
type params struct {
	dataset string
	x, y    float64
	key     IndexKey
	k       int
	tau     float64
}

func parseParams(r *http.Request, op pnn.Op) (params, error) {
	q := r.URL.Query()
	var p params
	p.dataset = q.Get("dataset")
	if p.dataset == "" {
		return p, fmt.Errorf("missing required parameter dataset")
	}
	var err error
	if p.x, err = floatParam(q.Get("x"), "x", true, 0); err != nil {
		return p, err
	}
	if p.y, err = floatParam(q.Get("y"), "y", true, 0); err != nil {
		return p, err
	}
	p.key.Backend = q.Get("backend")
	p.key.Method = q.Get("method")
	if p.key.Eps, err = floatParam(q.Get("eps"), "eps", false, 0.05); err != nil {
		return p, err
	}
	if p.key.Delta, err = floatParam(q.Get("delta"), "delta", false, 0.05); err != nil {
		return p, err
	}
	if p.key.Rounds, err = intParam(q.Get("rounds"), "rounds", 1000); err != nil {
		return p, err
	}
	seed, err := intParam(q.Get("seed"), "seed", 1)
	if err != nil {
		return p, err
	}
	p.key.Seed = int64(seed)
	switch op {
	case pnn.OpTopK:
		if p.k, err = intParam(q.Get("k"), "k", 3); err != nil {
			return p, err
		}
	case pnn.OpThreshold:
		if p.tau, err = floatParam(q.Get("tau"), "tau", true, 0); err != nil {
			return p, err
		}
	}
	if err := p.normalize(op); err != nil {
		return p, err
	}
	return p, nil
}

// normalize validates and canonicalizes a filled params — the shared
// tail of single-query parsing and batch-item parsing, so both paths
// accept the same inputs, share engines, and share cache lines.
func (p *params) normalize(op pnn.Op) error {
	switch p.key.Backend {
	case "":
		p.key.Backend = "index"
	case "index", "direct", "diagram":
	default:
		return fmt.Errorf("parameter backend: unknown value %q", p.key.Backend)
	}
	switch p.key.Method {
	case "":
		p.key.Method = "exact"
	case "exact", "spiral", "mc", "mcbudget":
	default:
		return fmt.Errorf("parameter method: unknown value %q", p.key.Method)
	}
	// Quantifier parameters only shape the engine when the method uses
	// them; normalize the rest away so equivalent requests share one
	// index and one cache line — and range-check the ones that are
	// used, so a crafted query cannot panic an engine build (eps = 0
	// would ask Monte Carlo for infinitely many rounds).
	switch p.key.Method {
	case "exact":
		p.key.Eps, p.key.Delta, p.key.Rounds, p.key.Seed = 0, 0, 0, 1
	case "spiral":
		p.key.Delta, p.key.Rounds = 0, 0
		if p.key.Eps <= 0 || p.key.Eps >= 1 {
			return fmt.Errorf("parameter eps must be in (0, 1), got %g", p.key.Eps)
		}
	case "mc":
		p.key.Rounds = 0
		if p.key.Eps <= 0 || p.key.Eps >= 1 {
			return fmt.Errorf("parameter eps must be in (0, 1), got %g", p.key.Eps)
		}
		if p.key.Delta <= 0 || p.key.Delta >= 1 {
			return fmt.Errorf("parameter delta must be in (0, 1), got %g", p.key.Delta)
		}
	case "mcbudget":
		p.key.Eps, p.key.Delta = 0, 0
		if p.key.Rounds < 1 || p.key.Rounds > 1_000_000 {
			return fmt.Errorf("parameter rounds must be in [1, 1e6], got %d", p.key.Rounds)
		}
	}
	// k and tau only exist for their op; zero them otherwise so a stray
	// field on a batch item cannot fragment the result cache (cacheKey
	// includes both for every op).
	switch op {
	case pnn.OpTopK:
		p.tau = 0
		// The facade's TopK edge semantics pass through unchanged:
		// k == 0 answers an empty ranking, k > N clamps; only k < 0 is
		// rejected here (mirroring pnn.ErrInvalidParam) so the error
		// reaches the client as 400 bad_param instead of 500.
		if p.k < 0 {
			return fmt.Errorf("parameter k must be non-negative, got %d", p.k)
		}
	case pnn.OpThreshold:
		p.k = 0
		if math.IsNaN(p.tau) || math.IsInf(p.tau, 0) {
			return fmt.Errorf("parameter tau: invalid number %g", p.tau)
		}
	default:
		p.k, p.tau = 0, 0
	}
	return nil
}

func floatParam(s, name string, required bool, def float64) (float64, error) {
	if s == "" {
		if required {
			return 0, fmt.Errorf("missing required parameter %s", name)
		}
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %s: invalid number %q", name, s)
	}
	return v, nil
}

func intParam(s, name string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: invalid integer %q", name, s)
	}
	return v, nil
}

// cacheKey identifies the request exactly: dataset and its mutation
// version, engine, method, and the query point down to the float bit
// pattern. The version makes cache invalidation structural — a write
// bumps it, so entries cached against the old state simply can no
// longer be addressed.
func (p params) cacheKey(op pnn.Op, version uint64) string {
	return fmt.Sprintf("%s|%s@%d|%s|k=%d|tau=%x|%x,%x",
		op, p.dataset, version, p.key, p.k, math.Float64bits(p.tau),
		math.Float64bits(p.x), math.Float64bits(p.y))
}

func (p params) request(op pnn.Op) pnn.Request {
	return pnn.Request{Q: pnn.Pt(p.x, p.y), Op: op, K: p.k, Tau: p.tau}
}

// response shapes one OpResult into its wire type. Nil slices become
// empty ones so the JSON is stable ( [] rather than null ). eng is the
// engine that answered (its Len and Eps describe the answering state).
func (p params) response(op pnn.Op, ds *Dataset, eng engine.Engine, res pnn.OpResult) any {
	qp := api.Point{X: p.x, Y: p.y}
	switch op {
	case pnn.OpNonzero:
		return api.Nonzero{Dataset: ds.Name, Query: qp, N: eng.Len(),
			Indices: emptyIfNilInts(res.Nonzero)}
	case pnn.OpProbabilities:
		return api.Probabilities{Dataset: ds.Name, Query: qp, Eps: eng.Eps(),
			Probabilities: emptyIfNilFloats(res.Probabilities)}
	case pnn.OpTopK:
		out := make([]api.IndexProb, len(res.Ranked))
		for i, ip := range res.Ranked {
			out[i] = api.IndexProb{Index: ip.Index, P: ip.Prob}
		}
		return api.TopK{Dataset: ds.Name, Query: qp, K: p.k, Results: out}
	case pnn.OpThreshold:
		return api.Threshold{Dataset: ds.Name, Query: qp, Tau: p.tau,
			Certain:  emptyIfNilInts(res.Threshold.Certain),
			Possible: emptyIfNilInts(res.Threshold.Possible)}
	case pnn.OpExpectedNN:
		return api.ExpectedNN{Dataset: ds.Name, Query: qp,
			Index: res.ExpectedIndex, Distance: res.ExpectedDist}
	default:
		return nil
	}
}

func emptyIfNilInts(s []int) []int {
	if s == nil {
		return []int{}
	}
	return s
}

func emptyIfNilFloats(s []float64) []float64 {
	if s == nil {
		return []float64{}
	}
	return s
}

// writeRaw writes a pre-encoded response body (newline appended here,
// so cached, fresh, and batch-embedded bodies share one encoding).
func (s *Server) writeRaw(w http.ResponseWriter, body []byte, cacheStatus string) {
	w.Header().Set("Content-Type", "application/json")
	if cacheStatus != "" {
		w.Header().Set(api.CacheHeader, cacheStatus)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	w.Write([]byte{'\n'})
}

// jsonEnc is a pooled encode buffer: responses that are not stored in
// the result cache (health, dataset listings, batch envelopes) encode
// into reused memory instead of allocating a body per response.
// Encoder.Encode appends the same trailing newline writeRaw adds, so
// pooled and cached bodies stay byte-identical on the wire.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := new(jsonEnc)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any, cacheStatus string) {
	e := encPool.Get().(*jsonEnc)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encPool.Put(e)
		s.writeError(w, nil, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if cacheStatus != "" {
		w.Header().Set(api.CacheHeader, cacheStatus)
	}
	w.WriteHeader(status)
	w.Write(e.buf.Bytes())
	// Don't let one huge response (a multi-megabyte batch envelope, say)
	// pin peak-sized buffers in the pool forever.
	if e.buf.Cap() <= maxPooledEncBuf {
		encPool.Put(e)
	}
}

// maxPooledEncBuf caps the encode buffers kept in encPool.
const maxPooledEncBuf = 1 << 16

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	s.metrics.errors.Inc(code)
	// The trace ID travels in the request context, not the response
	// header: under TimeoutHandler the inner handlers see a fresh header
	// map, so the header set by the instrument middleware is invisible
	// here even though it does reach the client. r may be nil on paths
	// with no request in hand (writeJSON's encode-failure fallback).
	// RequestID, the deprecated alias, carries the same value.
	var traceID string
	if r != nil {
		traceID = obs.TraceID(r.Context())
	}
	body, _ := json.Marshal(api.Error{Error: err.Error(), Code: code,
		RequestID: traceID, TraceID: traceID})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
