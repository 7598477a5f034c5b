package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
)

// Point is a query location.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// IndexProb pairs an uncertain-point index with a probability.
type IndexProb struct {
	Index int     `json:"index"`
	P     float64 `json:"p"`
}

// Error is the body of every non-2xx response, and the per-item error
// of a batch result. Code is a stable machine-readable identifier
// (see the Code* constants); Error is the human-readable message.
// Servers predating error codes leave Code empty — treat that as
// CodeInternal.
type Error struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// RequestID carries the same value as TraceID, for clients built
	// when it held a separate request ID.
	//
	// Deprecated: use TraceID, the only correlation ID.
	RequestID string `json:"request_id,omitempty"`
	// TraceID echoes the request's trace ID (see TraceParentHeader), so
	// a failure in hand can be matched to the log lines of every tier
	// the request crossed and looked up at /debug/traces?id=<trace id>.
	TraceID string `json:"trace_id,omitempty"`
}

// Stable error codes carried in Error.Code. HTTP statuses tell the
// transport story (404, 429, 503, …); codes tell the semantic one, and
// survive proxying through the shard router unchanged.
const (
	// CodeBadRequest marks a structurally malformed request: wrong HTTP
	// method, an undecodable batch envelope, or a batch beyond the item
	// or byte caps.
	CodeBadRequest = "bad_request"
	// CodeBadParam marks a request whose parameters fail validation —
	// a non-finite tau, a negative k, an unknown backend or method, an
	// out-of-range eps/delta/rounds, or a missing required field. Always
	// paired with HTTP 400, on single queries and batch items alike, and
	// it survives proxying through pnnrouter unchanged (the router never
	// retries a 4xx, so every replica reports it identically).
	CodeBadParam = "bad_param"
	// CodeUnknownDataset marks a dataset name no backend hosts. Always
	// paired with HTTP 404.
	CodeUnknownDataset = "unknown_dataset"
	// CodeUnsupported marks a query the dataset kind cannot answer
	// (for example quantification over L∞ squares).
	CodeUnsupported = "unsupported"
	// CodeTooManyEngines marks a request rejected by the per-dataset
	// engine-configuration cap. Paired with HTTP 429.
	CodeTooManyEngines = "too_many_engines"
	// CodeTimeout marks a request that exceeded its server-side deadline.
	CodeTimeout = "timeout"
	// CodeCanceled marks a request abandoned by the client mid-flight.
	CodeCanceled = "canceled"
	// CodeUnauthorized marks a mutation without a valid admin token.
	// Paired with HTTP 401 (missing) or 403 (wrong).
	CodeUnauthorized = "unauthorized"
	// CodeReadOnly marks a mutation against a server running without a
	// durable store (its datasets are fixed at startup). Paired with
	// HTTP 409.
	CodeReadOnly = "read_only"
	// CodeExists marks a create of a dataset name already hosted, with
	// a conflicting kind. Paired with HTTP 409.
	CodeExists = "already_exists"
	// CodeUnknownPoint marks a delete of a point id the dataset does
	// not hold. Paired with HTTP 404.
	CodeUnknownPoint = "unknown_point"
	// CodeEmptyDataset marks a query against a dataset that exists but
	// holds no points yet. Paired with HTTP 409.
	CodeEmptyDataset = "empty_dataset"
	// CodeNoBackend is a router error: every replica that could own the
	// dataset is marked down. Paired with HTTP 503.
	CodeNoBackend = "no_backend"
	// CodeBackendError is a router error: the owning replica (and the
	// failover replica) failed to answer. Paired with HTTP 502.
	CodeBackendError = "backend_error"
	// CodeUnavailable marks a request the server cannot serve right now
	// but may serve after a retry: the durable store is closed (a dead
	// disk poisons the WAL), or a dataset is being mutated faster than
	// a lazy engine build can catch up with. Paired with HTTP 503. Distinct from CodeInternal (a bug or unexpected failure,
	// HTTP 500) and from CodeNoBackend (a router with no live replica).
	CodeUnavailable = "unavailable"
	// CodeInternal marks any other server-side failure. Paired with
	// HTTP 500.
	CodeInternal = "internal"
)

// CodeStatuses is the canonical pairing of every stable error code
// with the HTTP statuses it may ride on — the single source of truth
// the pnnvet errcode analyzer enforces at every handler site, so the
// code/status story can never drift between pnnserve and pnnrouter.
// Most codes pair with exactly one status; the two documented
// exceptions are CodeBadRequest (400 malformed body, 405 wrong method)
// and CodeUnauthorized (401 missing token, 403 wrong token).
var CodeStatuses = map[string][]int{
	CodeBadRequest:     {http.StatusBadRequest, http.StatusMethodNotAllowed},
	CodeBadParam:       {http.StatusBadRequest},
	CodeUnknownDataset: {http.StatusNotFound},
	CodeUnsupported:    {http.StatusBadRequest},
	CodeTooManyEngines: {http.StatusTooManyRequests},
	CodeTimeout:        {http.StatusGatewayTimeout},
	// 499 is nginx's "client closed request": keeps client abandonment
	// out of server-error dashboards.
	CodeCanceled:     {499},
	CodeUnauthorized: {http.StatusUnauthorized, http.StatusForbidden},
	CodeReadOnly:     {http.StatusConflict},
	CodeExists:       {http.StatusConflict},
	CodeUnknownPoint: {http.StatusNotFound},
	CodeEmptyDataset: {http.StatusConflict},
	CodeNoBackend:    {http.StatusServiceUnavailable},
	CodeBackendError: {http.StatusBadGateway},
	CodeUnavailable:  {http.StatusServiceUnavailable},
	CodeInternal:     {http.StatusInternalServerError},
}

// Nonzero is the response of GET /v1/nonzero: NN≠0(q), the indices with
// a nonzero probability of being the nearest neighbor, in increasing
// order.
type Nonzero struct {
	Dataset string `json:"dataset"`
	Query   Point  `json:"query"`
	N       int    `json:"n"`
	Indices []int  `json:"indices"`
}

// Probabilities is the response of GET /v1/probabilities: the full
// quantification-probability vector π(q). Eps is the additive accuracy
// of the configured quantifier (0 for exact engines).
type Probabilities struct {
	Dataset       string    `json:"dataset"`
	Query         Point     `json:"query"`
	Eps           float64   `json:"eps,omitempty"`
	Probabilities []float64 `json:"probabilities"`
}

// TopK is the response of GET /v1/topk: the k most probable nearest
// neighbors in decreasing probability order.
type TopK struct {
	Dataset string      `json:"dataset"`
	Query   Point       `json:"query"`
	K       int         `json:"k"`
	Results []IndexProb `json:"results"`
}

// Threshold is the response of GET /v1/threshold. Certain points
// satisfy π_i(q) ≥ tau under the quantifier's guarantee; Possible is
// the undecidable band at the engine's accuracy.
type Threshold struct {
	Dataset  string  `json:"dataset"`
	Query    Point   `json:"query"`
	Tau      float64 `json:"tau"`
	Certain  []int   `json:"certain"`
	Possible []int   `json:"possible"`
}

// ExpectedNN is the response of GET /v1/expectednn: the point
// minimizing the expected distance E[d(q, P_i)] and that minimum.
type ExpectedNN struct {
	Dataset  string  `json:"dataset"`
	Query    Point   `json:"query"`
	Index    int     `json:"index"`
	Distance float64 `json:"distance"`
}

// DatasetInfo describes one hosted dataset in GET /v1/datasets. The
// listing is ordering-stable: entries are sorted by name, so clients
// and routers can diff consecutive listings cheaply.
type DatasetInfo struct {
	Name string `json:"name"`
	// Kind is "disks", "discrete", or "squares".
	Kind string `json:"kind"`
	// N is the number of uncertain points.
	N int `json:"n"`
	// Version is the dataset's monotone mutation version: it bumps on
	// every write and keys the server's result cache, so two listings
	// with equal versions are guaranteed to answer queries identically.
	// Read-only datasets (loaded at startup) report version 1.
	Version uint64 `json:"version"`
	// Indexes is the number of distinct (backend, quantifier) engines
	// built so far for this dataset.
	Indexes int `json:"indexes"`
}

// Health is the response of GET /healthz.
type Health struct {
	Status   string `json:"status"`
	Datasets int    `json:"datasets"`
}

// RouterHealth is the response of GET /healthz on a pnnrouter: "ok"
// when every backend is up, "degraded" when only some are, and "down"
// (with HTTP 503) when none are.
type RouterHealth struct {
	Status        string `json:"status"`
	BackendsUp    int    `json:"backends_up"`
	BackendsTotal int    `json:"backends_total"`
}

// CacheHeader is the response header reporting whether the result was
// served from the result cache ("hit") or computed ("miss"). It is a
// header rather than a body field so cached bodies stay byte-identical
// to freshly computed ones.
const CacheHeader = "X-Pnn-Cache"

// BackendHeader is the response header set by pnnrouter naming the
// backend that answered a proxied request — observability only, never
// part of the cached body.
const BackendHeader = "X-Pnn-Backend"

// TraceParentHeader carries the distributed trace context end to end
// in the W3C trace-context format
// (`00-<32 hex trace id>-<16 hex span id>-<2 hex flags>`): minted at
// the first pnn tier a request reaches unless the client supplied its
// own, forwarded on every proxied hop and scatter-gather sub-request
// with the forwarder's span as the new parent, and echoed on the
// response. Its trace ID is the stack's one correlation ID: it names
// the same request in the client's error, every tier's log line, and
// /debug/traces on every tier it crossed. It is a header rather than a
// body field so cached bodies stay byte-identical across requests.
const TraceParentHeader = "Traceparent"

// BatchPath is the heterogeneous-batch endpoint, served by both
// pnnserve and pnnrouter (which scatter-gathers it across backends).
const BatchPath = "/v1/batch"

// MaxBatchItems caps the items of one POST /v1/batch request, enforced
// identically by server and router (the router only ever splits
// batches, so a batch it accepts is never rejected downstream).
const MaxBatchItems = 4096

// MaxBatchBytes caps the request body of POST /v1/batch, enforced
// identically by server and router.
const MaxBatchBytes = 16 << 20

// Ops lists the wire names of the single-query operations, in the
// order they appear in this file. Server and router both derive their
// endpoint sets from it, so a new op added here is served and routed
// without further wiring.
var Ops = []string{"nonzero", "probabilities", "topk", "threshold", "expectednn"}

// QueryPath returns the single-query endpoint path of an op wire name
// (e.g. "nonzero" → "/v1/nonzero").
func QueryPath(op string) string { return "/v1/" + op }

// Endpoint maps a request path onto a bounded endpoint label, the one
// server and router both use for metrics, logs and root spans: the op
// name for single-query paths, the section name for everything else,
// "other" for unknown paths. Labels come from the route table, never
// from raw client input, so metric cardinality cannot be inflated by
// path scans.
func Endpoint(path string) string {
	switch path {
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	case "/debug/obs", "/debug/traces":
		return "debug"
	case BatchPath:
		return "batch"
	case "/v1/datasets":
		return "datasets"
	}
	if strings.HasPrefix(path, "/v1/datasets/") {
		return "admin"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "debug"
	}
	if op, ok := strings.CutPrefix(path, "/v1/"); ok && slices.Contains(Ops, op) {
		return op
	}
	return "other"
}

// Mutation endpoints. Dataset names are path elements restricted to
// [A-Za-z0-9._-]; ids are the stable point ids assigned at insert.
//
//	PUT    /v1/datasets/{name}             create (idempotent; body CreateDataset)
//	DELETE /v1/datasets/{name}             drop
//	POST   /v1/datasets/{name}/points      insert (body InsertPoints; answers Mutation with ids)
//	DELETE /v1/datasets/{name}/points/{id} delete one point
//	POST   /v1/datasets/{name}/snapshot    fold the WAL into a fresh snapshot
//
// All of them require the server's admin bearer token (Authorization:
// Bearer <token>) and answer Mutation on success.

// DatasetPath returns the per-dataset admin path.
func DatasetPath(name string) string { return "/v1/datasets/" + name }

// PointsPath returns the point-insertion path of a dataset.
func PointsPath(name string) string { return "/v1/datasets/" + name + "/points" }

// PointPath returns the single-point path of a dataset.
func PointPath(name string, id uint64) string {
	return fmt.Sprintf("/v1/datasets/%s/points/%d", name, id)
}

// SnapshotPath returns the snapshot-trigger path of a dataset.
func SnapshotPath(name string) string { return "/v1/datasets/" + name + "/snapshot" }

// MaxMutationBytes caps the request body of the mutation endpoints,
// enforced identically by pnnserve and pnnrouter.
const MaxMutationBytes = 16 << 20

// CreateDataset is the body of PUT /v1/datasets/{name}.
type CreateDataset struct {
	// Kind is "disks" or "discrete" (durable datasets hold the two
	// pnngen kinds).
	Kind string `json:"kind"`
}

// DiskPointJSON is one continuous uncertain point on the wire.
type DiskPointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	R float64 `json:"r"`
	// Density is "uniform" (default) or "gaussian"; an insert with any
	// other value answers 400 bad_param.
	Density string  `json:"density,omitempty"`
	Sigma   float64 `json:"sigma,omitempty"`
}

// DiscretePointJSON is one discrete uncertain point on the wire.
type DiscretePointJSON struct {
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	// W are the location probabilities; empty means uniform.
	W []float64 `json:"w,omitempty"`
}

// InsertPoints is the body of POST /v1/datasets/{name}/points. Exactly
// one of Disks and Discrete must be non-empty, matching the dataset's
// kind; the insert is all-or-nothing.
type InsertPoints struct {
	Disks    []DiskPointJSON     `json:"disks,omitempty"`
	Discrete []DiscretePointJSON `json:"discrete,omitempty"`
}

// Mutation is the acknowledgment of every mutation endpoint. By the
// time a client reads it, the op is fsynced to the write-ahead log:
// it survives any crash.
type Mutation struct {
	Dataset string `json:"dataset"`
	// Version is the dataset's new monotone version (0 after a drop).
	Version uint64 `json:"version"`
	// N is the dataset's new point count.
	N int `json:"n"`
	// IDs are the stable ids assigned to inserted points, in input
	// order; deletes address these ids.
	IDs []uint64 `json:"ids,omitempty"`
}

// BatchItem is one query of a heterogeneous batch: a dataset, an
// operation, the query point, the operation's parameters, and the
// engine selection. The zero values of Backend and Method mean the
// server defaults ("index", "exact"), exactly as for the single-query
// endpoints.
type BatchItem struct {
	// Dataset names the target dataset. Items of one batch may name
	// different datasets; the router splits such batches by owning
	// backend.
	Dataset string `json:"dataset"`
	// Op is the operation: "nonzero", "probabilities", "topk",
	// "threshold", or "expectednn".
	Op string `json:"op"`
	// X and Y are the query point.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// K is the result count for "topk". Omitted (or zero — the wire
	// cannot tell them apart) means the server default of 3; a negative
	// value is rejected with bad_param. An explicit k = 0, which answers
	// an empty ranking, is only expressible on the single-query endpoint.
	K int `json:"k,omitempty"`
	// Tau is the probability threshold for "threshold".
	Tau float64 `json:"tau,omitempty"`
	// Backend selects the NN≠0 structure: "index", "direct", "diagram".
	Backend string `json:"backend,omitempty"`
	// Method selects the quantifier: "exact", "spiral", "mc", "mcbudget".
	Method string `json:"method,omitempty"`
	// Eps and Delta parameterize "spiral" and "mc".
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Rounds is the explicit budget for "mcbudget".
	Rounds int `json:"rounds,omitempty"`
	// Seed seeds randomized quantifiers.
	Seed int64 `json:"seed,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchResult is the answer to one BatchItem. Exactly one of Error and
// Body is set. Body holds the single-endpoint response object matching
// the item's Op (api.Nonzero for "nonzero", api.TopK for "topk", …)
// verbatim, so a batch item's bytes are identical to the corresponding
// single-query response body and decode with the same types.
type BatchResult struct {
	// Error is the per-item failure; one failing item never poisons its
	// batchmates.
	Error *Error `json:"error,omitempty"`
	// Body is the encoded response object on success.
	Body json.RawMessage `json:"body,omitempty"`
}

// Decode unmarshals the result body into out (a pointer to the api
// response type matching the item's Op). It fails if the item errored.
func (r BatchResult) Decode(out any) error {
	if r.Error != nil {
		return fmt.Errorf("batch item failed: %s: %s", r.Error.Code, r.Error.Error)
	}
	return json.Unmarshal(r.Body, out)
}

// BatchResponse is the body of a successful POST /v1/batch: one result
// per request item, in request order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// DecodeBatchRequest decodes and validates the body of one POST
// BatchPath request, enforcing the method, MaxBatchBytes, and
// MaxBatchItems identically on every tier — server and router share
// this one intake, so a batch accepted by the router is never rejected
// by the backend it lands on. On failure it returns the HTTP status
// the caller must answer with (405 — the Allow header is already set
// on w — or 400), always paired with CodeBadRequest.
func DecodeBatchRequest(w http.ResponseWriter, r *http.Request) (BatchRequest, int, error) {
	var breq BatchRequest
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return breq, http.StatusMethodNotAllowed, fmt.Errorf("%s requires POST", BatchPath)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBatchBytes))
	if err := dec.Decode(&breq); err != nil {
		return breq, http.StatusBadRequest, fmt.Errorf("decoding batch request: %w", err)
	}
	if len(breq.Items) > MaxBatchItems {
		return breq, http.StatusBadRequest, fmt.Errorf("batch of %d items exceeds the cap of %d", len(breq.Items), MaxBatchItems)
	}
	return breq, 0, nil
}
