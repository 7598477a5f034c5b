package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pnn/api"
	"pnn/internal/obs"
)

// Params selects the engine configuration a query runs against,
// mirroring the server's query parameters. The zero value means the
// server defaults: the near-linear NN≠0 index and the exact quantifier.
type Params struct {
	// Backend is "index", "direct", or "diagram".
	Backend string
	// Method is "exact", "spiral", "mc", or "mcbudget".
	Method string
	// Eps and Delta parameterize spiral and Monte Carlo quantifiers.
	Eps, Delta float64
	// Rounds is the explicit budget for "mcbudget".
	Rounds int
	// Seed seeds randomized quantifiers.
	Seed int64
}

func (p *Params) apply(v url.Values) {
	if p == nil {
		return
	}
	if p.Backend != "" {
		v.Set("backend", p.Backend)
	}
	if p.Method != "" {
		v.Set("method", p.Method)
	}
	if p.Eps != 0 {
		v.Set("eps", strconv.FormatFloat(p.Eps, 'g', -1, 64))
	}
	if p.Delta != 0 {
		v.Set("delta", strconv.FormatFloat(p.Delta, 'g', -1, 64))
	}
	if p.Rounds != 0 {
		v.Set("rounds", strconv.Itoa(p.Rounds))
	}
	if p.Seed != 0 {
		v.Set("seed", strconv.FormatInt(p.Seed, 10))
	}
}

// APIError is a non-2xx server reply. Code is the stable api error
// code (see the api.Code* constants); empty when talking to servers
// predating error codes.
type APIError struct {
	// StatusCode is the HTTP status of the reply.
	StatusCode int
	// Code is the machine-readable api error code, if any.
	Code string
	// Message is the human-readable error message.
	Message string
	// TraceID is the distributed trace the failed request ran under —
	// quote it when filing a report: it matches the request's log lines
	// on every tier it touched, and /debug/traces?id=<TraceID> on the
	// tier that answered (and, for routed requests, on the backends it
	// touched) serves its spans. Empty when talking to servers predating
	// span tracing.
	TraceID string
}

// Error renders the status, code, message, and trace ID.
func (e *APIError) Error() string {
	var b strings.Builder
	b.WriteString("pnnserve: ")
	b.WriteString(strconv.Itoa(e.StatusCode))
	if e.Code != "" {
		fmt.Fprintf(&b, " (%s)", e.Code)
	}
	b.WriteString(": ")
	b.WriteString(e.Message)
	if e.TraceID != "" {
		fmt.Fprintf(&b, " [trace %s]", e.TraceID)
	}
	return b.String()
}

// Client talks to one pnnserve or pnnrouter instance — or, when built
// with NewMulti, to a list of equivalent instances with client-side
// failover. All methods are safe for concurrent use.
type Client struct {
	bases []string
	// preferred is the index into bases of the endpoint that answered
	// last; failover rotates it so every request first tries the most
	// recently healthy endpoint.
	preferred atomic.Int64
	http      *http.Client
	// adminToken, when set, is sent as a bearer token on the mutation
	// methods.
	adminToken string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithAdminToken sets the bearer token the mutation methods
// (CreateDataset, DropDataset, InsertPoints, DeletePoint, Snapshot)
// authenticate with. Query methods never send it.
func WithAdminToken(token string) Option {
	return func(c *Client) { c.adminToken = token }
}

// WithMaxConns raises the connection-reuse ceiling to n concurrent
// requests per endpoint. The default transport keeps only 2 idle
// connections per host, so a client issuing hundreds of concurrent
// requests (a load generator, a busy proxy) churns through fresh TCP
// handshakes and measures connection setup instead of the server —
// this knob sizes the idle pool to the intended concurrency. It
// derives a fresh transport from the client's current one (or the
// default), so apply it after WithHTTPClient, never before.
func WithMaxConns(n int) Option {
	return func(c *Client) {
		if n < 1 {
			return
		}
		base := http.DefaultTransport.(*http.Transport)
		if t, ok := c.http.Transport.(*http.Transport); ok {
			base = t
		}
		t := base.Clone()
		t.MaxIdleConns = 2 * n
		t.MaxIdleConnsPerHost = n
		// Copy the http.Client so shared defaults (http.DefaultClient)
		// are never mutated underneath other users.
		cp := *c.http
		cp.Transport = t
		c.http = &cp
	}
}

// WithTimeout bounds every request end to end (connection, send,
// response body). Zero means no client-side bound. Like WithMaxConns
// it copies the underlying http.Client rather than mutating a shared
// one.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) {
		cp := *c.http
		cp.Timeout = d
		c.http = &cp
	}
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{bases: []string{strings.TrimRight(baseURL, "/")}, http: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// NewMulti builds a client over several equivalent endpoints (for
// example two pnnrouter instances fronting the same fleet). Each
// request is sent to the preferred endpoint first; if it is
// unreachable or answers 5xx, the remaining endpoints are tried in
// rotation and the one that answers becomes preferred. Non-5xx API
// errors (404 unknown dataset, 400 bad request, …) never fail over —
// every equivalent endpoint would answer the same.
func NewMulti(baseURLs []string, opts ...Option) (*Client, error) {
	if len(baseURLs) == 0 {
		return nil, fmt.Errorf("client: no endpoints")
	}
	c := &Client{http: http.DefaultClient}
	for _, u := range baseURLs {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("client: empty endpoint URL")
		}
		c.bases = append(c.bases, u)
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Endpoints returns the configured base URLs.
func (c *Client) Endpoints() []string {
	out := make([]string, len(c.bases))
	copy(out, c.bases)
	return out
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var out api.Health
	if err := c.get(ctx, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Datasets lists the hosted datasets.
func (c *Client) Datasets(ctx context.Context) ([]api.DatasetInfo, error) {
	var out []api.DatasetInfo
	if err := c.get(ctx, "/v1/datasets", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Nonzero returns NN≠0(q) on the named dataset.
func (c *Client) Nonzero(ctx context.Context, dataset string, x, y float64, p *Params) (*api.Nonzero, error) {
	var out api.Nonzero
	if err := c.get(ctx, "/v1/nonzero", queryValues(dataset, x, y, p), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Probabilities returns the quantification-probability vector π(q).
func (c *Client) Probabilities(ctx context.Context, dataset string, x, y float64, p *Params) (*api.Probabilities, error) {
	var out api.Probabilities
	if err := c.get(ctx, "/v1/probabilities", queryValues(dataset, x, y, p), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopK returns the k most probable nearest neighbors of q.
func (c *Client) TopK(ctx context.Context, dataset string, x, y float64, k int, p *Params) (*api.TopK, error) {
	v := queryValues(dataset, x, y, p)
	v.Set("k", strconv.Itoa(k))
	var out api.TopK
	if err := c.get(ctx, "/v1/topk", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Threshold classifies points against the probability threshold tau.
func (c *Client) Threshold(ctx context.Context, dataset string, x, y, tau float64, p *Params) (*api.Threshold, error) {
	v := queryValues(dataset, x, y, p)
	v.Set("tau", strconv.FormatFloat(tau, 'g', -1, 64))
	var out api.Threshold
	if err := c.get(ctx, "/v1/threshold", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ExpectedNN returns the expected-distance nearest neighbor of q.
func (c *Client) ExpectedNN(ctx context.Context, dataset string, x, y float64, p *Params) (*api.ExpectedNN, error) {
	var out api.ExpectedNN
	if err := c.get(ctx, "/v1/expectednn", queryValues(dataset, x, y, p), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func queryValues(dataset string, x, y float64, p *Params) url.Values {
	v := url.Values{}
	v.Set("dataset", dataset)
	v.Set("x", strconv.FormatFloat(x, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(y, 'g', -1, 64))
	p.apply(v)
	return v
}

// Batch answers a heterogeneous batch — items may span datasets,
// operations, and engine configurations — in one POST /v1/batch round
// trip. Results come back in item order; per-item failures are
// reported in BatchResult.Error without failing the call (decode
// successful items with BatchResult.Decode). Against a pnnrouter the
// batch is scatter-gathered across the owning backends transparently.
func (c *Client) Batch(ctx context.Context, items []api.BatchItem) ([]api.BatchResult, error) {
	body, err := json.Marshal(api.BatchRequest{Items: items})
	if err != nil {
		return nil, err
	}
	var out api.BatchResponse
	if err := c.do(ctx, http.MethodPost, api.BatchPath, nil, body, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(items) {
		return nil, fmt.Errorf("pnnserve: batch returned %d results for %d items", len(out.Results), len(items))
	}
	return out.Results, nil
}

// CreateDataset creates (idempotently) an empty durable dataset of the
// given kind ("disks" or "discrete") on the server's store. Requires
// WithAdminToken.
func (c *Client) CreateDataset(ctx context.Context, name, kind string) (*api.Mutation, error) {
	body, err := json.Marshal(api.CreateDataset{Kind: kind})
	if err != nil {
		return nil, err
	}
	var out api.Mutation
	if err := c.doAdmin(ctx, http.MethodPut, api.DatasetPath(name), body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DropDataset removes a durable dataset and all its points. Like the
// other mutation calls it returns the server's acknowledgment (the ack
// of a drop reports version 0 — the dataset no longer has one).
func (c *Client) DropDataset(ctx context.Context, name string) (*api.Mutation, error) {
	var out api.Mutation
	if err := c.doAdmin(ctx, http.MethodDelete, api.DatasetPath(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// InsertPoints appends points to a durable dataset; the returned
// Mutation carries the stable ids assigned, in input order. By the
// time it returns, the write is fsynced server-side.
func (c *Client) InsertPoints(ctx context.Context, name string, pts api.InsertPoints) (*api.Mutation, error) {
	body, err := json.Marshal(pts)
	if err != nil {
		return nil, err
	}
	var out api.Mutation
	if err := c.doAdmin(ctx, http.MethodPost, api.PointsPath(name), body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeletePoint removes one point by its stable id.
func (c *Client) DeletePoint(ctx context.Context, name string, id uint64) (*api.Mutation, error) {
	var out api.Mutation
	if err := c.doAdmin(ctx, http.MethodDelete, api.PointPath(name, id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot folds the server store's write-ahead log into a fresh
// snapshot (compaction).
func (c *Client) Snapshot(ctx context.Context, name string) (*api.Mutation, error) {
	var out api.Mutation
	if err := c.doAdmin(ctx, http.MethodPost, api.SnapshotPath(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// doAdmin performs one mutation against the preferred endpoint only —
// mutations never fail over: retrying a non-idempotent write on
// another replica could apply it twice (or to a diverged store).
func (c *Client) doAdmin(ctx context.Context, method, path string, body []byte, out any) error {
	ep := int(c.preferred.Load()) % len(c.bases)
	return c.doOne(ctx, c.bases[ep], method, path, nil, body, out, true)
}

func (c *Client) get(ctx context.Context, path string, v url.Values, out any) error {
	return c.do(ctx, http.MethodGet, path, v, nil, out)
}

// retryBackoff bounds the jittered pause before do's single retry
// pass: long enough for an engine-swap or store hiccup to clear, short
// enough that an interactive caller barely notices.
const retryBackoff = 25 * time.Millisecond

// do performs one request with endpoint failover: starting from the
// preferred endpoint, each endpoint is tried in rotation until one
// answers with a non-5xx status. The answering endpoint becomes
// preferred. 2xx bodies decode into out; other statuses become
// *APIError.
//
// When a full pass over the endpoints ends on a retryable 503
// ("unavailable": engine-generation churn under a write burst, a store
// briefly poisoned mid-failover), the pass is repeated once after a
// short jittered backoff. do serves only idempotent reads — queries,
// batch queries, listings — so the retry can never double-apply
// anything; mutations go through doAdmin, which never retries.
func (c *Client) do(ctx context.Context, method, path string, v url.Values, reqBody []byte, out any) error {
	err := c.doPass(ctx, method, path, v, reqBody, out)
	if !retryableUnavailable(err) || ctx.Err() != nil {
		return err
	}
	// Half-to-full jitter decorrelates a thundering herd of callers all
	// bounced by the same transient.
	pause := retryBackoff/2 + time.Duration(rand.Int63n(int64(retryBackoff/2)))
	select {
	case <-time.After(pause):
	case <-ctx.Done():
		return err
	}
	return c.doPass(ctx, method, path, v, reqBody, out)
}

// doPass tries every endpoint once, in rotation from the preferred one.
func (c *Client) doPass(ctx context.Context, method, path string, v url.Values, reqBody []byte, out any) error {
	start := int(c.preferred.Load()) % len(c.bases)
	var lastErr error
	for i := 0; i < len(c.bases); i++ {
		ep := (start + i) % len(c.bases)
		err := c.doOne(ctx, c.bases[ep], method, path, v, reqBody, out, false)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode < http.StatusInternalServerError {
			// The endpoint is healthy; the request itself failed. Every
			// equivalent endpoint would answer the same, so don't retry.
			c.preferred.Store(int64(ep))
			return err
		}
		if err == nil {
			c.preferred.Store(int64(ep))
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return lastErr
}

// retryableUnavailable reports whether err is the server saying "try
// again": a 503 carrying the stable "unavailable" code. Other 5xx
// replies (internal bugs) and transport errors are not retried — the
// endpoint rotation already covered connection-level failover.
func retryableUnavailable(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) &&
		apiErr.StatusCode == http.StatusServiceUnavailable &&
		apiErr.Code == api.CodeUnavailable
}

// doOne performs one request against one endpoint. admin marks the
// mutation paths: only they carry the admin bearer token — query
// methods (Batch included) never ship the credential.
func (c *Client) doOne(ctx context.Context, base, method, path string, v url.Values, reqBody []byte, out any, admin bool) error {
	u := base + path
	if len(v) > 0 {
		u += "?" + v.Encode()
	}
	var rdr io.Reader
	if reqBody != nil {
		rdr = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rdr)
	if err != nil {
		return err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Join the caller's distributed trace, if ctx carries one (a caller
	// that wants its requests traced mints the IDs with obs.StartTrace).
	// The server echoes the final traceparent on the response either way.
	if tp := obs.TraceParent(ctx); tp != "" {
		req.Header.Set(api.TraceParentHeader, tp)
	}
	if admin && c.adminToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.adminToken)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		// Prefer the error body's trace ID; fall back to the response's
		// traceparent, which survives even when the body is not an
		// api.Error (e.g. TimeoutHandler's plaintext 503 — the middleware
		// stamped the header before the handler ran).
		var traceID string
		if tid, _, ok := obs.ParseTraceParent(resp.Header.Get(api.TraceParentHeader)); ok {
			traceID = tid
		}
		var apiErr api.Error
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			if apiErr.TraceID != "" {
				traceID = apiErr.TraceID
			}
			return &APIError{StatusCode: resp.StatusCode, Code: apiErr.Code, Message: apiErr.Error, TraceID: traceID}
		}
		return &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(body)), TraceID: traceID}
	}
	return json.Unmarshal(body, out)
}
