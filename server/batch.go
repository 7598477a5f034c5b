package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"

	"pnn"
	"pnn/api"
	"pnn/internal/obs"
)

// handleBatch serves POST /v1/batch: a heterogeneous batch of query
// items, possibly spanning datasets and engine configurations. Items
// run through the same answer core as the single-query endpoints —
// same result cache, same lazy engines, same batchers — so each item's
// Body is byte-identical to the corresponding single-query response
// and per-item errors carry the same api codes. Items are answered
// concurrently (same-engine items that queue behind the engine's
// running batches share the next QueryBatchOps call) and results come
// back in request order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	breq, status, err := api.DecodeBatchRequest(w, r)
	if err != nil {
		s.writeError(w, r, status, api.CodeBadRequest, err)
		return
	}
	// The whole batch runs under an aggregate deadline — a small fixed
	// multiple of the per-item budget, independent of item count — so a
	// huge batch of slow items cannot hold the connection and workers
	// for (items/workers)·RequestTimeout. Items the aggregate deadline
	// cuts off still answer per item (CodeTimeout), never as a
	// whole-batch failure.
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, batchBudgetFactor*s.cfg.RequestTimeout)
		defer cancel()
	}
	results := make([]api.BatchResult, len(breq.Items))
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers > len(breq.Items) {
		workers = len(breq.Items)
	}
	idxc := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idxc {
				results[i] = s.answerItem(ctx, breq.Items[i])
			}
			done <- struct{}{}
		}()
	}
	for i := range breq.Items {
		idxc <- i
	}
	close(idxc)
	for w := 0; w < workers; w++ {
		<-done
	}
	s.writeJSON(w, http.StatusOK, api.BatchResponse{Results: results}, "")
}

// batchBudgetFactor sizes the aggregate /v1/batch deadline relative to
// the per-item RequestTimeout.
const batchBudgetFactor = 4

// answerItem resolves one batch item: validate, then the shared answer
// core. Failures become per-item api.Errors so one bad item never
// fails its batchmates.
func (s *Server) answerItem(ctx context.Context, it api.BatchItem) api.BatchResult {
	op, p, err := paramsFromItem(it)
	if err != nil {
		return s.itemError(ctx, api.CodeBadParam, err)
	}
	// Each item gets its own RequestTimeout budget (bounded by the
	// aggregate batch deadline in ctx) — /v1/batch is exempt from the
	// whole-request TimeoutHandler (see New), so a slow item times out
	// alone (a per-item CodeTimeout error) instead of the whole batch
	// collapsing into a plaintext 503.
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	body, _, qerr := s.answer(ctx, op, p)
	if qerr != nil {
		return s.itemError(ctx, qerr.code, qerr.err)
	}
	return api.BatchResult{Body: json.RawMessage(body)}
}

// itemError shapes one failed batch item, counting it in
// pnn_errors_total alongside the single-query failures (which count in
// writeError) and stamping the batch's trace ID (and its deprecated
// RequestID alias) so the item can be correlated with the server's log
// line and trace.
func (s *Server) itemError(ctx context.Context, code string, err error) api.BatchResult {
	s.metrics.errors.Inc(code)
	id := obs.TraceID(ctx)
	return api.BatchResult{Error: &api.Error{Error: err.Error(), Code: code, RequestID: id, TraceID: id}}
}

// opFromString maps a wire op name onto the facade's Op.
func opFromString(name string) (pnn.Op, error) {
	switch name {
	case "nonzero":
		return pnn.OpNonzero, nil
	case "probabilities":
		return pnn.OpProbabilities, nil
	case "topk":
		return pnn.OpTopK, nil
	case "threshold":
		return pnn.OpThreshold, nil
	case "expectednn":
		return pnn.OpExpectedNN, nil
	default:
		return 0, fmt.Errorf("unknown op %q", name)
	}
}

// paramsFromItem converts a wire batch item into validated params,
// applying the same defaults as the single-query endpoints: zero-value
// Backend/Method/Eps/Delta/Rounds/Seed/K mean "index", "exact", 0.05,
// 0.05, 1000, 1, and 3 respectively.
func paramsFromItem(it api.BatchItem) (pnn.Op, params, error) {
	op, err := opFromString(it.Op)
	if err != nil {
		return 0, params{}, err
	}
	p := params{
		dataset: it.Dataset,
		x:       it.X,
		y:       it.Y,
		key: IndexKey{
			Backend: it.Backend,
			Method:  it.Method,
			Eps:     it.Eps,
			Delta:   it.Delta,
			Rounds:  it.Rounds,
			Seed:    it.Seed,
		},
		k:   it.K,
		tau: it.Tau,
	}
	if p.dataset == "" {
		return 0, p, fmt.Errorf("missing required field dataset")
	}
	if math.IsNaN(p.x) || math.IsInf(p.x, 0) || math.IsNaN(p.y) || math.IsInf(p.y, 0) {
		return 0, p, fmt.Errorf("invalid query point (%g, %g)", p.x, p.y)
	}
	if p.key.Eps == 0 {
		p.key.Eps = 0.05
	}
	if p.key.Delta == 0 {
		p.key.Delta = 0.05
	}
	if p.key.Rounds == 0 {
		p.key.Rounds = 1000
	}
	if p.key.Seed == 0 {
		p.key.Seed = 1
	}
	if op == pnn.OpTopK && p.k == 0 {
		p.k = 3
	}
	if err := p.normalize(op); err != nil {
		return 0, p, err
	}
	return op, p, nil
}
