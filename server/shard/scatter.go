package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"pnn/api"
	"pnn/internal/obs"
)

// handleBatch scatter-gathers POST /v1/batch: the mixed-dataset batch
// is split by targeted backend, sub-batches fan out concurrently (each
// under the per-backend timeout), and per-item results are reassembled
// in request order. A failed sub-batch is re-scattered exactly once
// over each dataset's next healthy replica in hash order; items that
// still cannot be answered come back as per-item api errors, never as
// a whole-batch failure.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	breq, status, err := api.DecodeBatchRequest(w, r)
	if err != nil {
		rt.writeError(w, r, status, api.CodeBadRequest, err)
		return
	}
	rt.metrics.batches.Inc()
	rt.metrics.batchItems.Add(uint64(len(breq.Items)))
	results := make([]api.BatchResult, len(breq.Items))
	idxs := make([]int, len(breq.Items))
	for i := range idxs {
		idxs[i] = i
	}
	rt.scatter(r.Context(), breq.Items, idxs, nil, 1, results)
	rt.writeJSON(w, http.StatusOK, api.BatchResponse{Results: results})
}

// scatter answers items[i] for every i in idxs, writing into
// results[i]. Items are grouped by targeted backend — the first
// healthy, non-excluded backend in each dataset's rendezvous order,
// which is the true owner whenever it is up — and each
// group is posted as one sub-batch, concurrently. When a sub-batch
// fails retryably on attempt 1, its items are re-scattered with the
// failed backend excluded, which lands every dataset on its next
// replica in hash order (the single-retry failover). results is only
// ever written at disjoint positions, so concurrent goroutines need no
// lock.
func (rt *Router) scatter(ctx context.Context, items []api.BatchItem, idxs []int, exclude map[*backend]bool, attempt int, results []api.BatchResult) {
	groups := make(map[*backend][]int)
	targets := make(map[string]*backend) // dataset → targeted backend, memoized per call
	for _, i := range idxs {
		ds := items[i].Dataset
		target, memoized := targets[ds]
		if !memoized {
			order := rt.order(ds)
			for _, b := range order {
				if b.up.Load() && !exclude[b] {
					target = b
					break
				}
			}
			if target == nil && !rt.probing {
				// Fail open, exactly as prefsFor does for single
				// queries: without probes a fully marked-down order
				// must still be tried so it can recover.
				for _, b := range order {
					if !exclude[b] {
						target = b
						break
					}
				}
			}
			targets[ds] = target
		}
		if target == nil {
			results[i] = rt.itemError(ctx, api.CodeNoBackend,
				fmt.Sprintf("no healthy backend for dataset %q", ds))
			continue
		}
		groups[target] = append(groups[target], i)
	}
	var wg sync.WaitGroup
	for target, group := range groups {
		wg.Add(1)
		go func(target *backend, group []int) {
			defer wg.Done()
			rt.sendSubBatch(ctx, target, items, group, exclude, attempt, results)
		}(target, group)
	}
	wg.Wait()
}

// sendSubBatch posts one targeted backend's items as a sub-batch and
// places the per-item results; on retryable failure it either
// re-scatters (first attempt) or records per-item errors (second).
func (rt *Router) sendSubBatch(ctx context.Context, target *backend, items []api.BatchItem, group []int, exclude map[*backend]bool, attempt int, results []api.BatchResult) {
	sub := api.BatchRequest{Items: make([]api.BatchItem, len(group))}
	for j, i := range group {
		sub.Items[j] = items[i]
	}
	body, err := json.Marshal(sub)
	if err != nil { // unreachable for these types; defensive
		rt.fillError(ctx, results, group, api.CodeInternal, err.Error())
		return
	}
	rt.metrics.subBatches.Inc()
	res, retryable, err := rt.attempt(ctx, target, http.MethodPost, api.BatchPath, body, "")
	if err != nil {
		if retryable && attempt < 2 && ctx.Err() == nil {
			rt.metrics.failovers.Inc()
			next := make(map[*backend]bool, len(exclude)+1)
			for b := range exclude {
				next[b] = true
			}
			next[target] = true
			rt.scatter(ctx, items, group, next, attempt+1, results)
			return
		}
		rt.fillError(ctx, results, group, api.CodeBackendError, err.Error())
		return
	}
	if res.status != http.StatusOK {
		// The backend rejected the whole sub-batch (malformed envelope
		// cannot happen for a router-built one, so this is unexpected);
		// surface its error body per item rather than retrying.
		var apiErr api.Error
		msg := fmt.Sprintf("backend %s: status %d", target.base, res.status)
		if json.Unmarshal(res.body, &apiErr) == nil && apiErr.Error != "" {
			msg = fmt.Sprintf("backend %s: %s", target.base, apiErr.Error)
		}
		rt.fillError(ctx, results, group, api.CodeBackendError, msg)
		return
	}
	var bresp api.BatchResponse
	if err := json.Unmarshal(res.body, &bresp); err != nil || len(bresp.Results) != len(group) {
		if err == nil {
			err = fmt.Errorf("got %d results for %d items", len(bresp.Results), len(group))
		}
		rt.fillError(ctx, results, group, api.CodeBackendError,
			fmt.Sprintf("backend %s: invalid batch response: %v", target.base, err))
		return
	}
	isOwner := make(map[string]bool) // dataset → did its true owner answer this sub-batch
	for j, i := range group {
		results[i] = bresp.Results[j]
		if results[i].Error == nil || results[i].Error.Code != api.CodeUnknownDataset {
			continue
		}
		ds := items[i].Dataset
		own, memoized := isOwner[ds]
		if !memoized {
			own = rt.order(ds)[0] == target
			isOwner[ds] = own
		}
		if !own {
			// A non-owner's unknown_dataset is not authoritative: with
			// durable stores the dataset may live only on its true
			// rendezvous owner, which this sub-batch skipped — whether by
			// failover exclusion or because the owner was already marked
			// down when scatter picked the group's backend. Report the
			// owner outage, not a hard "does not exist" (mirrors
			// handleQuery's single-query rule).
			results[i] = rt.itemError(ctx,
				api.CodeNoBackend,
				fmt.Sprintf("dataset %q unknown to a non-owner replica and its owner is unavailable", ds))
		}
	}
}

// itemError shapes one router-minted per-item error, counting it by
// code (backend-minted item errors are counted by the backend) and
// stamping the batch envelope's trace ID, also in the deprecated
// RequestID alias.
func (rt *Router) itemError(ctx context.Context, code, msg string) api.BatchResult {
	rt.metrics.errors.Inc(code)
	id := obs.TraceID(ctx)
	return api.BatchResult{Error: &api.Error{Error: msg, Code: code, RequestID: id, TraceID: id}}
}

// fillError records one error on every item of a group.
func (rt *Router) fillError(ctx context.Context, results []api.BatchResult, group []int, code, msg string) {
	for _, i := range group {
		results[i] = rt.itemError(ctx, code, msg)
	}
}
