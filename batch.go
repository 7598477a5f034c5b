package pnn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Op selects the query method of one batched Request — the facade's
// method surface as data, so callers that merge heterogeneous query
// streams (a server coalescing concurrent HTTP requests, say) can
// dispatch a mixed batch through one QueryBatchOps call.
type Op int

// Batchable query methods.
const (
	// OpNonzero answers Nonzero.
	OpNonzero Op = iota
	// OpProbabilities answers Probabilities.
	OpProbabilities
	// OpTopK answers TopK with Request.K.
	OpTopK
	// OpThreshold answers Threshold with Request.Tau.
	OpThreshold
	// OpExpectedNN answers ExpectedNN.
	OpExpectedNN
)

func (op Op) String() string {
	switch op {
	case OpNonzero:
		return "nonzero"
	case OpProbabilities:
		return "probabilities"
	case OpTopK:
		return "topk"
	case OpThreshold:
		return "threshold"
	case OpExpectedNN:
		return "expectednn"
	default:
		return "unknown"
	}
}

// Request is one query of a heterogeneous batch: a point, the method to
// answer it with, and the method's parameters.
type Request struct {
	Q  Point
	Op Op
	// K is the result count for OpTopK.
	K int
	// Tau is the probability threshold for OpThreshold.
	Tau float64
}

// OpResult is the answer to one Request. Exactly the fields of the
// request's Op are populated; Err carries a per-request failure (for
// example ErrUnsupported) without failing the rest of the batch.
type OpResult struct {
	// Nonzero is set for OpNonzero.
	Nonzero []int
	// Probabilities is set for OpProbabilities.
	Probabilities []float64
	// Ranked is set for OpTopK.
	Ranked []IndexProb
	// Threshold is set for OpThreshold.
	Threshold ThresholdResult
	// ExpectedIndex and ExpectedDist are set for OpExpectedNN.
	ExpectedIndex int
	ExpectedDist  float64
	// Err is the per-request error, nil on success.
	Err error
}

// QueryBatchOps answers a heterogeneous batch — each request names its
// own method and parameters — concurrently, returning results in input
// order. The output is identical for every worker count: requests are
// independent and every structure is read-only after construction
// (randomized quantifiers draw all randomness during New). Per-request
// failures are reported in OpResult.Err so one unsupported request never
// poisons its batchmates. workers ≤ 0 uses GOMAXPROCS. Cancellation is
// checked between requests; on cancellation partial results are
// discarded and ctx.Err() is returned.
func (ix *Index) QueryBatchOps(ctx context.Context, reqs []Request, workers int) ([]OpResult, error) {
	return queryBatchOps(ctx, ix, reqs, workers)
}

// opEngine is the query surface Index and DynamicIndex share: the
// methods behind the five batch ops.
type opEngine interface {
	Nonzero(Point) ([]int, error)
	Probabilities(Point) ([]float64, error)
	TopK(Point, int) ([]IndexProb, error)
	Threshold(Point, float64) (ThresholdResult, error)
	ExpectedNN(Point) (int, float64, error)
}

// queryBatchOps is QueryBatchOps over either engine.
func queryBatchOps(ctx context.Context, e opEngine, reqs []Request, workers int) ([]OpResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	res := make([]OpResult, len(reqs))
	runPool(ctx, len(reqs), workers, func(i int) {
		r, out := reqs[i], &res[i]
		switch r.Op {
		case OpNonzero:
			out.Nonzero, out.Err = e.Nonzero(r.Q)
		case OpProbabilities:
			out.Probabilities, out.Err = e.Probabilities(r.Q)
		case OpTopK:
			out.Ranked, out.Err = e.TopK(r.Q, r.K)
		case OpThreshold:
			out.Threshold, out.Err = e.Threshold(r.Q, r.Tau)
		case OpExpectedNN:
			out.ExpectedIndex, out.ExpectedDist, out.Err = e.ExpectedNN(r.Q)
		default:
			out.Err = fmt.Errorf("pnn: unknown batch op %d: %w", r.Op, ErrUnsupported)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// runPool fans fn(i) for i in [0, n) over a bounded worker pool,
// stopping early (with work possibly undone) once ctx is cancelled.
func runPool(ctx context.Context, n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
