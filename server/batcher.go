package server

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"time"

	"pnn"
	"pnn/internal/obs"
	"pnn/server/engine"
)

// ErrBatcherClosed is returned by Submit after Close.
var ErrBatcherClosed = errors.New("server: batcher closed")

const (
	// maxBatch caps how many queued requests one engine call answers.
	maxBatch = 64
	// batchWorkers is each batch call's worker count; QueryBatchOps
	// reads ≤ 0 as GOMAXPROCS.
	batchWorkers = 0
)

// Batcher runs single-query requests against one query engine,
// batching naturally — the group commit pattern of the store's WAL —
// without leaving cores idle. A request runs at once, alone, whenever
// the batches already running hold fewer requests than there are
// cores (GOMAXPROCS); otherwise it queues. A drain goroutine that
// finishes its batch takes the next batch of up to maxBatch queued
// requests, in arrival order, under the same rule, and exits when the
// queue is empty or the other running batches already cover the cores.
// A lone request
// never waits for company, a slow request (continuous integration,
// Monte Carlo) never leaves the other cores idle behind it, and under
// load one batch of up to maxBatch holds every core while the next one
// gathers. At most GOMAXPROCS engine calls run at once.
//
// Every query is independent, so batching never changes answers: a
// batched request returns exactly what the same engine call would
// return sequentially. The engine may mutate between batches (the
// delta write path applies ops in place); the batcher is pinned to the
// engine, not to a dataset version, and keeps draining across version
// bumps.
type Batcher struct {
	q engine.Querier
	// onFlush, when non-nil, observes the size of every answered batch.
	onFlush func(size int)
	// onQueue and onExec, when non-nil, decompose the batching latency:
	// onQueue observes each request's wait between Submit and its flush
	// starting, onExec the engine time of each flushed batch. Set via
	// SetStageObserver before the batcher serves its first Submit.
	onQueue func(time.Duration)
	onExec  func(time.Duration)

	mu      sync.Mutex
	pending []pendingReq
	// running counts the requests in the batches being answered, and
	// cores is GOMAXPROCS: a batch starts only while running < cores.
	// running changes only under mu, and a drain leaves requests pending
	// only while other batches run, so a request appended to pending is
	// always either taken by a running drain or starts one.
	running, cores int
	closed         bool
	drains         sync.WaitGroup
}

type pendingReq struct {
	req pnn.Request
	ch  chan pnn.OpResult
	// enq is the Submit time, stamped only when a queue observer is
	// wired, so unobserved batchers skip the clock read.
	enq time.Time
	// ctx is the submitter's request context, carried only so run can
	// attach stage spans to the submitter's trace; the batch itself
	// deliberately runs under Background (see run). span is the
	// in-flight queue-wait span, reused for the execute span once the
	// flush starts. Both are nil when the request is untraced.
	ctx  context.Context
	span *obs.Span
}

// NewBatcher builds a batcher over q (a pnn.Index, pnn.DynamicIndex,
// or engine.Engine); onFlush, when non-nil, observes each batch size.
func NewBatcher(q engine.Querier, onFlush func(size int)) *Batcher {
	return &Batcher{q: q, onFlush: onFlush, cores: runtime.GOMAXPROCS(0)}
}

// SetStageObserver wires latency decomposition: onQueue sees each
// request's wait between Submit and flush start, onExec each flushed
// batch's engine time. Call before the batcher serves its first Submit
// (the fields are read without a lock on the hot path).
func (b *Batcher) SetStageObserver(onQueue, onExec func(time.Duration)) {
	b.onQueue = onQueue
	b.onExec = onExec
}

// Submit enqueues one request and blocks until its batch is answered,
// ctx is cancelled, or the batcher is closed. The result is exactly
// what a sequential call of the request's method on the underlying
// pnn.Index would return (per-request failures come back in
// OpResult.Err).
func (b *Batcher) Submit(ctx context.Context, req pnn.Request) (pnn.OpResult, error) {
	if err := ctx.Err(); err != nil {
		return pnn.OpResult{}, err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return pnn.OpResult{}, ErrBatcherClosed
	}
	// Buffered so a flush never blocks on a caller that gave up.
	ch := make(chan pnn.OpResult, 1)
	pr := pendingReq{req: req, ch: ch}
	if b.onQueue != nil {
		pr.enq = time.Now()
	}
	if span := obs.LeafSpan(ctx, "queue"); span != nil {
		pr.ctx, pr.span = ctx, span
	}
	b.pending = append(b.pending, pr)
	if b.running < b.cores {
		batch := b.takeLocked()
		b.running += len(batch)
		b.drains.Add(1)
		go b.drain(batch)
	}
	b.mu.Unlock()
	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		return pnn.OpResult{}, ctx.Err()
	}
}

// Depth returns the number of requests queued behind the running
// batches — the instantaneous backpressure signal behind the
// pnn_queue_depth gauge.
func (b *Batcher) Depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// takeLocked removes the oldest maxBatch pending requests (all of them
// if fewer) and returns them as the next batch. The batch never shares
// a backing array with what stays pending, so later appends cannot
// overwrite a request in flight. Callers must hold b.mu.
func (b *Batcher) takeLocked() []pendingReq {
	batch := b.pending
	if len(batch) > maxBatch {
		b.pending = slices.Clone(batch[maxBatch:])
		return batch[:maxBatch]
	}
	b.pending = nil
	return batch
}

// drain answers batch, then takes the next queued batch while the
// other running batches leave a core free, and exits otherwise.
func (b *Batcher) drain(batch []pendingReq) {
	defer b.drains.Done()
	for {
		b.run(batch)
		b.mu.Lock()
		b.running -= len(batch)
		if len(b.pending) == 0 || b.running >= b.cores {
			b.mu.Unlock()
			return
		}
		batch = b.takeLocked()
		b.running += len(batch)
		b.mu.Unlock()
	}
}

// reqScratch pools the per-flush request slices: a steady stream of
// flushes reuses the same backing arrays instead of allocating one per
// batch. (The result slices stay per-flush — they are handed to waiting
// callers and must outlive the flush.)
var reqScratch = sync.Pool{New: func() any {
	s := make([]pnn.Request, 0, maxBatch)
	return &s
}}

// run answers one batch and delivers per-request results. The batch
// context is Background on purpose: a coalesced batch serves many
// callers, so no single caller's cancellation may abort it.
func (b *Batcher) run(batch []pendingReq) {
	rp := reqScratch.Get().(*[]pnn.Request)
	reqs := (*rp)[:0]
	for _, p := range batch {
		reqs = append(reqs, p.req)
	}
	if b.onQueue != nil {
		now := time.Now()
		for _, p := range batch {
			b.onQueue(now.Sub(p.enq))
		}
	}
	// Each traced submitter's queue-wait span ends at flush start, and
	// its execute span covers the shared engine call — the same interval
	// appears in every batchmate's trace, which is the truth: they all
	// waited on it.
	for i := range batch {
		if batch[i].span != nil {
			batch[i].span.End()
			batch[i].span = obs.LeafSpan(batch[i].ctx, "execute")
		}
	}
	start := time.Time{}
	if b.onExec != nil {
		start = time.Now()
	}
	res, err := b.q.QueryBatchOps(context.Background(), reqs, batchWorkers)
	if b.onExec != nil {
		b.onExec(time.Since(start))
	}
	for i := range batch {
		batch[i].span.End()
	}
	*rp = reqs[:0]
	reqScratch.Put(rp)
	for i, p := range batch {
		if err != nil {
			p.ch <- pnn.OpResult{Err: err}
			continue
		}
		p.ch <- res[i]
	}
	if b.onFlush != nil {
		b.onFlush(len(batch))
	}
}

// Close fails all later Submits with ErrBatcherClosed and waits for
// the drain goroutines, which answer every request already queued
// (they are answered, not dropped). It is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.drains.Wait()
}
