package server

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"time"

	"pnn"
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
	ch  chan reply
}

// reply is one request's result and the engine interval of the batch
// that produced it.
type reply struct {
	res pnn.OpResult
	ran Ran
}

// Ran is the engine interval of the batch that answered a request: the
// clock read just before its engine call and the one just after. Every
// request of one batch gets the same Ran, so a caller can time its
// queue wait (from its own Submit to Start) and the engine call it
// waited on (Start to End) without the batcher timing anything.
type Ran struct{ Start, End time.Time }

// NewBatcher builds a batcher over q (a pnn.Index, pnn.DynamicIndex,
// or engine.Engine); onFlush, when non-nil, observes each batch size.
func NewBatcher(q engine.Querier, onFlush func(size int)) *Batcher {
	return &Batcher{q: q, onFlush: onFlush, cores: runtime.GOMAXPROCS(0)}
}

// Submit enqueues one request and blocks until its batch is answered,
// ctx is cancelled, or the batcher is closed. The result is exactly
// what a sequential call of the request's method on the underlying
// pnn.Index would return (per-request failures come back in
// OpResult.Err); Ran is the engine interval of the batch that answered
// it, valid whenever the error is nil.
func (b *Batcher) Submit(ctx context.Context, req pnn.Request) (pnn.OpResult, Ran, error) {
	if err := ctx.Err(); err != nil {
		return pnn.OpResult{}, Ran{}, err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return pnn.OpResult{}, Ran{}, ErrBatcherClosed
	}
	// Buffered so a flush never blocks on a caller that gave up.
	ch := make(chan reply, 1)
	b.pending = append(b.pending, pendingReq{req: req, ch: ch})
	if b.running < b.cores {
		batch := b.takeLocked()
		b.running += len(batch)
		b.drains.Add(1)
		go b.drain(batch)
	}
	b.mu.Unlock()
	select {
	case r := <-ch:
		return r.res, r.ran, nil
	case <-ctx.Done():
		return pnn.OpResult{}, Ran{}, ctx.Err()
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

// run answers one batch and delivers per-request results, each with
// the batch's engine interval. The batch context is Background on
// purpose: a coalesced batch serves many callers, so no single
// caller's cancellation may abort it.
func (b *Batcher) run(batch []pendingReq) {
	rp := reqScratch.Get().(*[]pnn.Request)
	reqs := (*rp)[:0]
	for _, p := range batch {
		reqs = append(reqs, p.req)
	}
	ran := Ran{Start: time.Now()}
	res, err := b.q.QueryBatchOps(context.Background(), reqs, batchWorkers)
	ran.End = time.Now()
	*rp = reqs[:0]
	reqScratch.Put(rp)
	for i, p := range batch {
		r := reply{ran: ran}
		if err != nil {
			r.res.Err = err
		} else {
			r.res = res[i]
		}
		p.ch <- r
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
