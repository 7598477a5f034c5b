package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pnn"
	"pnn/server/engine"
)

func testIndex(t *testing.T, n int) *pnn.Index {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	pts := make([]pnn.DiscretePoint, n)
	for i := range pts {
		cx, cy := r.Float64()*50, r.Float64()*50
		k := 2 + r.Intn(3)
		locs := make([]pnn.Point, k)
		for t := range locs {
			locs[t] = pnn.Pt(cx+r.Float64()*4-2, cy+r.Float64()*4-2)
		}
		pts[i] = pnn.DiscretePoint{Locations: locs}
	}
	set, err := pnn.NewDiscreteSet(pts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pnn.New(set)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// gatedEngine wraps an engine so each QueryBatchOps call blocks until
// the test releases it: a test can park a batch mid-execution and
// queue requests deterministically behind it. Tests defer open after
// Close, so a failing test never leaves Close waiting on the gate.
type gatedEngine struct {
	engine.Engine
	// entered receives each call as it starts. Its buffer exceeds any
	// test's call count, so a call never blocks on reporting itself to
	// a test that does not read every entry.
	entered chan gatedCall
	// release lets one blocked call, whichever, proceed per receive;
	// open closes it, opening the gate for good.
	release chan struct{}
	opened  sync.Once
}

// gatedCall is one blocked QueryBatchOps call: its requests, and a
// channel whose close lets this call alone proceed.
type gatedCall struct {
	reqs    []pnn.Request
	release chan struct{}
}

func newGatedEngine(e engine.Engine) *gatedEngine {
	return &gatedEngine{Engine: e, entered: make(chan gatedCall, 1024), release: make(chan struct{})}
}

func (g *gatedEngine) QueryBatchOps(ctx context.Context, reqs []pnn.Request, workers int) ([]pnn.OpResult, error) {
	c := gatedCall{reqs: slices.Clone(reqs), release: make(chan struct{})}
	g.entered <- c
	select {
	case <-c.release:
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Engine.QueryBatchOps(ctx, reqs, workers)
}

// waitCall blocks until the next gated call starts and returns it.
func (g *gatedEngine) waitCall(t *testing.T) gatedCall {
	t.Helper()
	select {
	case c := <-g.entered:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no engine call started within 5s")
		return gatedCall{}
	}
}

// waitEntered blocks until the next gated call starts and returns its
// requests.
func (g *gatedEngine) waitEntered(t *testing.T) []pnn.Request {
	t.Helper()
	return g.waitCall(t).reqs
}

// open releases every blocked and future call. It is idempotent.
func (g *gatedEngine) open() { g.opened.Do(func() { close(g.release) }) }

// waitDepth polls until b holds exactly n queued requests.
func waitDepth(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Depth() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", b.Depth(), n)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// waitRunning polls until b's running batches hold exactly n requests.
func waitRunning(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		running := b.running
		b.mu.Unlock()
		if running == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("running %d, want %d", running, n)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

type flushLog struct {
	mu    sync.Mutex
	sizes []int
}

func (f *flushLog) record(size int) {
	f.mu.Lock()
	f.sizes = append(f.sizes, size)
	f.mu.Unlock()
}

func (f *flushLog) get() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.sizes)
}

// submitAsync submits req on its own goroutine; the returned channel
// yields the outcome.
func submitAsync(b *Batcher, req pnn.Request) <-chan error {
	done := make(chan error, 1)
	go func() {
		res, _, err := b.Submit(context.Background(), req)
		if err == nil {
			err = res.Err
		}
		done <- err
	}()
	return done
}

func nonzeroAt(x float64) pnn.Request { return pnn.Request{Q: pnn.Pt(x, 1), Op: pnn.OpNonzero} }

// TestBatcherNaturalBatching pins the batching rule on a two-core
// batcher: a request runs at once and alone while the running batches
// hold fewer requests than there are cores, and queues otherwise; a
// drain that finishes takes the queue as one batch only while a core
// is free; a request after the queue drains runs alone again.
func TestBatcherNaturalBatching(t *testing.T) {
	g := newGatedEngine(engine.NewStatic(testIndex(t, 10)))
	var fl flushLog
	b := NewBatcher(g, fl.record)
	if b.cores != runtime.GOMAXPROCS(0) {
		t.Fatalf("cores = %d, want GOMAXPROCS = %d", b.cores, runtime.GOMAXPROCS(0))
	}
	b.cores = 2
	defer b.Close()
	defer g.open()

	enter := func(what string, want int) gatedCall {
		t.Helper()
		c := g.waitCall(t)
		if len(c.reqs) != want {
			t.Fatalf("%s: batch of %d requests, want %d", what, len(c.reqs), want)
		}
		return c
	}
	a := submitAsync(b, nonzeroAt(0))
	callA := enter("A on an idle batcher", 1)
	bDone := submitAsync(b, nonzeroAt(1))
	callB := enter("B beside A (a core is free)", 1)
	queued := []<-chan error{submitAsync(b, nonzeroAt(2)), submitAsync(b, nonzeroAt(3)), submitAsync(b, nonzeroAt(4))}
	waitDepth(t, b, 3)
	close(callA.release)
	callCDE := enter("C, D and E after A (a core freed)", 3)
	queued = append(queued, submitAsync(b, nonzeroAt(5)))
	waitDepth(t, b, 1)
	close(callB.release)
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	// B's drain finds the running batch of three covering both cores
	// and leaves F queued for that batch's drain.
	waitRunning(t, b, 3)
	if d := b.Depth(); d != 1 {
		t.Fatalf("depth %d after B, want F still queued", d)
	}
	close(callCDE.release)
	close(enter("F after C, D and E", 1).release)
	for _, done := range append(queued, a) {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	g.open()
	if err := <-submitAsync(b, nonzeroAt(6)); err != nil {
		t.Fatal(err)
	}
	enter("G after the queue drained", 1)
	b.Close() // the last onFlush runs after the answer; Close waits for it
	got := fl.get()
	slices.Sort(got)
	if !slices.Equal(got, []int{1, 1, 1, 1, 3}) {
		t.Errorf("flush sizes %v, want [1 1 1 1 3] in some order", got)
	}
}

// TestBatcherRan: every request of one batch gets the same engine
// interval, which starts after the request was submitted and ends
// after it starts; a later batch's interval starts after an earlier
// one ends on a one-core batcher.
func TestBatcherRan(t *testing.T) {
	g := newGatedEngine(engine.NewStatic(testIndex(t, 10)))
	b := NewBatcher(g, nil)
	b.cores = 1
	defer b.Close()
	defer g.open()

	type outcome struct {
		submitted time.Time
		ran       Ran
		err       error
	}
	submit := func(x float64) <-chan outcome {
		done := make(chan outcome, 1)
		go func() {
			o := outcome{submitted: time.Now()}
			_, o.ran, o.err = b.Submit(context.Background(), nonzeroAt(x))
			done <- o
		}()
		return done
	}
	first := submit(0)
	g.waitCall(t)
	queued := []<-chan outcome{submit(1), submit(2), submit(3)}
	waitDepth(t, b, 3)
	g.open()
	a := <-first
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.ran.Start.Before(a.submitted) || a.ran.End.Before(a.ran.Start) {
		t.Errorf("first: submitted %v, ran %v–%v", a.submitted, a.ran.Start, a.ran.End)
	}
	var mates []Ran
	for _, done := range queued {
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.ran.Start.Before(o.submitted) || o.ran.End.Before(o.ran.Start) {
			t.Errorf("queued: submitted %v, ran %v–%v", o.submitted, o.ran.Start, o.ran.End)
		}
		mates = append(mates, o.ran)
	}
	for _, r := range mates[1:] {
		if r != mates[0] {
			t.Errorf("batchmates got different intervals: %v vs %v", r, mates[0])
		}
	}
	if mates[0].Start.Before(a.ran.End) {
		t.Errorf("second batch started %v before the first ended %v", mates[0].Start, a.ran.End)
	}
}

// TestBatcherQueuedRequestsCoalesce queues n concurrent submitters
// behind a gated request on a one-core batcher: they run as one batch,
// and every caller gets exactly the sequential answer.
func TestBatcherQueuedRequestsCoalesce(t *testing.T) {
	ix := testIndex(t, 20)
	g := newGatedEngine(engine.NewStatic(ix))
	var fl flushLog
	b := NewBatcher(g, fl.record)
	b.cores = 1
	defer b.Close()
	defer g.open()

	first := submitAsync(b, nonzeroAt(0))
	g.waitEntered(t)
	const n = 10
	r := rand.New(rand.NewSource(3))
	qs := make([]pnn.Point, n)
	for i := range qs {
		qs[i] = pnn.Pt(r.Float64()*50, r.Float64()*50)
	}
	results := make([]pnn.OpResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := b.Submit(context.Background(), pnn.Request{Q: qs[i], Op: pnn.OpProbabilities})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	waitDepth(t, b, n)
	g.open()
	wg.Wait()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	b.Close()
	if got := fl.get(); !slices.Equal(got, []int{1, n}) {
		t.Fatalf("flush sizes %v, want [1 %d]", got, n)
	}
	for i := range qs {
		want, err := ix.Probabilities(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i].Probabilities, want) {
			t.Errorf("query %d: batched answer differs from sequential", i)
		}
	}
}

// TestBatcherMaxBatchSplits queues 150 requests, one at a time, behind
// a gated request on a one-core batcher: they flush as 64, 64 and 22
// in submission order, and every answer is the sequential one.
func TestBatcherMaxBatchSplits(t *testing.T) {
	ix := testIndex(t, 20)
	g := newGatedEngine(engine.NewStatic(ix))
	var fl flushLog
	b := NewBatcher(g, fl.record)
	b.cores = 1
	defer b.Close()
	defer g.open()

	first := submitAsync(b, nonzeroAt(-1))
	g.waitEntered(t)
	const n = 150
	r := rand.New(rand.NewSource(9))
	qs := make([]pnn.Point, n)
	answers := make([]pnn.OpResult, n)
	var wg sync.WaitGroup
	for i := range qs {
		qs[i] = pnn.Pt(r.Float64()*50, r.Float64()*50)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := b.Submit(context.Background(), pnn.Request{Q: qs[i], Op: pnn.OpNonzero})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			answers[i] = res
		}(i)
		waitDepth(t, b, i+1) // fixes the arrival order
	}
	g.open()
	wg.Wait()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	b.Close()
	if got := fl.get(); !slices.Equal(got, []int{1, 64, 64, 22}) {
		t.Fatalf("flush sizes %v, want [1 64 64 22]", got)
	}
	var order []pnn.Point
	for range 3 {
		for _, req := range g.waitEntered(t) {
			order = append(order, req.Q)
		}
	}
	if !slices.Equal(order, qs) {
		t.Error("batches did not take requests in submission order")
	}
	for i := range qs {
		want, _ := ix.Nonzero(qs[i])
		if !reflect.DeepEqual(answers[i].Nonzero, want) {
			t.Errorf("query %d: wrong answer", i)
		}
	}
}

// TestBatcherCloseMidFlight closes a one-core batcher while requests
// are queued behind its running batch: Close waits for them to be answered
// (not dropped), and later submissions fail with ErrBatcherClosed.
func TestBatcherCloseMidFlight(t *testing.T) {
	g := newGatedEngine(engine.NewStatic(testIndex(t, 10)))
	var fl flushLog
	b := NewBatcher(g, fl.record)
	b.cores = 1
	defer g.open()

	const n = 5
	dones := []<-chan error{submitAsync(b, nonzeroAt(0))}
	g.waitEntered(t)
	for i := 1; i < n; i++ {
		dones = append(dones, submitAsync(b, nonzeroAt(float64(i))))
	}
	waitDepth(t, b, n-1)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	// Close marks the batcher closed at once, then waits on the drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		isClosed := b.closed
		b.mu.Unlock()
		if isClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never marked the batcher closed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, _, err := b.Submit(context.Background(), nonzeroAt(0)); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("submit during close: want ErrBatcherClosed, got %v", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned before the queued requests were answered")
	default:
	}
	g.open()
	<-closed
	for i, done := range dones {
		if err := <-done; err != nil {
			t.Errorf("request %d queued at close: %v", i, err)
		}
	}
	if got := fl.get(); !slices.Equal(got, []int{1, n - 1}) {
		t.Errorf("flush sizes %v, want [1 %d]", got, n-1)
	}
	if _, _, err := b.Submit(context.Background(), nonzeroAt(0)); !errors.Is(err, ErrBatcherClosed) {
		t.Errorf("submit after close: want ErrBatcherClosed, got %v", err)
	}
	b.Close() // idempotent
}

// TestBatcherConcurrentSubmitAndClose hammers Submit from many
// goroutines while Close races them; every Submit must either be
// answered correctly or fail with ErrBatcherClosed.
func TestBatcherConcurrentSubmitAndClose(t *testing.T) {
	ix := testIndex(t, 15)
	b := NewBatcher(ix, nil)
	const n = 80
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := pnn.Pt(float64(i%10)*5, float64(i%7)*5)
			res, _, err := b.Submit(context.Background(), pnn.Request{Q: q, Op: pnn.OpNonzero})
			if err != nil {
				if !errors.Is(err, ErrBatcherClosed) {
					t.Errorf("submit %d: %v", i, err)
				}
				return
			}
			want, _ := ix.Nonzero(q)
			if !reflect.DeepEqual(res.Nonzero, want) {
				t.Errorf("query %d: wrong answer under submit/close race", i)
			}
		}(i)
	}
	time.Sleep(time.Millisecond)
	b.Close()
	wg.Wait()
}

// TestBatcherSubmitCancelled checks both a pre-cancelled context and
// one that ends while the request waits behind a running batch: the
// submitter returns at once, and the shared batch still completes.
func TestBatcherSubmitCancelled(t *testing.T) {
	g := newGatedEngine(engine.NewStatic(testIndex(t, 10)))
	b := NewBatcher(g, nil)
	b.cores = 1
	defer b.Close()
	defer g.open()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Submit(ctx, nonzeroAt(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: want context.Canceled, got %v", err)
	}

	first := submitAsync(b, nonzeroAt(0))
	g.waitEntered(t)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel2()
	if _, _, err := b.Submit(ctx2, nonzeroAt(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled while queued: want DeadlineExceeded, got %v", err)
	}
	g.open()
	if err := <-first; err != nil {
		t.Errorf("batch answered after a batchmate gave up: %v", err)
	}
}

// TestBatcherNoLostWakeup races many submitters against drain
// goroutines exiting: a request appended between a
// drain's empty check and its exit must still run, so every Submit
// returns.
func TestBatcherNoLostWakeup(t *testing.T) {
	ix := testIndex(t, 10)
	for _, cores := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			b := NewBatcher(ix, nil)
			b.cores = cores
			defer b.Close()
			const goroutines, perG = 8, 500
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < perG; i++ {
						if r.Intn(4) == 0 {
							time.Sleep(time.Duration(r.Intn(50)) * time.Microsecond)
						}
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						_, _, err := b.Submit(ctx, nonzeroAt(float64(i%10)))
						cancel()
						if err != nil {
							t.Errorf("goroutine %d submit %d: %v (lost wakeup?)", g, i, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
