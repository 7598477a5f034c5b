package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pnn/api"
	"pnn/internal/loadgen"
)

// Request classes: the paper's two query families cost very different
// amounts, so their latencies are never pooled into one percentile.
const (
	classLocate   = "locate"   // NN≠0 answers: nonzero, expectednn
	classQuantify = "quantify" // probability sweeps: probabilities, topk, threshold
	classWrite    = "write"    // insert, delete
)

func classOf(op string) string {
	switch op {
	case "nonzero", "expectednn":
		return classLocate
	case loadgen.OpInsert, loadgen.OpDelete:
		return classWrite
	default:
		return classQuantify
	}
}

// requestTimeout is how long after its due time a request may stay
// unanswered before it counts as failed.
const requestTimeout = 5 * time.Second

// sampleEvery keeps every n-th read body for the oracle.
const sampleEvery = 10

// call is one request of a workload's sequence.
type call struct {
	seq int
	req loadgen.Request
}

// sequence hands out a workload's deterministic request sequence, one
// call at a time, to however many senders share it.
type sequence struct {
	mu  sync.Mutex
	gen *loadgen.Gen
	n   int
}

func newSequence(spec loadgen.Spec) (*sequence, error) {
	gen, err := loadgen.NewGen(spec)
	if err != nil {
		return nil, err
	}
	return &sequence{gen: gen}, nil
}

func (s *sequence) next() call {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := call{seq: s.n, req: s.gen.Next()}
	s.n++
	return c
}

// record is one request's life, its times measured from the phase
// start: due (when the schedule wanted it sent), sent (when the
// generator dispatched it), conn (when one of the connections was free)
// and done. Latency is done − due, so a stall delays everything behind
// it on the clock.
type record struct {
	seq                   int
	class                 string
	due, sent, conn, done time.Duration
	status                int
	failed                bool
	cache                 string // X-Pnn-Cache
	backend               string // X-Pnn-Backend
	req                   loadgen.Request
	body                  []byte // sampled reads only
}

func (r *record) latency() time.Duration { return r.done - r.due }

// sender sends a workload's requests over at most two keep-alive
// connections and keeps the write log the store oracle checks.
type sender struct {
	client *http.Client
	base   string
	slots  chan struct{} // one token per connection
	seq    *sequence

	// deletes are initial point ids in seeded random order; each delete
	// takes the next, so no two deletes name the same point.
	deletes    []uint64
	nextDelete atomic.Int64

	mu       sync.Mutex
	inserted []uint64
	deleted  []uint64
}

const connections = 2

// deleteOrder is the seeded order in which deletes remove the dataset's
// initial points (the import assigns them ids 1..N).
func deleteOrder(seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed + 11))
	ids := make([]uint64, datasetN)
	for i, j := range r.Perm(datasetN) {
		ids[i] = uint64(j + 1)
	}
	return ids
}

func newSender(base string, seq *sequence, seed int64) *sender {
	return &sender{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			DisableCompression:  true,
		}},
		base:    base,
		slots:   make(chan struct{}, connections),
		seq:     seq,
		deletes: deleteOrder(seed),
	}
}

func (d *sender) close() { d.client.CloseIdleConnections() }

// httpRequest renders c as an HTTP request; a delete also returns the
// point id it names.
func (d *sender) httpRequest(ctx context.Context, c call) (*http.Request, uint64, error) {
	r := c.req
	var (
		method = http.MethodGet
		path   = queryPath(r)
		body   io.Reader
		id     uint64
	)
	switch r.Op {
	case loadgen.OpInsert:
		b, err := json.Marshal(api.InsertPoints{Disks: r.Disks, Discrete: r.Discrete})
		if err != nil {
			return nil, 0, err
		}
		method, path, body = http.MethodPost, api.PointsPath(r.Dataset), bytes.NewReader(b)
	case loadgen.OpDelete:
		i := d.nextDelete.Add(1) - 1
		if int(i) >= len(d.deletes) {
			return nil, 0, fmt.Errorf("sequence deleted every initial point")
		}
		id = d.deletes[i]
		method, path = http.MethodDelete, api.PointPath(r.Dataset, id)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, body)
	if err != nil {
		return nil, 0, err
	}
	if method != http.MethodGet {
		req.Header.Set("Authorization", "Bearer "+adminToken)
	}
	return req, id, nil
}

// queryPath is the GET path and query of a read request.
func queryPath(r loadgen.Request) string {
	q := "?dataset=" + r.Dataset +
		"&x=" + strconv.FormatFloat(r.X, 'g', -1, 64) +
		"&y=" + strconv.FormatFloat(r.Y, 'g', -1, 64)
	switch r.Op {
	case "topk":
		q += "&k=" + strconv.Itoa(r.K)
	case "threshold":
		q += "&tau=" + strconv.FormatFloat(r.Tau, 'g', -1, 64)
	}
	return api.QueryPath(r.Op) + q
}

// send issues c once it holds a connection, filling rec's conn and done
// times (relative to start) and outcome. The deadline is the request's
// due time plus requestTimeout.
func (d *sender) send(ctx context.Context, start time.Time, c call, rec *record) {
	rec.seq, rec.class, rec.req = c.seq, classOf(c.req.Op), c.req
	ctx, cancel := context.WithDeadline(ctx, start.Add(rec.due+requestTimeout))
	defer cancel()
	defer func() { rec.done = time.Since(start) }()
	select {
	case d.slots <- struct{}{}:
	case <-ctx.Done():
		rec.conn, rec.failed = time.Since(start), true
		return
	}
	defer func() { <-d.slots }()
	rec.conn = time.Since(start)
	req, id, err := d.httpRequest(ctx, c)
	if err != nil {
		rec.failed = true
		return
	}
	resp, err := d.client.Do(req)
	if err != nil {
		rec.failed = true
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.status = resp.StatusCode
	if err != nil || resp.StatusCode/100 != 2 {
		rec.failed = true
		return
	}
	rec.cache = resp.Header.Get(api.CacheHeader)
	rec.backend = resp.Header.Get(api.BackendHeader)
	switch c.req.Op {
	case loadgen.OpInsert:
		var m api.Mutation
		if err := json.Unmarshal(body, &m); err != nil || len(m.IDs) == 0 {
			rec.failed = true
			return
		}
		d.mu.Lock()
		d.inserted = append(d.inserted, m.IDs...)
		d.mu.Unlock()
	case loadgen.OpDelete:
		d.mu.Lock()
		d.deleted = append(d.deleted, id)
		d.mu.Unlock()
	default:
		if c.seq%sampleEvery == 0 {
			rec.body = body
		}
	}
}

// openLoop offers the sequence at Poisson arrivals of the given rate
// for dur, independent of how fast answers come back: a request waits
// for a free connection rather than being shed.
func (d *sender) openLoop(ctx context.Context, rate float64, dur time.Duration, seed int64) []*record {
	arrivals := rand.New(rand.NewSource(seed + 3))
	var (
		recs []*record
		wg   sync.WaitGroup
		due  time.Duration
	)
	start := time.Now()
	for {
		due += time.Duration(arrivals.ExpFloat64() / rate * float64(time.Second))
		if due > dur {
			break
		}
		if wait := time.Until(start.Add(due)); wait > 0 {
			select {
			case <-ctx.Done():
				wg.Wait()
				return recs
			case <-time.After(wait):
			}
		}
		rec := &record{due: due, sent: time.Since(start)}
		recs = append(recs, rec)
		c := d.seq.next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.send(ctx, start, c, rec)
		}()
	}
	wg.Wait()
	return recs
}

// sendAll sends every call over both connections, as fast as answers
// come back, and returns the records in call order.
func (d *sender) sendAll(ctx context.Context, calls []call) []*record {
	recs := make([]*record, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < connections; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(calls) {
					return
				}
				now := time.Since(start)
				recs[j] = &record{due: now, sent: now}
				d.send(ctx, start, calls[j], recs[j])
			}
		}()
	}
	wg.Wait()
	return recs
}
