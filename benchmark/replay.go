package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"pnn"
	"pnn/api"
	"pnn/internal/datafile"
	"pnn/internal/loadgen"
	"pnn/server"
	"pnn/server/engine"
	"pnn/server/shard"
	"pnn/store"
)

// Replay sizes: the workload's first replayRequests requests, then a
// fixed probe of writeProbe writes so the store and apply layers are
// timed on every workload, read-only ones included.
const (
	replayRequests = 60
	writeProbe     = 64
)

// span is one timed call into a layer. Spans of one request share Req,
// the request's sequence number; Parent names the enclosing span.
type span struct {
	Name   string            `json:"name"`
	Req    int               `json:"req"`
	Parent string            `json:"parent,omitempty"`
	Start  float64           `json:"start_us"`
	End    float64           `json:"end_us"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) us() float64 { return s.End - s.Start }

// spanLog keeps spans in memory, with times in µs since t0.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, req int, parent string, start, end time.Time, attrs map[string]string) span {
	s := span{Name: name, Req: req, Parent: parent, Attrs: attrs,
		Start: float64(start.Sub(l.t0).Nanoseconds()) / 1e3, End: float64(end.Sub(l.t0).Nanoseconds()) / 1e3}
	l.spans = append(l.spans, s)
	return s
}

// timed runs fn and records it as a span.
func (l *spanLog) timed(name string, req int, parent string, fn func() error) (span, error) {
	start := time.Now()
	err := fn()
	return l.add(name, req, parent, start, time.Now(), nil), err
}

// timedHandler wraps the backend server's handler so the replay knows
// how long the server itself took inside a routed request.
type timedHandler struct {
	h          http.Handler
	mu         sync.Mutex
	start, end time.Time
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	t.mu.Lock()
	t.start, t.end = start, end
	t.mu.Unlock()
}

func (t *timedHandler) last() (time.Time, time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.start, t.end
}

// replayStack is the in-process copy of every layer a workload's
// requests cross, built from public constructors: router → server →
// engine for reads, and store → engine.Apply for writes.
type replayStack struct {
	router  http.Handler
	rt      *shard.Router
	backend *timedHandler
	ts      *httptest.Server
	srv     *server.Server
	// reads answers the workload's reads in process: the static engine
	// of a read-only dataset, or writes' dynamic engine for a durable one.
	reads engine.Engine
	// wst and wdyn take every replayed write: the store write, then the
	// op folded into the dynamic engine.
	wst     *store.Store
	wdyn    *engine.Dynamic
	applied uint64
	stores  []*store.Store
	buildMS float64
}

// importStore creates a store in dir holding the dataset, as pnnserve
// does on first start.
func importStore(dir string, df *datafile.File) (*store.Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	pts := make([]store.Point, len(df.Discrete))
	for i := range df.Discrete {
		pts[i] = store.Point{Discrete: &df.Discrete[i]}
	}
	ctx := context.Background()
	if _, err := st.CreateDataset(ctx, datasetName, store.KindDiscrete); err != nil {
		st.Close()
		return nil, err
	}
	if _, err := st.InsertPoints(ctx, datasetName, pts); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

func newReplayStack(work string, w workload, df *datafile.File, set pnn.UncertainSet) (*replayStack, error) {
	s := &replayStack{}
	opts, err := defaultKey.Options()
	if err != nil {
		return nil, err
	}
	if s.wst, err = importStore(filepath.Join(work, "replay-writes"), df); err != nil {
		return nil, err
	}
	s.stores = append(s.stores, s.wst)
	info, ids, pts, err := s.wst.PointsView(datasetName)
	if err != nil {
		s.close()
		return nil, err
	}
	s.applied = info.Version
	begin := time.Now()
	if s.wdyn, err = engine.BuildDynamic(ids, pts, opts); err != nil {
		s.close()
		return nil, err
	}
	cfg := server.Config{}
	reg := server.NewRegistry()
	if w.durable {
		s.buildMS = float64(time.Since(begin).Nanoseconds()) / 1e6
		s.reads = s.wdyn
		bst, err := importStore(filepath.Join(work, "replay-server"), df)
		if err != nil {
			s.close()
			return nil, err
		}
		s.stores = append(s.stores, bst)
		cfg.Store, cfg.AdminToken = bst, adminToken
	} else {
		begin = time.Now()
		ix, err := pnn.New(set, opts...)
		if err != nil {
			s.close()
			return nil, err
		}
		s.reads = engine.NewStatic(ix)
		s.buildMS = float64(time.Since(begin).Nanoseconds()) / 1e6
		if err := reg.Add(datasetName, set); err != nil {
			s.close()
			return nil, err
		}
	}
	s.srv = server.New(reg, cfg)
	s.backend = &timedHandler{h: s.srv.Handler()}
	s.ts = httptest.NewServer(s.backend)
	if s.rt, err = shard.New(shard.Config{Backends: []string{s.ts.URL}}); err != nil {
		s.close()
		return nil, err
	}
	s.router = s.rt.Handler()
	return s, nil
}

func (s *replayStack) close() {
	if s.rt != nil {
		s.rt.Close()
	}
	if s.ts != nil {
		s.ts.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, st := range s.stores {
		st.Close()
	}
}

// replayRequest renders a replayed call for a handler; deleteID names
// the point a delete removes.
func replayRequest(r loadgen.Request, deleteID uint64) (*http.Request, error) {
	var req *http.Request
	switch r.Op {
	case loadgen.OpInsert:
		body, err := json.Marshal(api.InsertPoints{Discrete: r.Discrete})
		if err != nil {
			return nil, err
		}
		req = httptest.NewRequest(http.MethodPost, api.PointsPath(r.Dataset), bytes.NewReader(body))
	case loadgen.OpDelete:
		req = httptest.NewRequest(http.MethodDelete, api.PointPath(r.Dataset, deleteID), nil)
	default:
		return httptest.NewRequest(http.MethodGet, queryPath(r), nil), nil
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	return req, nil
}

// pnnRequest is the engine-level form of a read.
func pnnRequest(r loadgen.Request) pnn.Request {
	ops := map[string]pnn.Op{"nonzero": pnn.OpNonzero, "probabilities": pnn.OpProbabilities,
		"topk": pnn.OpTopK, "threshold": pnn.OpThreshold, "expectednn": pnn.OpExpectedNN}
	return pnn.Request{Q: pnn.Pt(r.X, r.Y), Op: ops[r.Op], K: r.K, Tau: r.Tau}
}

// replaySamples are the per-layer times (µs) the replay measured.
type replaySamples struct {
	shardSelf, serverHit, serverMissSelf []float64
	engLocate, engQuantify, viewExtra    []float64
	apply, storeWrite                    []float64
	rebuiltMembers                       uint64
	buildMS                              float64
}

// replay runs the workload's first replayRequests requests and then the
// write probe, one at a time, through an in-process stack, timing each
// layer call as a span.
func replay(ctx context.Context, work string, w workload, seed int64, df *datafile.File, set pnn.UncertainSet, spec loadgen.Spec, log *spanLog) (*replaySamples, error) {
	s, err := newReplayStack(work, w, df, set)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := &replaySamples{buildMS: s.buildMS}

	calls, err := replayCalls(spec, seed)
	if err != nil {
		return nil, err
	}
	warm, err := warmCalls(spec)
	if err != nil {
		return nil, err
	}
	deletes := deleteOrder(seed)
	step := func(c call, out *replaySamples) error {
		var id uint64
		if c.req.Op == loadgen.OpDelete {
			id, deletes = deletes[0], deletes[1:]
		}
		if classOf(c.req.Op) == classWrite {
			// A read-only server has no write path: there the writes
			// reach only the store and engine layers.
			if w.durable {
				if _, _, err := s.route(c, id, out, log); err != nil {
					return err
				}
			}
			return s.write(c, id, out, log)
		}
		cache, serverUS, err := s.route(c, id, out, log)
		if err != nil || out == nil {
			return err
		}
		firstUS, err := s.engineRead(ctx, c, out, log)
		if err == nil && cache != "hit" {
			out.serverMissSelf = append(out.serverMissSelf, serverUS-firstUS)
		}
		return err
	}
	for _, c := range warm {
		if err := step(c, nil); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	baseRebuilt := s.wdyn.Cost().RebuiltMembers
	log.t0 = time.Now()
	for _, c := range calls {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := step(c, out); err != nil {
			return nil, err
		}
	}
	out.rebuiltMembers = s.wdyn.Cost().RebuiltMembers - baseRebuilt
	return out, nil
}

// replayCalls is the workload's first replayRequests requests followed
// by the write probe, numbered consecutively.
func replayCalls(spec loadgen.Spec, seed int64) ([]call, error) {
	seq, err := newSequence(spec)
	if err != nil {
		return nil, err
	}
	calls := make([]call, 0, replayRequests+writeProbe)
	for i := 0; i < replayRequests; i++ {
		calls = append(calls, seq.next())
	}
	probe := spec
	probe.Seed = seed + 202
	if probe.Mix, err = loadgen.ParseMix("insert=1,delete=1"); err != nil {
		return nil, err
	}
	gen, err := loadgen.NewGen(probe)
	if err != nil {
		return nil, err
	}
	for i := 0; i < writeProbe; i++ {
		calls = append(calls, call{seq: replayRequests + i, req: gen.Next()})
	}
	return calls, nil
}

// route sends c through the router, recording the router span, the
// server span inside it and their difference (the router's self time),
// and returns the server's cache header and time. A read the server
// answered from its engine is then sent to the server alone, which now
// answers from its result cache. With out nil nothing is recorded.
func (s *replayStack) route(c call, deleteID uint64, out *replaySamples, log *spanLog) (string, float64, error) {
	req, err := replayRequest(c.req, deleteID)
	if err != nil {
		return "", 0, err
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	s.router.ServeHTTP(rec, req)
	end := time.Now()
	if rec.Code/100 != 2 {
		return "", 0, fmt.Errorf("replay %s: status %d: %s", c.req.Op, rec.Code, rec.Body.String())
	}
	if out == nil {
		return "", 0, nil
	}
	bStart, bEnd := s.backend.last()
	cache := rec.Header().Get(api.CacheHeader)
	rs := log.add("shard", c.seq, "", start, end, map[string]string{"op": c.req.Op})
	bs := log.add("server", c.seq, "shard", bStart, bEnd, map[string]string{"cache": cache})
	out.shardSelf = append(out.shardSelf, rs.us()-bs.us())
	if classOf(c.req.Op) == classWrite || cache == "hit" {
		if cache == "hit" {
			out.serverHit = append(out.serverHit, bs.us())
		}
		return cache, bs.us(), nil
	}
	if req, err = replayRequest(c.req, 0); err != nil {
		return "", 0, err
	}
	hStart := time.Now()
	s.backend.h.ServeHTTP(httptest.NewRecorder(), req)
	hs := log.add("server", c.seq, "", hStart, time.Now(), map[string]string{"cache": "hit"})
	out.serverHit = append(out.serverHit, hs.us())
	return cache, bs.us(), nil
}

// engineRead times the read on the in-process engine: first as the
// server would run it on a miss, then an immediate repeat (their
// difference is what the first call paid for a lazy view rebuild), then
// one locate and one warm quantify at the same point. It returns the
// first call's time in µs.
func (s *replayStack) engineRead(ctx context.Context, c call, out *replaySamples, log *spanLog) (float64, error) {
	query := func(r pnn.Request) func() error {
		return func() error {
			res, err := s.reads.QueryBatchOps(ctx, []pnn.Request{r}, 1)
			if err == nil && res[0].Err != nil {
				err = res[0].Err
			}
			return err
		}
	}
	own := pnnRequest(c.req)
	first, err := log.timed("engine.first", c.seq, "", query(own))
	if err != nil {
		return 0, err
	}
	repeat, err := log.timed("engine.repeat", c.seq, "", query(own))
	if err != nil {
		return 0, err
	}
	out.viewExtra = append(out.viewExtra, first.us()-repeat.us())
	loc, err := log.timed("engine.locate", c.seq, "", query(pnn.Request{Q: own.Q, Op: pnn.OpNonzero}))
	if err != nil {
		return 0, err
	}
	out.engLocate = append(out.engLocate, loc.us())
	quantify := pnn.Request{Q: own.Q, Op: pnn.OpTopK, K: topK}
	if err := query(quantify)(); err != nil {
		return 0, err
	}
	q, err := log.timed("engine.quantify", c.seq, "", query(quantify))
	if err != nil {
		return 0, err
	}
	out.engQuantify = append(out.engQuantify, q.us())
	return first.us(), nil
}

// write applies one replayed write to the write stack: the store
// commit (WAL append and fsync), then the committed op folded into the
// dynamic engine.
func (s *replayStack) write(c call, deleteID uint64, out *replaySamples, log *spanLog) error {
	ctx := context.Background()
	commit := func() error {
		if c.req.Op == loadgen.OpDelete {
			_, err := s.wst.DeletePoint(ctx, datasetName, deleteID)
			return err
		}
		pts := make([]store.Point, len(c.req.Discrete))
		for i, p := range c.req.Discrete {
			pts[i] = store.Point{Discrete: &datafile.DiscreteJSON{X: p.X, Y: p.Y, W: p.W}}
		}
		_, err := s.wst.InsertPoints(ctx, datasetName, pts)
		return err
	}
	apply := func() error {
		info, ops, ok, err := s.wst.OpsSince(datasetName, s.applied)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("replay: store history no longer reaches version %d", s.applied)
		}
		if err := s.wdyn.Apply(ops); err != nil {
			return err
		}
		s.applied = info.Version
		return nil
	}
	if out == nil {
		if err := commit(); err != nil {
			return err
		}
		return apply()
	}
	st, err := log.timed("store.write", c.seq, "", commit)
	if err != nil {
		return err
	}
	ap, err := log.timed("engine.apply", c.seq, "", apply)
	if err != nil {
		return err
	}
	out.storeWrite = append(out.storeWrite, st.us())
	out.apply = append(out.apply, ap.us())
	return nil
}
