package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"pnn"
	"pnn/api"
	"pnn/internal/loadgen"
	"pnn/server"
	"pnn/store"
)

// oracle answers read requests in process with pnn.New over a point
// set, built with the options the server uses for default requests,
// and renders each answer exactly as the server encodes it. Byte
// equality with a served body therefore means equal indices and
// bitwise-equal floats (Go prints the shortest round-tripping form).
type oracle struct {
	ix   *pnn.Index
	memo map[string][]byte
}

// defaultKey is the engine key the server resolves a request with no
// backend or method parameters to.
var defaultKey = server.IndexKey{Backend: "index", Method: "exact", Seed: 1}

func newOracle(set pnn.UncertainSet) (*oracle, error) {
	opts, err := defaultKey.Options()
	if err != nil {
		return nil, err
	}
	ix, err := pnn.New(set, opts...)
	if err != nil {
		return nil, fmt.Errorf("oracle index: %w", err)
	}
	return &oracle{ix: ix, memo: make(map[string][]byte)}, nil
}

// body returns the exact response body the server must send for the
// read request r.
func (o *oracle) body(r loadgen.Request) ([]byte, error) {
	key := queryPath(r)
	if b, ok := o.memo[key]; ok {
		return b, nil
	}
	res, err := o.ix.QueryBatchOps(context.Background(), []pnn.Request{pnnRequest(r)}, 1)
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", key, err)
	}
	out, qp := res[0], api.Point{X: r.X, Y: r.Y}
	var v any
	switch r.Op {
	case "nonzero":
		v = api.Nonzero{Dataset: r.Dataset, Query: qp, N: o.ix.Len(), Indices: nonNil(out.Nonzero)}
	case "probabilities":
		v = api.Probabilities{Dataset: r.Dataset, Query: qp, Eps: o.ix.Eps(), Probabilities: nonNil(out.Probabilities)}
	case "topk":
		ranked := make([]api.IndexProb, len(out.Ranked))
		for i, ip := range out.Ranked {
			ranked[i] = api.IndexProb{Index: ip.Index, P: ip.Prob}
		}
		v = api.TopK{Dataset: r.Dataset, Query: qp, K: r.K, Results: ranked}
	case "threshold":
		v = api.Threshold{Dataset: r.Dataset, Query: qp, Tau: r.Tau,
			Certain: nonNil(out.Threshold.Certain), Possible: nonNil(out.Threshold.Possible)}
	case "expectednn":
		v = api.ExpectedNN{Dataset: r.Dataset, Query: qp, Index: out.ExpectedIndex, Distance: out.ExpectedDist}
	default:
		return nil, fmt.Errorf("oracle: %q is not a read", r.Op)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	o.memo[key] = b
	return b, nil
}

func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// checkReads checks a read-only run: every sampled read body must
// equal pnn.New's answer over set, and a routed one must also equal
// what the backend that answered it returns when asked directly. It
// returns one line per mismatch.
func checkReads(ctx context.Context, set pnn.UncertainSet, d *sender, recs []*record, routed bool) ([]string, error) {
	o, err := newOracle(set)
	if err != nil {
		return nil, err
	}
	bad, err := o.check(recs)
	if err != nil || !routed {
		return bad, err
	}
	for _, r := range recs {
		if r.body == nil {
			continue
		}
		path := queryPath(r.req)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.backend+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := d.client.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if string(body) != string(r.body) {
			bad = append(bad, fmt.Sprintf("request %d %s: router and backend %s bodies differ", r.seq, path, r.backend))
		}
	}
	return bad, nil
}

// check compares every sampled read body with the oracle's answer and
// returns one line per mismatch.
func (o *oracle) check(recs []*record) ([]string, error) {
	var bad []string
	for _, r := range recs {
		if r.body == nil {
			continue
		}
		want, err := o.body(r.req)
		if err != nil {
			return nil, err
		}
		if string(want) != string(r.body) {
			bad = append(bad, fmt.Sprintf("request %d %s: served %.120q, oracle %.120q", r.seq, queryPath(r.req), r.body, want))
		}
	}
	return bad, nil
}

// checkStore checks a durable run's final state, read back from the
// store directory after the server stopped: the live ids must be the
// initial ids 1..initial plus acked inserts minus acked deletes, and
// each probe answer the server gave before stopping must equal pnn.New
// over the stored points. It returns one line per mismatch.
func checkStore(dir string, initial int, inserted, deleted []uint64, probes []*record) ([]string, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("reopening store: %w", err)
	}
	defer st.Close()
	ids, _, err := st.Points(datasetName)
	if err != nil {
		return nil, err
	}
	want := make(map[uint64]bool, initial+len(inserted))
	for id := uint64(1); id <= uint64(initial); id++ {
		want[id] = true
	}
	for _, id := range inserted {
		want[id] = true
	}
	for _, id := range deleted {
		delete(want, id)
	}
	var bad []string
	for _, id := range ids {
		if !want[id] {
			bad = append(bad, fmt.Sprintf("store holds point %d, which no acked write leaves live", id))
		}
		delete(want, id)
	}
	missing := make([]uint64, 0, len(want))
	for id := range want {
		missing = append(missing, id)
	}
	slices.Sort(missing)
	for _, id := range missing {
		bad = append(bad, fmt.Sprintf("store lost point %d, which acked writes leave live", id))
	}
	_, set, err := st.View(datasetName)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(set)
	if err != nil {
		return nil, err
	}
	probeBad, err := o.check(probes)
	return append(bad, probeBad...), err
}
