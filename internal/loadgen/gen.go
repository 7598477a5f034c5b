package loadgen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"pnn/api"
)

// Request is one generated operation, fully materialized: everything
// the runner needs to issue it is in the struct, so a dumped sequence
// (Gen.Dump) names the workload byte for byte. Delete requests carry
// no id — ids are assigned by the server at run time, so the runner
// resolves them against its own insert log.
type Request struct {
	// Op is one of MixOps.
	Op      string `json:"op"`
	Dataset string `json:"dataset,omitempty"`
	// X and Y are the query point of the single-query ops.
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
	// K and Tau ride on topk and threshold.
	K   int     `json:"k,omitempty"`
	Tau float64 `json:"tau,omitempty"`
	// Items is the envelope of an OpBatch request.
	Items []api.BatchItem `json:"items,omitempty"`
	// Disks / Discrete is the payload of an OpInsert request (exactly
	// one is set, matching the spec's Kind).
	Disks    []api.DiskPointJSON     `json:"disks,omitempty"`
	Discrete []api.DiscretePointJSON `json:"discrete,omitempty"`
}

// Gen deterministically synthesizes the request sequence of a Spec:
// op choice from the weighted mix, dataset choice Zipf-skewed across
// the spec's datasets, query points Zipf-skewed across a per-dataset
// pool of popular locations (so hot keys repeat exactly, exercising
// the server's result cache the way real skewed traffic does). Two
// Gens built from equal Specs emit identical sequences. Not safe for
// concurrent use.
type Gen struct {
	spec Spec
	// r drives op choice and insert payloads; dz and pz own their own
	// deterministic streams so adding a draw to one choice never shifts
	// the others.
	r      *rand.Rand
	dz, pz *Zipf
	// pools holds each dataset's popular query points, index-aligned
	// with spec.Datasets.
	pools [][]point
	// readMix restricts the mix to the five single-query ops for batch
	// items (a batch of mutations is not a thing the API offers).
	readMix Mix
}

type point struct{ x, y float64 }

// NewGen builds the generator for a validated spec.
func NewGen(spec Spec) (*Gen, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dz, err := NewZipf(spec.Seed+1, uint64(len(spec.Datasets)), spec.DatasetTheta)
	if err != nil {
		return nil, err
	}
	pz, err := NewZipf(spec.Seed+2, uint64(spec.Points), spec.PointTheta)
	if err != nil {
		return nil, err
	}
	g := &Gen{
		spec: spec,
		r:    rand.New(rand.NewSource(spec.Seed)),
		dz:   dz,
		pz:   pz,
	}
	// Each dataset's pool comes from its own stream seeded by (seed,
	// name), so the same dataset name always gets the same hot points
	// regardless of its position in the list.
	for _, name := range spec.Datasets {
		pr := rand.New(rand.NewSource(poolSeed(spec.Seed, name)))
		pool := make([]point, spec.Points)
		for i := range pool {
			pool[i] = point{pr.Float64() * spec.Extent, pr.Float64() * spec.Extent}
		}
		g.pools = append(g.pools, pool)
	}
	g.readMix = Mix{weights: make(map[string]int)}
	for _, op := range api.Ops {
		if w := spec.Mix.weights[op]; w > 0 {
			g.readMix.weights[op] = w
		}
	}
	if g.readMix.total() == 0 {
		for _, op := range api.Ops {
			g.readMix.weights[op] = 1
		}
	}
	return g, nil
}

func poolSeed(seed int64, dataset string) int64 {
	h := fnv.New64a()
	io.WriteString(h, dataset)
	return seed ^ int64(h.Sum64())
}

// Next emits the next request of the sequence.
func (g *Gen) Next() Request {
	op := g.spec.Mix.pick(g.r.Intn(g.spec.Mix.total()))
	switch op {
	case OpBatch:
		items := make([]api.BatchItem, g.spec.BatchSize)
		for i := range items {
			items[i] = g.batchItem()
		}
		return Request{Op: OpBatch, Items: items}
	case OpInsert:
		return g.insert()
	case OpDelete:
		di := g.dz.Next()
		return Request{Op: OpDelete, Dataset: g.spec.Datasets[di]}
	default:
		return g.query(op)
	}
}

// query draws one single-endpoint read: Zipf dataset, Zipf hot point.
func (g *Gen) query(op string) Request {
	di := g.dz.Next()
	p := g.pools[di][g.pz.Next()]
	req := Request{Op: op, Dataset: g.spec.Datasets[di], X: p.x, Y: p.y}
	switch op {
	case "topk":
		req.K = g.spec.K
	case "threshold":
		req.Tau = g.spec.Tau
	}
	return req
}

func (g *Gen) batchItem() api.BatchItem {
	q := g.query(g.readMix.pick(g.r.Intn(g.readMix.total())))
	return api.BatchItem{
		Dataset: q.Dataset,
		Op:      q.Op,
		X:       q.X,
		Y:       q.Y,
		K:       q.K,
		Tau:     q.Tau,
		Backend: g.spec.Backend,
		Method:  g.spec.Method,
		Eps:     g.spec.Eps,
	}
}

// insert synthesizes one fresh point near a hot pool location, so
// writes land where reads are looking (the worst case for the result
// cache and the live engines).
func (g *Gen) insert() Request {
	di := g.dz.Next()
	center := g.pools[di][g.pz.Next()]
	req := Request{Op: OpInsert, Dataset: g.spec.Datasets[di]}
	jitter := func() float64 { return g.r.Float64()*4 - 2 }
	if g.spec.Kind == "discrete" {
		req.Discrete = []api.DiscretePointJSON{{
			X: []float64{center.x + jitter(), center.x + jitter()},
			Y: []float64{center.y + jitter(), center.y + jitter()},
		}}
	} else {
		req.Disks = []api.DiskPointJSON{{
			X: center.x + jitter(),
			Y: center.y + jitter(),
			R: 0.1 + g.r.Float64(),
		}}
	}
	return req
}

// Dump writes the first n requests of the sequence as JSON lines — the
// byte-stability witness: two dumps of equal specs must compare equal.
func (g *Gen) Dump(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		if err := enc.Encode(g.Next()); err != nil {
			return fmt.Errorf("loadgen: dump: %w", err)
		}
	}
	return nil
}
