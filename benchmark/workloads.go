package main

import (
	"fmt"
	"time"

	"pnn/internal/datafile"
	"pnn/internal/loadgen"
)

// Dataset shape shared by every workload: one seeded discrete dataset,
// so workloads differ only in topology and traffic.
const (
	datasetName = "ds"
	datasetN    = 10000
	datasetK    = 4
	extent      = 100
	topK        = 3
	tau         = 0.2
	adminToken  = "bench"
)

// workload is one traffic mix against one topology. The "why" of each
// is recorded in BENCHMARK.json and the README.
type workload struct {
	name string
	// routed puts pnnrouter in front of two read-only replicas.
	routed bool
	// durable runs one pnnserve -store with the dataset imported, so the
	// mix may write.
	durable bool
	mix     string
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// points is the query-point pool size and theta its Zipf skew.
	points int
	theta  float64
	// prewarm fills the result cache with every (op, point) key before
	// timing.
	prewarm bool
}

// workloads are chosen so that each one's reads fall in a single cost
// class (a locate costs ~4 ms, a quantification ~20 ms, a cache hit
// ~1.5 ms): read latency percentiles then describe one mechanism, not
// where a pooled median happens to fall between two. Open-loop rates
// load the two connections to at most about a quarter of what they can
// carry, so queueing, which amplifies any slowdown of the host, stays a
// small part of read latency.
var workloads = []workload{
	{name: "read-cold", mix: "probabilities=1,topk=1,threshold=1",
		rate: 20, points: 65536},
	{name: "read-hot-routed", routed: true, mix: "nonzero=1,probabilities=1,topk=1,threshold=1,expectednn=1",
		rate: 150, points: 64, theta: 0.99, prewarm: true},
	{name: "write-quantify", durable: true, mix: "probabilities=1,topk=2,threshold=1,insert=3,delete=2",
		rate: 30, points: 65536},
	{name: "write-nonzero", durable: true, mix: "nonzero=2,insert=2,delete=1",
		rate: 150, points: 65536},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spec is the loadgen spec of w's request sequence under seed. QPS and
// Duration only satisfy validation; the benchmark schedules arrivals
// itself.
func (w workload) spec(seed int64) (loadgen.Spec, error) {
	mix, err := loadgen.ParseMix(w.mix)
	if err != nil {
		return loadgen.Spec{}, err
	}
	return loadgen.Spec{
		Name:       w.name,
		Seed:       seed,
		QPS:        w.rate,
		Duration:   time.Second,
		Datasets:   []string{datasetName},
		PointTheta: w.theta,
		Points:     w.points,
		Extent:     extent,
		Mix:        mix,
		BatchSize:  1,
		K:          topK,
		Tau:        tau,
		Kind:       "discrete",
	}, nil
}

// dataset generates the seeded dataset every workload serves.
func dataset(seed int64) (*datafile.File, error) {
	p := datafile.DefaultGenParams()
	p.N, p.K, p.Extent, p.Seed = datasetN, datasetK, extent, seed
	return datafile.Generate("discrete", p)
}
