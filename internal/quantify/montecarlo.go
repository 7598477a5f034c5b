package quantify

import (
	"math"
	"math/rand"
	"sync"

	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/kdtree"
)

// MonteCarlo is the estimator of Section 4.2: s instantiations of the
// uncertain-point set, each preprocessed for nearest-neighbor queries. A
// query counts, per round, which point's instantiation is the NN of q;
// π̂_i(q) = count_i / s satisfies |π̂_i − π_i| ≤ ε for all i simultaneously
// with probability ≥ 1 − δ when s matches SampleCountDiscrete /
// SampleCountContinuous (Theorems 4.3 and 4.5).
//
// The paper stores each round as a Voronoi diagram with a point-location
// structure; the kd-tree used here answers the same NN query exactly, in
// logarithmic expected time rather than the diagram's worst-case bound.
type MonteCarlo struct {
	rounds []*kdtree.Tree
}

// SampleCountDiscrete returns the number of rounds Theorem 4.3 prescribes:
// s = ln(2n|Q|/δ)/(2ε²) with |Q| = O((nk)⁴) candidate queries (one per cell
// of V_Pr, Lemma 4.1).
func SampleCountDiscrete(n, k int, eps, delta float64) int {
	if n < 1 {
		n = 1
	}
	nk := float64(n * k)
	if nk < 2 {
		nk = 2
	}
	logQ := 4 * math.Log(nk)
	s := (math.Log(2*float64(n)) + logQ + math.Log(1/delta)) / (2 * eps * eps)
	if s < 1 {
		return 1
	}
	return int(math.Ceil(s))
}

// SampleCountContinuous returns the rounds for Theorem 4.5:
// s = O(ε⁻² log(n/(εδ))), where the discretization analysis (Lemma 4.4)
// replaces |Q| with O(n¹²ε⁻⁸ log⁴(n/δ)).
func SampleCountContinuous(n int, eps, delta float64) int {
	if n < 1 {
		n = 1
	}
	nf := float64(n)
	logQ := 12*math.Log(math.Max(nf, 2)) + 8*math.Log(1/eps) + 4*math.Log(math.Max(math.Log(math.Max(nf, 2)/delta), 2))
	s := (math.Log(2*nf) + logQ + math.Log(1/delta)) / (2 * eps * eps / 4) // ε/2 budget per Theorem 4.5
	if s < 1 {
		return 1
	}
	return int(math.Ceil(s))
}

// Instantiator produces one random location per uncertain point. Discrete
// and continuous uncertain points both satisfy it.
type Instantiator interface {
	SamplePoint(r *rand.Rand) geom.Point
}

// continuousAdapter lifts dist.Continuous to Instantiator.
type continuousAdapter struct{ c dist.Continuous }

func (a continuousAdapter) SamplePoint(r *rand.Rand) geom.Point { return a.c.Sample(r) }

// NewMonteCarloDiscrete preprocesses s rounds over discrete uncertain
// points in O(s · n log n) time and O(s · n) space (Theorem 4.3).
func NewMonteCarloDiscrete(pts []*dist.Discrete, s int, r *rand.Rand) *MonteCarlo {
	insts := make([]Instantiator, len(pts))
	for i, p := range pts {
		insts[i] = p
	}
	return newMonteCarlo(insts, s, r)
}

// NewMonteCarloContinuous preprocesses s rounds over continuous uncertain
// points (Theorem 4.5); each round instantiates every pdf in O(1).
func NewMonteCarloContinuous(pts []dist.Continuous, s int, r *rand.Rand) *MonteCarlo {
	insts := make([]Instantiator, len(pts))
	for i, p := range pts {
		insts[i] = continuousAdapter{p}
	}
	return newMonteCarlo(insts, s, r)
}

func newMonteCarlo(pts []Instantiator, s int, r *rand.Rand) *MonteCarlo {
	mc := &MonteCarlo{rounds: make([]*kdtree.Tree, s)}
	items := make([]kdtree.Item, len(pts))
	for j := 0; j < s; j++ {
		for i, p := range pts {
			items[i] = kdtree.Item{P: p.SamplePoint(r), ID: i}
		}
		mc.rounds[j] = kdtree.Build(items)
	}
	return mc
}

// Rounds returns the number of stored instantiations.
func (mc *MonteCarlo) Rounds() int { return len(mc.rounds) }

// mcScratch is the pooled per-query tally: at most s owners are hit per
// query, so tracking the hit set keeps work and clearing O(s), not O(n).
type mcScratch struct {
	counts map[int]int32
	hit    []int // owners with counts > 0, in first-hit order
}

var mcPool = sync.Pool{New: func() any {
	return &mcScratch{counts: make(map[int]int32)}
}}

// tally counts, per owner, the rounds whose nearest instantiation to q
// belongs to that owner.
func (mc *MonteCarlo) tally(q geom.Point, sc *mcScratch) {
	clear(sc.counts)
	sc.hit = sc.hit[:0]
	for _, t := range mc.rounds {
		if it, _, ok := t.Nearest(q); ok {
			if sc.counts[it.ID] == 0 {
				sc.hit = append(sc.hit, it.ID)
			}
			sc.counts[it.ID]++
		}
	}
}

// EstimatePositiveInto appends the indices with π̂_i(q) > 0 to dst
// (reused from its start) in increasing index order, in O(s log n) time.
// At most s of them are positive, the output-size bound the paper notes,
// so no N-length vector is materialized.
func (mc *MonteCarlo) EstimatePositiveInto(q geom.Point, dst []IndexProb) []IndexProb {
	dst = dst[:0]
	sc := mcPool.Get().(*mcScratch)
	mc.tally(q, sc)
	inv := 1 / float64(len(mc.rounds))
	for _, i := range sc.hit {
		dst = append(dst, IndexProb{I: i, P: float64(sc.counts[i]) * inv})
	}
	sortByOwner(dst)
	mcPool.Put(sc)
	return dst
}
