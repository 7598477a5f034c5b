package pnn

import (
	"math/rand"

	"pnn/internal/baseline"
	"pnn/internal/geom"
	"pnn/internal/quantify"
)

// ExactProbabilities returns π_i(q) for every point by the exact Eq. (2)
// sweep over the Lemma 2.1 window of q.
//
// Deprecated: use New(set).Probabilities (Exact is the default quantifier).
func (s *DiscreteSet) ExactProbabilities(q Point) []float64 {
	return quantify.ExactAll(s.dists, toGeom(q))
}

// PositiveProbabilities reports only the points with π_i(q) > eps.
func (s *DiscreteSet) PositiveProbabilities(q Point, eps float64) []IndexProb {
	return toIndexProbs(quantify.Positive(s.ExactProbabilities(q), eps))
}

// IntegrateProbabilities evaluates Eq. (1) for continuous points by
// one-dimensional numerical quadrature with the given panel count — the
// [CKP04]-style baseline. Accuracy grows with panels; 512 gives ~1e-4 on
// well-conditioned inputs.
//
// Deprecated: use New(set, WithIntegrationPanels(panels)).Probabilities.
func (s *ContinuousSet) IntegrateProbabilities(q Point, panels int) []float64 {
	return baseline.IntegrateAll(s.conts, toGeom(q), panels)
}

// IntegrateProbability evaluates Eq. (1) for a single point index — useful
// when only a few candidates (e.g. from a NonzeroIndex query) need exact
// values.
func (s *ContinuousSet) IntegrateProbability(q Point, i int, panels int) float64 {
	return baseline.IntegrateQuantification(s.conts, toGeom(q), i, panels)
}

// VPr is the probabilistic Voronoi diagram (Theorem 4.2): exact π vectors
// by point location, at Θ(N⁴) worst-case space (Lemma 4.1).
type VPr struct {
	v *quantify.VPr
}

// NewVPr builds the diagram covering the given region; queries outside it
// fall back to the exact sweep. The box should comfortably contain the
// workload's query region.
//
// Deprecated: use New(set, WithQuantifier(VPrDiagram(minX, minY, maxX, maxY))).
func (s *DiscreteSet) NewVPr(minX, minY, maxX, maxY float64) *VPr {
	box := geom.BBox{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
	return &VPr{v: quantify.NewVPr(s.dists, box)}
}

// Faces returns the number of diagram cells — Lemma 4.1's complexity.
func (v *VPr) Faces() int { return v.v.Faces() }

// Query returns the exact probability vector at q.
func (v *VPr) Query(q Point) []float64 { return v.v.Query(toGeom(q)) }

// MonteCarloEstimator estimates quantification probabilities from
// preprocessed
// random instantiations (Section 4.2).
type MonteCarloEstimator struct {
	mc *quantify.MonteCarlo
}

// NewMonteCarlo preprocesses enough rounds that, with probability ≥ 1−δ,
// every estimate for every query has additive error at most ε
// (Theorem 4.3). rng may be nil for a fixed default seed.
//
// Deprecated: use New(set, WithQuantifier(MonteCarlo(eps, delta)), WithSeed(seed)).
func (s *DiscreteSet) NewMonteCarlo(eps, delta float64, rng *rand.Rand) *MonteCarloEstimator {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	rounds := quantify.SampleCountDiscrete(s.Len(), s.K(), eps, delta)
	return &MonteCarloEstimator{mc: quantify.NewMonteCarloDiscrete(s.dists, rounds, rng)}
}

// NewMonteCarloRounds preprocesses an explicit number of rounds (for
// budget-constrained callers; the error then scales as sqrt(log/rounds)).
//
// Deprecated: use New(set, WithQuantifier(MonteCarloBudget(rounds)), WithSeed(seed)).
func (s *DiscreteSet) NewMonteCarloRounds(rounds int, rng *rand.Rand) *MonteCarloEstimator {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &MonteCarloEstimator{mc: quantify.NewMonteCarloDiscrete(s.dists, rounds, rng)}
}

// NewMonteCarloParallel preprocesses rounds concurrently (rounds are
// independent); the result is deterministic for a given seed regardless of
// worker count. workers ≤ 0 uses GOMAXPROCS.
//
// Deprecated: use New(set, WithQuantifier(MonteCarloBudget(rounds)), WithSeed(seed))
// with Index.QueryBatch for concurrent querying.
func (s *DiscreteSet) NewMonteCarloParallel(rounds int, seed int64, workers int) *MonteCarloEstimator {
	return &MonteCarloEstimator{mc: quantify.NewMonteCarloDiscreteParallel(s.dists, rounds, seed, workers)}
}

// NewMonteCarlo preprocesses rounds for continuous points (Theorem 4.5).
//
// Deprecated: use New(set, WithQuantifier(MonteCarlo(eps, delta)), WithSeed(seed)).
func (s *ContinuousSet) NewMonteCarlo(eps, delta float64, rng *rand.Rand) *MonteCarloEstimator {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	rounds := quantify.SampleCountContinuous(s.Len(), eps, delta)
	return &MonteCarloEstimator{mc: quantify.NewMonteCarloContinuous(s.conts, rounds, rng)}
}

// NewMonteCarloRounds preprocesses an explicit number of rounds.
//
// Deprecated: use New(set, WithQuantifier(MonteCarloBudget(rounds)), WithSeed(seed)).
func (s *ContinuousSet) NewMonteCarloRounds(rounds int, rng *rand.Rand) *MonteCarloEstimator {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &MonteCarloEstimator{mc: quantify.NewMonteCarloContinuous(s.conts, rounds, rng)}
}

// Rounds returns the number of preprocessed instantiations.
func (m *MonteCarloEstimator) Rounds() int { return m.mc.Rounds() }

// Estimate returns π̂_i(q) for all i in O(s log n).
func (m *MonteCarloEstimator) Estimate(q Point) []float64 { return m.mc.Estimate(toGeom(q)) }

// EstimatePositive reports the at most s points with positive estimates.
func (m *MonteCarloEstimator) EstimatePositive(q Point) []IndexProb {
	return toIndexProbs(m.mc.EstimatePositive(toGeom(q)))
}

// EstimateParallel answers one query with concurrent round evaluation;
// identical output to Estimate. workers ≤ 0 uses GOMAXPROCS.
func (m *MonteCarloEstimator) EstimateParallel(q Point, workers int) []float64 {
	return m.mc.EstimateParallel(toGeom(q), workers)
}

// Spiral is the deterministic approximation of Section 4.3 (Theorem 4.7):
// π̂_i(q) ≤ π_i(q) ≤ π̂_i(q) + ε using the m(ρ,ε) nearest locations.
type Spiral struct {
	sp *quantify.Spiral
}

// NewSpiral preprocesses the locations in O(N log N).
//
// Deprecated: use New(set, WithQuantifier(SpiralSearch(eps))).
func (s *DiscreteSet) NewSpiral() *Spiral {
	return &Spiral{sp: quantify.NewSpiral(s.dists)}
}

// Rho returns the spread of location probabilities.
func (s *Spiral) Rho() float64 { return s.sp.Rho() }

// RetrievalSize returns m(ρ, ε), the number of locations a query at the
// given ε inspects.
func (s *Spiral) RetrievalSize(eps float64) int { return s.sp.M(eps) }

// Estimate returns π̂ with one-sided additive error at most eps.
func (s *Spiral) Estimate(q Point, eps float64) []float64 {
	return s.sp.Estimate(toGeom(q), eps)
}

// EstimatePositive reports the points with positive estimates.
func (s *Spiral) EstimatePositive(q Point, eps float64) []IndexProb {
	return toIndexProbs(s.sp.EstimatePositive(toGeom(q), eps))
}

// TopK returns the k most probable nearest neighbors by spiral estimate,
// in decreasing probability order — the probability-ranking variant of
// the kNN problem the paper surveys in §1.2.
func (s *Spiral) TopK(q Point, k int, eps float64) []IndexProb {
	return toIndexProbs(quantify.TopK(s.sp.Estimate(toGeom(q), eps), k))
}

// TopKProbable returns the k most probable nearest neighbors by the exact
// sweep.
//
// Deprecated: use New(set).TopK.
func (s *DiscreteSet) TopKProbable(q Point, k int) []IndexProb {
	return toIndexProbs(quantify.TopK(quantify.ExactAll(s.dists, toGeom(q)), k))
}

func toIndexProbs(in []quantify.IndexProb) []IndexProb {
	out := make([]IndexProb, len(in))
	for i, ip := range in {
		out[i] = IndexProb{Index: ip.I, Prob: ip.P}
	}
	return out
}
