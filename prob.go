package pnn

import (
	"pnn/internal/baseline"
	"pnn/internal/quantify"
)

// PositiveProbabilities reports only the points with π_i(q) > eps, by
// the exact Eq. (2) sweep over the Lemma 2.1 window of q.
func (s *DiscreteSet) PositiveProbabilities(q Point, eps float64) []IndexProb {
	return toIndexProbs(quantify.Positive(quantify.ExactAll(s.dists, toGeom(q)), eps))
}

// IntegrateProbability evaluates Eq. (1) for a single point index by
// one-dimensional numerical quadrature with the given panel count —
// useful when only a few candidates (e.g. from Index.Nonzero) need
// values.
func (s *ContinuousSet) IntegrateProbability(q Point, i int, panels int) float64 {
	return baseline.IntegrateQuantification(s.conts, toGeom(q), i, panels)
}

func toIndexProbs(in []quantify.IndexProb) []IndexProb {
	out := make([]IndexProb, len(in))
	for i, ip := range in {
		out[i] = IndexProb{Index: ip.I, Prob: ip.P}
	}
	return out
}
