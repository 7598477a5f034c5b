package quantify

import (
	"math"
	"math/rand"

	"pnn/internal/dist"
	"pnn/internal/geom"
)

// Expected-distance nearest neighbors — the alternative NN definition of
// the companion paper [AESZ12] that Section 1.2 contrasts with
// quantification probabilities: rank points by E[d(q, P_i)] and return the
// minimizer. The expected distance of each point is computed separately
// (no interaction between points), which is what makes it cheap — and what
// makes it a poor indicator under large uncertainty ([YTX+10]); the
// ExpectedVsProbability experiment demonstrates the divergence.

// ExpectedDistanceDiscrete returns E[d(q, P)] = Σ_t w_t · d(q, p_t).
func ExpectedDistanceDiscrete(p *dist.Discrete, q geom.Point) float64 {
	e := 0.0
	for t, loc := range p.Locs {
		e += p.W[t] * loc.Dist(q)
	}
	return e
}

// ExpectedDistanceContinuous returns E[d(q, P)] = ∫ r·g_q(r) dr over the
// support by Simpson quadrature with the given panel count.
func ExpectedDistanceContinuous(p dist.Continuous, q geom.Point, panels int) float64 {
	if panels < 16 {
		panels = 16
	}
	sup := p.SupportDisk()
	lo := sup.MinDist(q)
	hi := sup.MaxDist(q)
	if hi <= lo {
		return lo
	}
	n := panels
	if n%2 == 1 {
		n++
	}
	h := (hi - lo) / float64(n)
	f := func(r float64) float64 { return r * p.DistPDF(q, r) }
	s := f(lo) + f(hi)
	for i := 1; i < n; i++ {
		x := lo + float64(i)*h
		if i%2 == 0 {
			s += 2 * f(x)
		} else {
			s += 4 * f(x)
		}
	}
	return s * h / 3
}

// ExpectedNNDiscrete returns the index minimizing the expected distance
// and the minimum value.
func ExpectedNNDiscrete(pts []*dist.Discrete, q geom.Point) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, p := range pts {
		if e := ExpectedDistanceDiscrete(p, q); e < bd {
			best, bd = i, e
		}
	}
	return best, bd
}

// ExpectedNNContinuous returns the index minimizing the expected distance.
func ExpectedNNContinuous(pts []dist.Continuous, q geom.Point, panels int) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, p := range pts {
		if e := ExpectedDistanceContinuous(p, q, panels); e < bd {
			best, bd = i, e
		}
	}
	return best, bd
}

// SpiralContinuous extends spiral search to continuous distributions —
// open problem (iii) of the paper — by the discretization route of
// Lemma 4.4: sample m locations from each pdf (uniform weights), then run
// the discrete machinery. With m = k(α) samples per point the additional
// error is at most nα with probability 1 − δ', so the estimates' total
// error bound becomes ε + nα one-sided-ish (the sampling error is
// two-sided).
type SpiralContinuous struct {
	*Spiral
	// SamplesPerPoint is the m used in the discretization.
	SamplesPerPoint int
}

// NewSpiralContinuous discretizes each continuous point with
// samplesPerPoint draws and builds the spiral structure over the result.
func NewSpiralContinuous(pts []dist.Continuous, samplesPerPoint int, rng *rand.Rand) *SpiralContinuous {
	if samplesPerPoint < 1 {
		samplesPerPoint = 1
	}
	disc := make([]*dist.Discrete, len(pts))
	for i, p := range pts {
		disc[i] = dist.DiscretizeContinuous(p, samplesPerPoint, rng)
	}
	return &SpiralContinuous{Spiral: NewSpiral(disc), SamplesPerPoint: samplesPerPoint}
}
